// slowcc_figures [--list | NAME...]: regenerate the paper's figures from
// the figure table, every entry or the named ones. Each entry prints
// its table and one [SHAPE-OK] / [SHAPE-DEVIATION] verdict line. Exit
// status: 0 when every verdict held and no trial failed, 1 otherwise,
// 2 on an unknown entry name.
#include <cstdio>
#include <string_view>

#include "figures.hpp"

int main(int argc, char** argv) {
  using slowcc::figures::Entry;
  using slowcc::figures::table;
  std::vector<const Entry*> selected;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--list") {
      for (const Entry& e : table()) std::printf("%s\n", e.name.c_str());
      return 0;
    }
    const Entry* e = slowcc::figures::find(argv[i]);
    if (e == nullptr) {
      std::fprintf(stderr, "slowcc_figures: unknown entry '%s' (see --list)\n",
                   argv[i]);
      return 2;
    }
    selected.push_back(e);
  }
  if (selected.empty()) {
    for (const Entry& e : table()) selected.push_back(&e);
  }
  return slowcc::figures::run(selected);
}
