#include <map>
#include <string>
#include <vector>

#include "lint/rules/rules.hpp"

// Resource-pairing rule. A component that charges a budget (`charge`)
// must release it (`release`) on its drain/drop/teardown path, or the
// budget leaks and an overload abort fires on an innocent trial. The
// rule groups the call sites by calling class across the whole batch
// (charge in one TU, release in another is fine) and flags classes
// that charge without ever releasing. The reverse (release without
// charge) is deliberately allowed — drain helpers legitimately release
// on behalf of another class. The ResourceGovernor itself needs no
// charges: it reads its packet model from the PacketPool.

namespace slowcc::lint::rules::detail {

void check_governor_pairing(const std::vector<const FileFacts*>& facts,
                            const ProgramIndex& index,
                            std::vector<Finding>* out) {
  (void)index;
  struct Tally {
    // first charge site in (file, line) order — facts arrive path-sorted
    std::string file;
    int line = 0;
    int charges = 0;
    int releases = 0;
  };
  std::map<std::string, Tally> tallies;  // by class, for stable output

  for (const FileFacts* file : facts) {
    for (const FuncDef& def : file->functions) {
      if (def.cls.empty()) continue;  // free functions cannot be paired
      for (const CallSite& call : def.calls) {
        if (call.callee == "release") {
          ++tallies[def.cls].releases;
        } else if (call.callee == "charge") {
          Tally& tally = tallies[def.cls];
          if (tally.charges++ == 0) {
            tally.file = file->path;
            tally.line = call.line;
          }
        }
      }
    }
  }

  for (const auto& [cls, tally] : tallies) {
    if (tally.charges == 0 || tally.releases > 0) continue;
    Finding f;
    f.file = tally.file;
    f.line = tally.line;
    f.rule = "governor-charge-release";
    f.message = "class '" + cls +
                "' charges a budget ('charge') but never releases "
                "('release')";
    f.hint =
        "pair every charge with a release on the dequeue/drop/teardown "
        "path of the same class; suppress with a reason if a "
        "collaborator owns the release";
    out->push_back(std::move(f));
  }
}

}  // namespace slowcc::lint::rules::detail
