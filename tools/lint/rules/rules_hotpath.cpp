#include <set>
#include <string>
#include <vector>

#include "lint/rules/rules.hpp"

// Hot-path rule family. The per-packet path — enqueue at a queue,
// delivery at a link/node, event pop in the EventQueue, and the lane
// fire that carries nearly every transmit-complete and delivery — runs
// millions of times per trial; a stray `new`, `make_shared`, or
// unreserved container growth there is the difference between the
// paper's sweep finishing overnight or not. The rule walks the
// cross-TU call table from the hot-path roots and flags allocation
// sites in everything reachable within a few hops. Name-based call
// resolution over-approximates, so a site that only runs at warm-up or
// set-up carries a reasoned `allow(no-hot-path-alloc)`; with those,
// the tree lints clean under the rule. A lane fires its callback
// through a function pointer, which no call names; so Lane::fire_head
// gets an edge to every function whose address reaches acquire_lane.

namespace slowcc::lint::rules::detail {

namespace {

constexpr int kMaxDepth = 4;  // hops from a hot-path root

bool hot_path_root(const FuncDef& def) {
  if (def.name == "enqueue" || def.name == "deliver") return true;
  if (def.name == "pop" && def.cls == "EventQueue") return true;
  return def.name == "fire_head" && def.cls == "Lane";
}

std::string root_label(const FuncDef& def) {
  return def.cls.empty() ? def.name : def.cls + "::" + def.name;
}

}  // namespace

void check_hot_path_alloc(const std::vector<const FileFacts*>& facts,
                          const ProgramIndex& index,
                          std::vector<Finding>* out) {
  struct Item {
    const FuncDef* def;
    const FileFacts* file;
    std::string root;
    int depth;
  };
  std::vector<Item> queue;
  std::set<const FuncDef*> visited;
  std::set<std::string> lane_fires;
  for (const FileFacts* file : facts) {
    if (!in_src(file->path)) continue;
    for (const FuncDef& def : file->functions) {
      lane_fires.insert(def.lane_fires.begin(), def.lane_fires.end());
      if (!hot_path_root(def)) continue;
      if (!visited.insert(&def).second) continue;
      queue.push_back({&def, file, root_label(def), 0});
    }
  }

  std::set<std::string> emitted;  // file|line|what — dedupe across roots
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Item item = queue[head];
    if (in_src(item.file->path)) {
      for (const AllocSite& alloc : item.def->allocs) {
        const std::string key = item.file->path + "|" +
                                std::to_string(alloc.line) + "|" + alloc.what;
        if (!emitted.insert(key).second) continue;
        const bool heap = alloc.what == "new" || alloc.what == "make_shared" ||
                          alloc.what == "make_unique";
        Finding f;
        f.file = item.file->path;
        f.line = alloc.line;
        f.rule = "no-hot-path-alloc";
        f.message =
            (heap ? "heap allocation ('" : "container growth ('") +
            alloc.what + "') reachable from hot path " + item.root;
        f.hint =
            "pre-size or pool on the per-packet path (ROADMAP: pooled "
            "packet allocation); suppress with a reason if this runs at "
            "setup/teardown only";
        out->push_back(std::move(f));
      }
    }
    if (item.depth >= kMaxDepth) continue;
    const auto follow = [&](const std::string& callee) {
      const auto it = index.functions_by_name.find(callee);
      if (it == index.functions_by_name.end()) return;
      for (const ProgramIndex::FuncRef& ref : it->second) {
        if (!visited.insert(ref.def).second) continue;
        queue.push_back({ref.def, ref.file, item.root, item.depth + 1});
      }
    };
    for (const std::string& callee : item.def->calls) follow(callee);
    if (item.def->name == "fire_head" && item.def->cls == "Lane") {
      for (const std::string& fire : lane_fires) follow(fire);
    }
  }
}

}  // namespace slowcc::lint::rules::detail
