// Digest of a live PST's node set, shared by the layout and Build oracles.
//
// Hashes every live node — (id, parent, edge symbol, depth, count,
// children, next counts) in id order — together with NumNodes() and
// ApproxMemoryBytes(), so two trees hash alike only if they agree on node
// ids, list order and the §5.1 byte accounting. A corrupted tree (a cycle
// in its child lists, or more reachable nodes than NumNodes()) fails the
// calling test.

#ifndef CLUSEQ_TESTS_PST_DIGEST_H_
#define CLUSEQ_TESTS_PST_DIGEST_H_

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "pst/pst.h"
#include "util/rng.h"

namespace cluseq {
namespace pst_test {

using Symbols = std::vector<SymbolId>;

struct TreeDigest {
  uint64_t hash = 0;
  size_t child_entries = 0;
  size_t next_entries = 0;
};

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Takes any tree with Pst's read accessors, so a test can hand it a
// corrupted one.
template <typename Tree>
TreeDigest Digest(const Tree& pst) {
  // Live nodes are exactly those reachable from the root: (id, parent,
  // edge). A child list that leads back to a node already reached, or to
  // more nodes than the tree holds, fails the test here instead of making
  // the walk loop or grow without bound.
  struct Live {
    PstNodeId id;
    PstNodeId parent;
    SymbolId edge;
  };
  std::vector<Live> live = {{kPstRoot, kNoPstNode, kInvalidSymbol}};
  std::unordered_set<PstNodeId> reached = {kPstRoot};
  std::vector<PstNodeId> stack = {kPstRoot};
  while (!stack.empty()) {
    PstNodeId id = stack.back();
    stack.pop_back();
    for (const auto& [sym, child] : pst.Children(id)) {
      if (!reached.insert(child).second) {
        ADD_FAILURE() << "node " << child << " is reached twice";
        return {};
      }
      if (reached.size() > pst.NumNodes()) {
        ADD_FAILURE() << "more than NumNodes() = " << pst.NumNodes()
                      << " nodes are reachable";
        return {};
      }
      live.push_back({child, id, sym});
      stack.push_back(child);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const Live& a, const Live& b) { return a.id < b.id; });
  TreeDigest digest;
  Fnv fnv;
  for (const Live& node : live) {
    const PstNodeId id = node.id;
    fnv.Add(id);
    fnv.Add(node.parent);
    fnv.Add(node.edge);
    fnv.Add(pst.NodeDepth(id));
    fnv.Add(pst.NodeCount(id));
    const auto children = pst.Children(id);
    fnv.Add(children.size());
    for (const auto& [sym, child] : children) {
      fnv.Add(sym);
      fnv.Add(child);
    }
    digest.child_entries += children.size();
    for (SymbolId s = 0; s < pst.alphabet_size(); ++s) {
      const uint64_t n = pst.NextCount(id, s);
      if (n == 0) continue;
      fnv.Add(s);
      fnv.Add(n);
      ++digest.next_entries;
    }
  }
  fnv.Add(pst.NumNodes());
  fnv.Add(pst.ApproxMemoryBytes());
  digest.hash = fnv.value();
  return digest;
}

// Checks the §5.1 cost-model identity and returns the tree's hash.
inline uint64_t CheckedHash(const Pst& pst) {
  const TreeDigest d = Digest(pst);
  EXPECT_EQ(d.child_entries + 1, pst.NumNodes());
  EXPECT_EQ(pst.ApproxMemoryBytes(),
            72 * pst.NumNodes() + 8 * d.child_entries + 16 * d.next_entries);
  return d.hash;
}

// Skewed text (low symbols are more frequent) so that deep contexts repeat.
inline Symbols Text(size_t len, size_t alphabet, uint64_t seed) {
  Rng rng(seed);
  Symbols text(len);
  for (auto& s : text) {
    s = static_cast<SymbolId>(
        std::min(rng.Uniform(alphabet), rng.Uniform(alphabet)));
  }
  return text;
}

}  // namespace pst_test
}  // namespace cluseq

#endif  // CLUSEQ_TESTS_PST_DIGEST_H_
