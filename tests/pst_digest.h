// Digest of a live PST's node set, shared by the layout and Build oracles.
//
// Hashes every live node — (id, parent, edge symbol, depth, count,
// children, next counts) in id order — together with NumNodes() and
// ApproxMemoryBytes(), so two trees hash alike only if they agree on node
// ids, list order and the §5.1 byte accounting.

#ifndef CLUSEQ_TESTS_PST_DIGEST_H_
#define CLUSEQ_TESTS_PST_DIGEST_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "pst/pst.h"
#include "util/rng.h"

namespace cluseq {
namespace pst_test {

using Symbols = std::vector<SymbolId>;

struct NodeRecord {
  bool live = false;
  PstNodeId parent = kNoPstNode;
  SymbolId edge = kInvalidSymbol;
};

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

inline TreeDigest Digest(const Pst& pst) {
  // Live nodes are exactly those reachable from the root.
  std::vector<NodeRecord> records(1);
  records[kPstRoot].live = true;
  std::vector<PstNodeId> stack = {kPstRoot};
  while (!stack.empty()) {
    PstNodeId id = stack.back();
    stack.pop_back();
    for (const auto& [sym, child] : pst.Children(id)) {
      if (records.size() <= child) records.resize(child + 1);
      records[child] = {true, id, sym};
      stack.push_back(child);
    }
  }
  TreeDigest digest;
  Fnv fnv;
  for (PstNodeId id = 0; id < records.size(); ++id) {
    if (!records[id].live) continue;
    fnv.Add(id);
    fnv.Add(records[id].parent);
    fnv.Add(records[id].edge);
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
