// Tests for PST merging, TopContexts inspection and per-depth stats.

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "pst/pst.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using Symbols = std::vector<SymbolId>;

PstOptions Opts(size_t depth, uint64_t c) {
  PstOptions o;
  o.max_depth = depth;
  o.significance_threshold = c;
  o.smoothing_p_min = 0.0;
  return o;
}

Symbols RandomText(size_t len, size_t alphabet, uint64_t seed) {
  Rng rng(seed);
  Symbols text(len);
  for (auto& s : text) s = static_cast<SymbolId>(rng.Uniform(alphabet));
  return text;
}

void CollectCounts(const Pst& pst, PstNodeId id,
                   std::map<Symbols, uint64_t>* out) {
  (*out)[pst.NodeLabel(id)] = pst.NodeCount(id);
  for (const auto& [sym, child] : pst.Children(id)) {
    CollectCounts(pst, child, out);
  }
}

TEST(PstMergeTest, MergeEqualsJointConstruction) {
  Symbols a = RandomText(200, 4, 1);
  Symbols b = RandomText(150, 4, 2);

  Pst joint(4, Opts(5, 2));
  joint.InsertSequence(a);
  joint.InsertSequence(b);

  Pst first(4, Opts(5, 2));
  first.InsertSequence(a);
  Pst second(4, Opts(5, 2));
  second.InsertSequence(b);
  ASSERT_TRUE(first.MergeFrom(second).ok());

  std::map<Symbols, uint64_t> expect, got;
  CollectCounts(joint, kPstRoot, &expect);
  CollectCounts(first, kPstRoot, &got);
  EXPECT_EQ(expect, got);
  EXPECT_EQ(first.total_symbols(), joint.total_symbols());
}

TEST(PstMergeTest, MergePreservesQueries) {
  Pst a(3, Opts(4, 2)), b(3, Opts(4, 2)), joint(3, Opts(4, 2));
  Symbols ta = RandomText(120, 3, 3), tb = RandomText(120, 3, 4);
  a.InsertSequence(ta);
  b.InsertSequence(tb);
  joint.InsertSequence(ta);
  joint.InsertSequence(tb);
  ASSERT_TRUE(a.MergeFrom(b).ok());
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    Symbols ctx(rng.Uniform(5));
    for (auto& s : ctx) s = static_cast<SymbolId>(rng.Uniform(3));
    SymbolId next = static_cast<SymbolId>(rng.Uniform(3));
    EXPECT_DOUBLE_EQ(a.ConditionalProbability(ctx, next),
                     joint.ConditionalProbability(ctx, next));
  }
}

TEST(PstMergeTest, SelfMergeDoublesCounts) {
  // The source's lists are read from the pools the merge writes to.
  Symbols text = RandomText(400, 20, 12);
  Pst a(20, Opts(6, 2));
  a.InsertSequence(text);
  Pst twice(20, Opts(6, 2));
  twice.InsertSequence(text);
  twice.InsertSequence(text);
  const size_t nodes = a.NumNodes();
  const size_t bytes = a.ApproxMemoryBytes();
  ASSERT_TRUE(a.MergeFrom(a).ok());
  EXPECT_EQ(a.NumNodes(), nodes);
  EXPECT_EQ(a.ApproxMemoryBytes(), bytes);
  std::map<Symbols, uint64_t> expect, got;
  CollectCounts(twice, kPstRoot, &expect);
  CollectCounts(a, kPstRoot, &got);
  EXPECT_EQ(expect, got);
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    Symbols ctx(rng.Uniform(7));
    for (auto& s : ctx) s = static_cast<SymbolId>(rng.Uniform(20));
    const PstNodeId x = a.DeepestExistingNode(ctx);
    const PstNodeId y = twice.DeepestExistingNode(ctx);
    ASSERT_EQ(a.NodeLabel(x), twice.NodeLabel(y));
    for (SymbolId s = 0; s < 20; ++s) {
      EXPECT_EQ(a.NextCount(x, s), twice.NextCount(y, s));
    }
  }
}

TEST(PstMergeTest, AlphabetMismatchRejected) {
  Pst a(3, Opts(4, 2)), b(4, Opts(4, 2));
  EXPECT_TRUE(a.MergeFrom(b).IsInvalidArgument());
}

TEST(PstMergeTest, MergeIntoEmptyCopies) {
  Pst a(3, Opts(4, 2)), b(3, Opts(4, 2));
  b.InsertSequence(RandomText(80, 3, 6));
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.total_symbols(), b.total_symbols());
  EXPECT_EQ(a.NumNodes(), b.NumNodes());
}

TEST(PstMergeTest, MergeEmptyIsNoop) {
  Pst a(3, Opts(4, 2)), empty(3, Opts(4, 2));
  a.InsertSequence(RandomText(80, 3, 7));
  size_t nodes = a.NumNodes();
  uint64_t total = a.total_symbols();
  ASSERT_TRUE(a.MergeFrom(empty).ok());
  EXPECT_EQ(a.NumNodes(), nodes);
  EXPECT_EQ(a.total_symbols(), total);
}

TEST(PstMergeTest, DeeperSourceClampedToOwnDepth) {
  Pst shallow(3, Opts(2, 1));
  Pst deep(3, Opts(6, 1));
  deep.InsertSequence(RandomText(100, 3, 8));
  ASSERT_TRUE(shallow.MergeFrom(deep).ok());
  EXPECT_LE(shallow.Stats().max_depth, 2u);
}

TEST(PstMergeTest, RespectsMemoryBudget) {
  PstOptions budgeted = Opts(8, 2);
  budgeted.max_memory_bytes = 16 * 1024;
  Pst a(4, budgeted);
  Pst b(4, Opts(8, 2));
  b.InsertSequence(RandomText(3000, 4, 9));
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_LE(a.ApproxMemoryBytes(), size_t{16} * 1024);
}

TEST(PstStatsTest, NodesPerDepthSumsToNodeCount) {
  Pst pst(4, Opts(5, 2));
  pst.InsertSequence(RandomText(200, 4, 10));
  PstStats stats = pst.Stats();
  size_t sum = 0;
  for (size_t n : stats.nodes_per_depth) sum += n;
  EXPECT_EQ(sum, stats.num_nodes);
  ASSERT_FALSE(stats.nodes_per_depth.empty());
  EXPECT_EQ(stats.nodes_per_depth[0], 1u);  // The root.
  EXPECT_EQ(stats.nodes_per_depth.size(), stats.max_depth + 1);
}

TEST(PstTopContextsTest, OrderedByCount) {
  // "ababab...": context "a" and "b" dominate.
  Symbols text;
  for (int i = 0; i < 100; ++i) text.push_back(static_cast<SymbolId>(i % 2));
  Pst pst(2, Opts(4, 1));
  pst.InsertSequence(text);
  auto top = pst.TopContexts(5);
  ASSERT_GE(top.size(), 2u);
  EXPECT_GE(top[0].count, top[1].count);
  EXPECT_EQ(top[0].context.size(), 1u);  // Shortest contexts rank first.
  // In abab..., 'a' is always followed by 'b'.
  for (const auto& info : top) {
    if (info.context == Symbols{0}) {
      EXPECT_EQ(info.most_likely_next, 1u);
      EXPECT_DOUBLE_EQ(info.most_likely_probability, 1.0);
    }
  }
}

TEST(PstTopContextsTest, LimitRespected) {
  Pst pst(4, Opts(5, 1));
  pst.InsertSequence(RandomText(300, 4, 11));
  EXPECT_LE(pst.TopContexts(3).size(), 3u);
  EXPECT_TRUE(Pst(4, Opts(5, 1)).TopContexts(3).empty());
}

}  // namespace
}  // namespace cluseq
