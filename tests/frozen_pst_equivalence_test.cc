// Property tests: FrozenPst scoring must match live-Pst scoring bit-for-bit
// — identical log SIM, identical maximizing segment, and identical
// per-position conditional log ratios for *every* alphabet symbol at every
// prefix — across randomized alphabets, depths, significance thresholds,
// smoothing on/off (including the -inf paths), post-PruneToBudget trees
// (which exercise the closure states), and merged trees. Also pins the
// compiled state set: one state per significant context plus the closure.

#include "pst/frozen_pst.h"

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "seq/background_model.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using Symbols = std::vector<SymbolId>;

Symbols RandomText(size_t len, size_t alphabet, Rng* rng) {
  Symbols text(len);
  for (auto& s : text) s = static_cast<SymbolId>(rng->Uniform(alphabet));
  return text;
}

BackgroundModel SkewedBackground(size_t alphabet, Rng* rng) {
  std::vector<uint64_t> counts(alphabet);
  for (auto& c : counts) c = 1 + rng->Uniform(500);
  return BackgroundModel::FromCounts(counts);
}

// Every live node, root first, breadth-first. With `significant_only`, the
// walk stops at insignificant nodes: what remains is the root plus the
// nodes whose whole suffix chain is significant.
std::vector<PstNodeId> LiveNodes(const Pst& pst, bool significant_only) {
  std::vector<PstNodeId> nodes = {kPstRoot};
  for (size_t head = 0; head < nodes.size(); ++head) {
    for (const auto& [symbol, child] : pst.Children(nodes[head])) {
      if (!significant_only || pst.IsSignificant(child)) {
        nodes.push_back(child);
      }
    }
  }
  return nodes;
}

// Size of the smallest label set that contains the significant contexts
// and is closed under dropping the oldest and the newest symbol: every
// contiguous substring of a significant context (the empty one included).
size_t ClosedLabelCount(const Pst& pst) {
  std::set<Symbols> labels;
  for (PstNodeId id : LiveNodes(pst, /*significant_only=*/true)) {
    const Symbols label = pst.NodeLabel(id);
    for (size_t b = 0; b <= label.size(); ++b) {
      for (size_t e = b; e <= label.size(); ++e) {
        labels.emplace(label.begin() + static_cast<ptrdiff_t>(b),
                       label.begin() + static_cast<ptrdiff_t>(e));
      }
    }
  }
  return labels.size();
}

// Exhaustive check: walking the automaton over `query` must reproduce the
// live prediction-node lookup for every (prefix, next symbol) pair, and the
// similarity DP must agree exactly on score and segment.
void ExpectEquivalent(const Pst& pst, const BackgroundModel& background,
                      const Symbols& query) {
  FrozenPst frozen(pst, background);
  ASSERT_EQ(frozen.alphabet_size(), pst.alphabet_size());
  ASSERT_GE(frozen.num_states(), 1u);

  std::span<const SymbolId> span(query);
  FrozenPst::State state = FrozenPst::kRootState;
  for (size_t i = 0; i < query.size(); ++i) {
    for (SymbolId a = 0; a < pst.alphabet_size(); ++a) {
      const double live =
          pst.LogConditionalProbability(span.subspan(0, i), a) -
          background.LogProbability(a);
      const double compiled = frozen.LogRatio(state, a);
      // Bit-for-bit: same double ops in the same order (== handles -inf).
      EXPECT_EQ(live, compiled)
          << "prefix " << i << " symbol " << a << " state " << state;
    }
    state = frozen.Step(state, query[i]);
    EXPECT_LE(frozen.StateDepth(state), pst.options().max_depth);
  }

  SimilarityResult live = ComputeSimilarity(pst, background, span);
  SimilarityResult fast = ComputeSimilarity(frozen, span);
  EXPECT_EQ(live.log_sim, fast.log_sim);
  EXPECT_EQ(live.best_begin, fast.best_begin);
  EXPECT_EQ(live.best_end, fast.best_end);
}

TEST(FrozenPstEquivalenceTest, RandomizedAlphabetsAndDepths) {
  Rng rng(1234);
  const size_t alphabets[] = {2, 4, 8, 20};
  const size_t depths[] = {1, 3, 6, 12};
  for (size_t alphabet : alphabets) {
    for (size_t depth : depths) {
      PstOptions options;
      options.max_depth = depth;
      options.significance_threshold = 1 + rng.Uniform(6);
      options.smoothing_p_min = 1e-4;
      Pst pst(alphabet, options);
      pst.InsertSequence(RandomText(400, alphabet, &rng));
      pst.InsertSequence(RandomText(200, alphabet, &rng));
      BackgroundModel background = SkewedBackground(alphabet, &rng);
      ExpectEquivalent(pst, background, RandomText(120, alphabet, &rng));
      // Queries longer than any training sequence still agree.
      ExpectEquivalent(pst, background, RandomText(700, alphabet, &rng));
    }
  }
}

TEST(FrozenPstEquivalenceTest, SmoothingOffPropagatesNegInf) {
  Rng rng(99);
  PstOptions options;
  options.max_depth = 4;
  options.significance_threshold = 2;
  options.smoothing_p_min = 0.0;  // Unseen symbols have probability zero.
  Pst pst(6, options);
  // Train on a restricted sub-alphabet so queries hit genuinely unseen
  // symbols and the -inf path is exercised end to end.
  pst.InsertSequence(RandomText(300, 3, &rng));
  BackgroundModel background = SkewedBackground(6, &rng);
  Symbols query = RandomText(90, 6, &rng);
  SimilarityResult live = ComputeSimilarity(pst, background, query);
  ASSERT_TRUE(std::isfinite(live.log_sim));  // Some segment avoids -inf.
  ExpectEquivalent(pst, background, query);
}

TEST(FrozenPstEquivalenceTest, EmptyAndTinyTrees) {
  Rng rng(7);
  PstOptions options;
  options.max_depth = 5;
  Pst empty(4, options);  // Root only; everything falls back to uniform.
  BackgroundModel background = SkewedBackground(4, &rng);
  ExpectEquivalent(empty, background, RandomText(40, 4, &rng));

  Pst tiny(4, options);
  tiny.InsertSequence(Symbols{0, 1, 2, 3});
  ExpectEquivalent(tiny, background, RandomText(40, 4, &rng));
  ExpectEquivalent(tiny, background, Symbols{});
}

TEST(FrozenPstEquivalenceTest, PrunedTreesNeedClosureStates) {
  // PruneToBudget removes leaves, which can leave context "xa" in the tree
  // with "x"'s own node gone — the case where the automaton must route
  // through count-less closure states to stay exact.
  Rng rng(4242);
  for (uint64_t trial = 0; trial < 6; ++trial) {
    PstOptions options;
    options.max_depth = 6;
    options.significance_threshold = 2 + rng.Uniform(4);
    options.smoothing_p_min = trial % 2 == 0 ? 1e-4 : 0.0;
    options.prune_strategy = static_cast<PruneStrategy>(trial % 3);
    Pst pst(8, options);
    pst.InsertSequence(RandomText(600, 8, &rng));
    const size_t full = pst.ApproxMemoryBytes();
    pst.PruneToBudget(full / 3);
    ASSERT_LT(pst.ApproxMemoryBytes(), full);
    BackgroundModel background = SkewedBackground(8, &rng);
    ExpectEquivalent(pst, background, RandomText(250, 8, &rng));
  }
}

TEST(FrozenPstEquivalenceTest, MergedTrees) {
  Rng rng(17);
  PstOptions options;
  options.max_depth = 5;
  options.significance_threshold = 3;
  Pst a(10, options), b(10, options);
  a.InsertSequence(RandomText(300, 10, &rng));
  b.InsertSequence(RandomText(300, 10, &rng));
  ASSERT_TRUE(a.MergeFrom(b).ok());
  BackgroundModel background = SkewedBackground(10, &rng);
  ExpectEquivalent(a, background, RandomText(150, 10, &rng));
}

TEST(FrozenPstEquivalenceTest, StatesAreDepthMajorAndBounded) {
  Rng rng(5);
  PstOptions options;
  options.max_depth = 4;
  Pst pst(5, options);
  pst.InsertSequence(RandomText(500, 5, &rng));
  BackgroundModel background = SkewedBackground(5, &rng);
  FrozenPst frozen(pst, background);
  EXPECT_EQ(frozen.StateDepth(FrozenPst::kRootState), 0u);
  for (FrozenPst::State s = 1; s < frozen.num_states(); ++s) {
    EXPECT_GE(frozen.StateDepth(s), frozen.StateDepth(s - 1));
    EXPECT_LE(frozen.StateDepth(s), options.max_depth);
    // Transitions can deepen the context by at most one symbol.
    for (SymbolId a = 0; a < frozen.alphabet_size(); ++a) {
      FrozenPst::State t = frozen.Step(s, a);
      ASSERT_LT(t, frozen.num_states());
      EXPECT_LE(frozen.StateDepth(t), frozen.StateDepth(s) + 1);
    }
  }
  EXPECT_GT(frozen.ApproxMemoryBytes(), 0u);
}

TEST(FrozenPstStateSetTest, OneStatePerSignificantNodeInUnprunedTrees) {
  // A context's count is at most its parent's and its drop-last prefix's,
  // so in an unpruned tree the significant nodes are already closed and
  // need no closure states.
  Rng rng(808);
  const size_t alphabets[] = {2, 5, 20};
  const size_t depths[] = {2, 5, 10};
  const uint64_t thresholds[] = {1, 2, 5, 30};
  for (size_t alphabet : alphabets) {
    for (size_t depth : depths) {
      for (uint64_t c : thresholds) {
        PstOptions options;
        options.max_depth = depth;
        options.significance_threshold = c;
        Pst pst(alphabet, options);
        pst.InsertSequence(RandomText(500, alphabet, &rng));
        pst.InsertSequence(RandomText(300, alphabet, &rng));
        size_t significant = 0;
        for (PstNodeId id : LiveNodes(pst, /*significant_only=*/false)) {
          if (id != kPstRoot && pst.NodeCount(id) >= c) ++significant;
        }
        FrozenPst frozen(pst, SkewedBackground(alphabet, &rng));
        EXPECT_EQ(frozen.num_states(), 1 + significant)
            << "alphabet " << alphabet << " depth " << depth << " c " << c;
        if (c == 1) {
          // Every node is significant: one state per live node.
          EXPECT_EQ(frozen.num_states(), pst.NumNodes());
        }
      }
    }
  }
}

TEST(FrozenPstStateSetTest, PrunedAndMergedTreesAddOnlyTheClosure) {
  Rng rng(909);
  bool saw_closure = false;
  const auto check = [&](const Pst& pst, size_t alphabet) {
    const size_t tracked = LiveNodes(pst, /*significant_only=*/true).size();
    const size_t closed = ClosedLabelCount(pst);
    const BackgroundModel background = SkewedBackground(alphabet, &rng);
    FrozenPst frozen(pst, background);
    EXPECT_EQ(frozen.num_states(), closed);
    EXPECT_LE(frozen.num_states(), pst.NumNodes() + (closed - tracked));
    saw_closure = saw_closure || closed > tracked;
    ExpectEquivalent(pst, background, RandomText(200, alphabet, &rng));
  };
  for (uint64_t trial = 0; trial < 9; ++trial) {
    PstOptions options;
    options.max_depth = 4 + trial % 4;
    options.significance_threshold = 1 + trial % 4;
    options.prune_strategy = static_cast<PruneStrategy>(trial % 3);
    Pst pst(6, options);
    pst.InsertSequence(RandomText(800, 6, &rng));
    pst.PruneToBudget(pst.ApproxMemoryBytes() / 4);
    check(pst, 6);
  }
  for (uint64_t c : {uint64_t{1}, uint64_t{3}, uint64_t{8}}) {
    PstOptions options;
    options.max_depth = 6;
    options.significance_threshold = c;
    Pst a(7, options), b(7, options);
    a.InsertSequence(RandomText(400, 7, &rng));
    b.InsertSequence(RandomText(400, 7, &rng));
    b.PruneToBudget(b.ApproxMemoryBytes() / 2);
    ASSERT_TRUE(a.MergeFrom(b).ok());
    check(a, 7);
  }
  EXPECT_TRUE(saw_closure);  // Some tree above needed closure states.
}

}  // namespace
}  // namespace cluseq
