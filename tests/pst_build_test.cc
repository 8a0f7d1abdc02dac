// Oracle for Pst::Build: the bulk build must produce exactly the tree that
// Clear() followed by InsertSequence of each segment in order produces —
// node ids, parents, edges, depths, counts, child and next lists,
// NumNodes() and ApproxMemoryBytes() — whatever the thread count, and move
// the insertion counters by the same amounts.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "pst/pst.h"
#include "pst_digest.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using pst_test::CheckedHash;
using pst_test::Symbols;
using pst_test::Text;

constexpr size_t kThreadCounts[] = {1, 2, 4, 7};

PstOptions Opts(size_t depth) {
  PstOptions o;
  o.max_depth = depth;
  o.significance_threshold = 3;
  o.smoothing_p_min = 0.0;
  return o;
}

// `count` texts of lengths 0..2*mean-1 (so some are empty or shorter than
// the depth).
std::vector<Symbols> Texts(size_t count, size_t mean, size_t alphabet,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<Symbols> texts;
  for (size_t k = 0; k < count; ++k) {
    texts.push_back(Text(rng.Uniform(2 * mean), alphabet, seed * 1000 + k));
  }
  return texts;
}

std::vector<std::span<const SymbolId>> Spans(const std::vector<Symbols>& v) {
  return {v.begin(), v.end()};
}

Pst Looped(size_t alphabet, const PstOptions& options,
           const std::vector<Symbols>& segments) {
  Pst pst(alphabet, options);
  for (const Symbols& s : segments) pst.InsertSequence(s);
  return pst;
}

Pst Built(size_t alphabet, const PstOptions& options,
          const std::vector<Symbols>& segments, size_t threads) {
  Pst pst(alphabet, options);
  pst.Build(Spans(segments), threads);
  return pst;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Get().GetCounter(name).Value();
}

class PstBuildTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t alphabet() const { return std::get<0>(GetParam()); }
  size_t depth() const { return std::get<1>(GetParam()); }
};

TEST_P(PstBuildTest, MatchesTheInsertionLoop) {
  // Many short segments: contexts often end at a segment start, which
  // moves positions ahead of a range's creator when it is partitioned.
  const auto texts = Texts(150, 40, alphabet(), 11);
  const uint64_t expect = CheckedHash(Looped(alphabet(), Opts(depth()), texts));
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EXPECT_EQ(CheckedHash(Built(alphabet(), Opts(depth()), texts, threads)),
              expect)
        << threads << " threads";
  }
}

TEST_P(PstBuildTest, OnANonEmptyTreeReplacesItsContents) {
  const auto before = Texts(5, 300, alphabet(), 12);
  const auto texts = Texts(20, 300, alphabet(), 13);
  Pst pst = Looped(alphabet(), Opts(depth()), before);
  pst.Build(Spans(texts), 4);
  EXPECT_EQ(CheckedHash(pst),
            CheckedHash(Looped(alphabet(), Opts(depth()), texts)));
}

TEST_P(PstBuildTest, LaterInsertsAndPrunesMatchTheLoop) {
  // The join absorbs into a built tree, and a budget prunes it: both must
  // see the same tree (and the same list blocks invariant) as after the
  // loop.
  const auto texts = Texts(20, 300, alphabet(), 14);
  const auto more = Texts(6, 300, alphabet(), 15);
  Pst looped = Looped(alphabet(), Opts(depth()), texts);
  Pst built = Built(alphabet(), Opts(depth()), texts, 4);
  for (Pst* pst : {&looped, &built}) {
    for (size_t k = 0; k < 3; ++k) pst->InsertSequence(more[k]);
    pst->PruneToBudget(pst->ApproxMemoryBytes() / 2);
    for (size_t k = 3; k < more.size(); ++k) pst->InsertSequence(more[k]);
  }
  EXPECT_EQ(CheckedHash(built), CheckedHash(looped));
}

TEST_P(PstBuildTest, BudgetedTreeMatchesTheLoop) {
  const auto texts = Texts(20, 300, alphabet(), 16);
  PstOptions o = Opts(depth());
  o.max_memory_bytes = Looped(alphabet(), o, texts).ApproxMemoryBytes() / 2;
  o.prune_strategy = PruneStrategy::kExpectedVectorFirst;
  const Pst looped = Looped(alphabet(), o, texts);
  EXPECT_LE(looped.ApproxMemoryBytes(), o.max_memory_bytes);
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Built(alphabet(), o, texts, threads)),
              CheckedHash(looped))
        << threads << " threads";
  }
}

TEST(PstBuildEdgeTest, EveryThreadCountMatchesTheLoop) {
  // Enough positions that Build fans out across workers.
  const auto texts = Texts(120, 300, 20, 21);
  const uint64_t expect = CheckedHash(Looped(20, Opts(12), texts));
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Built(20, Opts(12), texts, threads)), expect)
        << threads << " threads";
  }
}

TEST(PstBuildEdgeTest, EmptySegmentList) {
  Pst pst = Looped(20, Opts(6), Texts(3, 300, 20, 22));
  pst.Build({}, 4);
  EXPECT_EQ(pst.NumNodes(), 1u);
  EXPECT_EQ(CheckedHash(pst), CheckedHash(Pst(20, Opts(6))));
}

TEST(PstBuildEdgeTest, EmptyAndLengthOneSegments) {
  const std::vector<Symbols> texts = {{}, {4}, {}, {4, 7}, {7}, {}, {0}};
  for (size_t depth : {1, 3}) {
    for (size_t threads : kThreadCounts) {
      EXPECT_EQ(CheckedHash(Built(20, Opts(depth), texts, threads)),
                CheckedHash(Looped(20, Opts(depth), texts)))
          << depth << "/" << threads;
    }
  }
}

TEST(PstBuildEdgeTest, SegmentsShorterThanTheDepth) {
  Rng rng(23);
  std::vector<Symbols> texts;
  for (size_t k = 0; k < 200; ++k) {
    texts.push_back(Text(1 + rng.Uniform(11), 5, 100 + k));
  }
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Built(5, Opts(12), texts, threads)),
              CheckedHash(Looped(5, Opts(12), texts)))
        << threads << " threads";
  }
}

TEST(PstBuildEdgeTest, OneRepeatedSymbolIsOneDeepChain) {
  const std::vector<Symbols> texts = {Symbols(20000, 3), Symbols(5, 3),
                                      Symbols(40, 1)};
  const Pst looped = Looped(4, Opts(12), texts);
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Built(4, Opts(12), texts, threads)),
              CheckedHash(looped))
        << threads << " threads";
  }
}

TEST(PstBuildEdgeTest, CountersMoveAsUnderTheLoop) {
  const auto texts = Texts(60, 300, 20, 24);
  const uint64_t symbols0 = CounterValue("pst.insert_symbols");
  const uint64_t nodes0 = CounterValue("pst.nodes_created");
  const Pst looped = Looped(20, Opts(6), texts);
  const uint64_t symbols1 = CounterValue("pst.insert_symbols");
  const uint64_t nodes1 = CounterValue("pst.nodes_created");
  const Pst built = Built(20, Opts(6), texts, 4);
  EXPECT_EQ(CounterValue("pst.insert_symbols") - symbols1,
            symbols1 - symbols0);
  EXPECT_EQ(CounterValue("pst.nodes_created") - nodes1, nodes1 - nodes0);
  EXPECT_EQ(nodes1 - nodes0, looped.NumNodes() - 1);
  EXPECT_EQ(built.total_symbols(), symbols1 - symbols0);
}

TEST(PstBuildEdgeTest, ReservesNoMoreThanTheLoop) {
  // One block per list, sized exactly: no grown-out blocks on free lists.
  const auto texts = Texts(60, 300, 20, 25);
  EXPECT_LE(Built(20, Opts(12), texts, 4).ArenaBytes(),
            Looped(20, Opts(12), texts).ArenaBytes());
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsAndDepths, PstBuildTest,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{20}, size_t{200}),
                       ::testing::Values(size_t{3}, size_t{6}, size_t{12})),
    [](const auto& info) {
      return "A" + std::to_string(std::get<0>(info.param)) + "D" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cluseq
