// Oracle for FrozenPst::Compile: the snapshot compiled straight from a list
// of segments must equal, byte for byte, FrozenPst(tree, background) for
// the tree that the insertion loop builds from the same segments in order
// — the same states and depths, transition and log-ratio tables and
// derived maxima — whatever the thread count.

#include "pst/frozen_pst.h"

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "frozen_pst_equal.h"
#include "obs/metrics.h"
#include "pst/pst.h"
#include "pst_digest.h"
#include "seq/background_model.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using pst_test::ExpectSameSnapshot;
using pst_test::RandomBackground;
using pst_test::Symbols;
using pst_test::Text;

constexpr size_t kThreadCounts[] = {1, 2, 4, 7};

PstOptions Opts(size_t depth, uint64_t c, double p_min = 1e-4) {
  PstOptions o;
  o.max_depth = depth;
  o.significance_threshold = c;
  o.smoothing_p_min = p_min;
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

FrozenPst Frozen(size_t alphabet, const PstOptions& options,
                 const std::vector<Symbols>& segments,
                 const BackgroundModel& background) {
  Pst pst(alphabet, options);
  for (const Symbols& s : segments) pst.InsertSequence(s);
  return FrozenPst(pst, background);
}

FrozenPst Compiled(size_t alphabet, const PstOptions& options,
                   const std::vector<Symbols>& segments,
                   const BackgroundModel& background, size_t threads) {
  return FrozenPst::Compile(Spans(segments), alphabet, options, background,
                            threads);
}

class FrozenPstCompileTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
 protected:
  size_t alphabet() const { return std::get<0>(GetParam()); }
  size_t depth() const { return std::get<1>(GetParam()); }
  uint64_t c() const { return std::get<2>(GetParam()); }
};

TEST_P(FrozenPstCompileTest, MatchesTheFrozenLoopTree) {
  // Many short segments (contexts often end at a segment start), plus
  // empty, length-1 and shorter-than-the-depth ones.
  std::vector<Symbols> texts = Texts(150, 40, alphabet(), 11);
  texts.push_back({});
  texts.push_back({0});
  texts.push_back(Symbols(depth() > 1 ? depth() - 1 : 1, 1 % alphabet()));
  const BackgroundModel background = RandomBackground(alphabet(), 12);
  const PstOptions o = Opts(depth(), c());
  const FrozenPst want = Frozen(alphabet(), o, texts, background);
  for (size_t threads : kThreadCounts) {
    ExpectSameSnapshot(Compiled(alphabet(), o, texts, background, threads),
                       want, std::to_string(threads) + " threads");
  }
}

TEST_P(FrozenPstCompileTest, MatchesWithSmoothingOff) {
  // Raw probabilities: a symbol a context never precedes gets -inf.
  const auto texts = Texts(40, 200, alphabet(), 13);
  const BackgroundModel background = RandomBackground(alphabet(), 14);
  const PstOptions o = Opts(depth(), c(), /*p_min=*/0.0);
  const FrozenPst want = Frozen(alphabet(), o, texts, background);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExpectSameSnapshot(Compiled(alphabet(), o, texts, background, threads),
                       want, std::to_string(threads) + " threads");
  }
}

TEST(FrozenPstCompileEdgeTest, EveryThreadCountOnALargeText) {
  // Enough positions that the compiler fans out across workers.
  const auto texts = Texts(120, 300, 20, 21);
  const BackgroundModel background = RandomBackground(20, 22);
  for (uint64_t c : {1, 5, 30}) {
    const FrozenPst want = Frozen(20, Opts(12, c), texts, background);
    for (size_t threads : kThreadCounts) {
      ExpectSameSnapshot(
          Compiled(20, Opts(12, c), texts, background, threads), want,
          "c=" + std::to_string(c) + ", " + std::to_string(threads) +
              " threads");
    }
  }
}

TEST(FrozenPstCompileEdgeTest, NoSegmentsAndOnlyEmptySegments) {
  const BackgroundModel background = RandomBackground(20, 23);
  for (const std::vector<Symbols>& texts :
       {std::vector<Symbols>{}, std::vector<Symbols>{{}, {}}}) {
    for (size_t threads : kThreadCounts) {
      const FrozenPst got = Compiled(20, Opts(6, 5), texts, background,
                                     threads);
      EXPECT_EQ(got.num_states(), 1u);
      ExpectSameSnapshot(got, Frozen(20, Opts(6, 5), texts, background),
                         std::to_string(threads) + " threads");
    }
  }
}

TEST(FrozenPstCompileEdgeTest, EmptyAndLengthOneSegments) {
  const std::vector<Symbols> texts = {{}, {4}, {}, {4, 7}, {7}, {}, {0}};
  const BackgroundModel background = RandomBackground(20, 24);
  for (size_t depth : {1, 3}) {
    for (uint64_t c : {1, 2}) {
      for (size_t threads : kThreadCounts) {
        ExpectSameSnapshot(
            Compiled(20, Opts(depth, c), texts, background, threads),
            Frozen(20, Opts(depth, c), texts, background),
            std::to_string(depth) + "/" + std::to_string(c) + "/" +
                std::to_string(threads));
      }
    }
  }
}

TEST(FrozenPstCompileEdgeTest, SegmentsShorterThanTheDepth) {
  Rng rng(25);
  std::vector<Symbols> texts;
  for (size_t k = 0; k < 200; ++k) {
    texts.push_back(Text(1 + rng.Uniform(11), 5, 100 + k));
  }
  const BackgroundModel background = RandomBackground(5, 26);
  for (uint64_t c : {1, 5, 30}) {
    for (size_t threads : kThreadCounts) {
      ExpectSameSnapshot(
          Compiled(5, Opts(12, c), texts, background, threads),
          Frozen(5, Opts(12, c), texts, background),
          std::to_string(c) + "/" + std::to_string(threads));
    }
  }
}

TEST(FrozenPstCompileEdgeTest, OneRepeatedSymbolIsOneDeepChain) {
  const std::vector<Symbols> texts = {Symbols(20000, 3), Symbols(5, 3),
                                      Symbols(40, 1)};
  const BackgroundModel background = RandomBackground(4, 27);
  const FrozenPst want = Frozen(4, Opts(12, 30), texts, background);
  // The root, 3^1..3^12, and 1^1..1^10 (1^d counts 40 - d positions).
  EXPECT_EQ(want.num_states(), 23u);
  for (size_t threads : kThreadCounts) {
    ExpectSameSnapshot(Compiled(4, Opts(12, 30), texts, background, threads),
                       want, std::to_string(threads) + " threads");
  }
}

TEST(FrozenPstCompileEdgeTest, BudgetAndForeignSymbolsTakeTheTree) {
  // Under a memory budget the snapshot is the pruned tree's, closure
  // states included; a symbol outside the alphabet cannot be partitioned.
  const auto texts = Texts(20, 300, 20, 28);
  const BackgroundModel background = RandomBackground(20, 29);
  PstOptions o = Opts(6, 3);
  o.max_memory_bytes = [&] {
    Pst pst(20, o);
    for (const Symbols& s : texts) pst.InsertSequence(s);
    return pst.ApproxMemoryBytes() / 3;
  }();
  ExpectSameSnapshot(Compiled(20, o, texts, background, 4),
                     Frozen(20, o, texts, background), "budget");
  std::vector<Symbols> foreign = Texts(20, 100, 20, 30);
  foreign[3].push_back(25);
  ExpectSameSnapshot(Compiled(20, Opts(6, 3), foreign, background, 4),
                     Frozen(20, Opts(6, 3), foreign, background), "foreign");
}

TEST(FrozenPstCompileEdgeTest, CountsOneFreezePerSnapshot) {
  obs::Counter& freezes =
      obs::MetricsRegistry::Get().GetCounter("frozen_pst.freezes");
  obs::Counter& states =
      obs::MetricsRegistry::Get().GetCounter("frozen_pst.states");
  const auto texts = Texts(20, 100, 20, 31);
  const BackgroundModel background = RandomBackground(20, 32);
  const uint64_t freezes0 = freezes.Value();
  const uint64_t states0 = states.Value();
  const FrozenPst got = Compiled(20, Opts(6, 5), texts, background, 4);
  EXPECT_EQ(freezes.Value() - freezes0, 1u);
  EXPECT_EQ(states.Value() - states0, got.num_states());
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsDepthsAndThresholds, FrozenPstCompileTest,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{20}, size_t{200}),
                       ::testing::Values(size_t{3}, size_t{6}, size_t{12}),
                       ::testing::Values(uint64_t{1}, uint64_t{5},
                                         uint64_t{30})),
    [](const auto& info) {
      return "A" + std::to_string(std::get<0>(info.param)) + "D" +
             std::to_string(std::get<1>(info.param)) + "C" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace cluseq
