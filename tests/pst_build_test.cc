// Oracle for the bulk path: Pst::InsertSequences must extend any tree to
// exactly the tree that InsertSequence of each segment in order produces,
// and Pst::Build must produce what Clear() followed by those inserts does —
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

// `base` extended by `batch` through the bulk path.
Pst Extended(Pst base, const std::vector<Symbols>& batch, size_t threads) {
  base.InsertSequences(Spans(batch), threads);
  return base;
}

// `base` extended by `batch` through the insertion loop.
Pst ExtendedByTheLoop(Pst base, const std::vector<Symbols>& batch) {
  for (const Symbols& s : batch) base.InsertSequence(s);
  return base;
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

TEST_P(PstBuildTest, InsertSequencesExtendsEveryTreeLikeTheLoop) {
  // Trees made by the loop, by Build and by an earlier bulk insert, each
  // extended by a batch of short segments (new contexts at every depth,
  // lists that grow past their blocks, contexts that end at a segment
  // start).
  const PstOptions o = Opts(depth());
  const auto first = Texts(40, 60, alphabet(), 31);
  const auto second = Texts(30, 60, alphabet(), 32);
  const auto batch = Texts(60, 40, alphabet(), 33);
  const Pst looped = ExtendedByTheLoop(Looped(alphabet(), o, first), second);
  const uint64_t expect = CheckedHash(ExtendedByTheLoop(looped, batch));
  const Pst built = [&] {
    std::vector<Symbols> both = first;
    both.insert(both.end(), second.begin(), second.end());
    return Built(alphabet(), o, both, 4);
  }();
  const Pst bulk = Extended(Built(alphabet(), o, first, 4), second, 4);
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Extended(looped, batch, threads)), expect)
        << "loop-made tree, " << threads << " threads";
    EXPECT_EQ(CheckedHash(Extended(built, batch, threads)), expect)
        << "built tree, " << threads << " threads";
    EXPECT_EQ(CheckedHash(Extended(bulk, batch, threads)), expect)
        << "bulk-extended tree, " << threads << " threads";
  }
}

TEST_P(PstBuildTest, LaterInsertsAndPrunesAfterABulkInsertMatchTheLoop) {
  // Lists that moved to fresh blocks leave their old blocks on the free
  // lists; later inserts, prunes and the loop's fallback after pruning
  // (free node ids) must see the loop's tree.
  const PstOptions o = Opts(depth());
  const auto base = Texts(10, 200, alphabet(), 34);
  const auto batch = Texts(10, 200, alphabet(), 35);
  const auto more = Texts(6, 200, alphabet(), 36);
  Pst looped = ExtendedByTheLoop(Looped(alphabet(), o, base), batch);
  Pst bulk = Extended(Looped(alphabet(), o, base), batch, 4);
  EXPECT_EQ(CheckedHash(bulk), CheckedHash(looped));
  looped.InsertSequence(more[0]);
  bulk.InsertSequence(more[0]);
  looped.PruneToBudget(looped.ApproxMemoryBytes() / 2);
  bulk.PruneToBudget(bulk.ApproxMemoryBytes() / 2);
  EXPECT_EQ(CheckedHash(bulk), CheckedHash(looped));
  const std::vector<Symbols> rest(more.begin() + 1, more.end());
  EXPECT_EQ(CheckedHash(Extended(bulk, rest, 4)),
            CheckedHash(ExtendedByTheLoop(looped, rest)));
}

TEST_P(PstBuildTest, BudgetedTreeExtendsLikeTheLoop) {
  const auto base = Texts(10, 300, alphabet(), 37);
  const auto batch = Texts(10, 300, alphabet(), 38);
  PstOptions o = Opts(depth());
  o.max_memory_bytes = Looped(alphabet(), o, base).ApproxMemoryBytes() / 2;
  const Pst looped = Looped(alphabet(), o, base);
  const uint64_t expect = CheckedHash(ExtendedByTheLoop(looped, batch));
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Extended(looped, batch, threads)), expect)
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

TEST(PstBuildInsertTest, EveryThreadCountExtendsLikeTheLoop) {
  // Enough new positions that the bulk insert fans out across workers.
  const auto base = Texts(60, 300, 20, 41);
  const auto batch = Texts(120, 300, 20, 42);
  const Pst looped = Looped(20, Opts(12), base);
  const uint64_t expect = CheckedHash(ExtendedByTheLoop(looped, batch));
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Extended(looped, batch, threads)), expect)
        << threads << " threads";
  }
}

TEST(PstBuildInsertTest, EmptyBatchChangesNothing) {
  const Pst looped = Looped(20, Opts(6), Texts(3, 300, 20, 43));
  const uint64_t symbols0 = CounterValue("pst.insert_symbols");
  const uint64_t nodes0 = CounterValue("pst.nodes_created");
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Extended(looped, {}, threads)), CheckedHash(looped));
    EXPECT_EQ(CheckedHash(Extended(looped, {{}, {}}, threads)),
              CheckedHash(looped));
  }
  EXPECT_EQ(CounterValue("pst.insert_symbols"), symbols0);
  EXPECT_EQ(CounterValue("pst.nodes_created"), nodes0);
}

TEST(PstBuildInsertTest, EmptyAndLengthOneSegments) {
  const std::vector<Symbols> base = {{4, 7, 4}, {}, {0}};
  const std::vector<Symbols> batch = {{}, {4}, {}, {4, 7}, {7}, {9}, {}, {0}};
  for (size_t depth : {1, 3}) {
    const Pst looped = Looped(20, Opts(depth), base);
    for (size_t threads : kThreadCounts) {
      EXPECT_EQ(CheckedHash(Extended(looped, batch, threads)),
                CheckedHash(ExtendedByTheLoop(looped, batch)))
          << depth << "/" << threads;
    }
  }
}

TEST(PstBuildInsertTest, NewDepthOneChildren) {
  // The tree has seen symbols 0..4 only; the batch brings 5..9, so the root
  // gains children and next symbols between and after its existing ones.
  const auto low = Texts(20, 300, 5, 44);
  std::vector<Symbols> batch = Texts(20, 300, 10, 45);
  batch.push_back(Symbols(50, 9));
  const Pst looped = Looped(10, Opts(6), low);
  const Pst expect = ExtendedByTheLoop(looped, batch);
  EXPECT_GT(expect.Children(kPstRoot).size(), looped.Children(kPstRoot).size());
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Extended(looped, batch, threads)),
              CheckedHash(expect))
        << threads << " threads";
  }
}

TEST(PstBuildInsertTest, ListsCrossingAPowerOfTwo) {
  // Every list of the base tree holds 4 of the 8 symbols (a full block);
  // the batches add one, then three, then four more symbols, so lists move
  // to blocks of 8 and 16 and leave their old blocks behind.
  const std::vector<Symbols> base = {Text(400, 4, 46)};
  std::vector<Symbols> batch = {Text(300, 5, 47)};
  Pst looped = Looped(16, Opts(4), base);
  Pst bulk = looped;
  for (size_t symbols : {5, 8, 16}) {
    batch = {Text(300, symbols, 47 + symbols), Text(50, symbols, 48)};
    looped = ExtendedByTheLoop(looped, batch);
    bulk = Extended(bulk, batch, 4);
    EXPECT_EQ(CheckedHash(bulk), CheckedHash(looped)) << symbols << " symbols";
  }
  // The moved-out blocks are on the free lists, so the loop reuses them.
  EXPECT_EQ(CheckedHash(ExtendedByTheLoop(bulk, base)),
            CheckedHash(ExtendedByTheLoop(looped, base)));
}

TEST(PstBuildInsertTest, SegmentsShorterThanTheDepth) {
  Rng rng(49);
  std::vector<Symbols> base;
  std::vector<Symbols> batch;
  for (size_t k = 0; k < 200; ++k) {
    (k % 2 == 0 ? base : batch)
        .push_back(Text(1 + rng.Uniform(11), 5, 200 + k));
  }
  const Pst looped = Looped(5, Opts(12), base);
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CheckedHash(Extended(looped, batch, threads)),
              CheckedHash(ExtendedByTheLoop(looped, batch)))
        << threads << " threads";
  }
}

TEST(PstBuildInsertTest, CountersMoveAsUnderTheLoop) {
  const Pst base = Looped(20, Opts(6), Texts(30, 300, 20, 50));
  const auto batch = Texts(60, 300, 20, 51);
  const uint64_t symbols0 = CounterValue("pst.insert_symbols");
  const uint64_t nodes0 = CounterValue("pst.nodes_created");
  const Pst looped = ExtendedByTheLoop(base, batch);
  const uint64_t symbols1 = CounterValue("pst.insert_symbols");
  const uint64_t nodes1 = CounterValue("pst.nodes_created");
  const Pst bulk = Extended(base, batch, 4);
  EXPECT_EQ(CounterValue("pst.insert_symbols") - symbols1,
            symbols1 - symbols0);
  EXPECT_EQ(CounterValue("pst.nodes_created") - nodes1, nodes1 - nodes0);
  EXPECT_EQ(nodes1 - nodes0, looped.NumNodes() - base.NumNodes());
  EXPECT_EQ(bulk.total_symbols() - base.total_symbols(), symbols1 - symbols0);
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
