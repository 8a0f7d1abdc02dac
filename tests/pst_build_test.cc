// Oracle for Pst::Build: it must produce exactly the tree that Clear()
// followed by InsertSequence of each segment in order produces — node ids,
// parents, edges, depths, counts, child and next lists, NumNodes() and
// ApproxMemoryBytes() — whatever the thread count, and move the insertion
// counters by the same amounts.
//
// A cluster extended by a batch of newcomers must likewise hold what the
// insertion loop makes of its segments followed by the batch's: the tree
// (pst(), Build for a compiled cluster) and the snapshot, byte for byte.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "frozen_pst_equal.h"
#include "obs/metrics.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "pst_digest.h"
#include "seq/alphabet.h"
#include "seq/background_model.h"
#include "seq/sequence.h"
#include "seq/sequence_database.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using pst_test::CheckedHash;
using pst_test::ExpectSameSnapshot;
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

// `base` extended by `batch` through the insertion loop.
Pst ExtendedByTheLoop(Pst base, const std::vector<Symbols>& batch) {
  for (const Symbols& s : batch) base.InsertSequence(s);
  return base;
}

// A cluster over a store that grows with the texts it is given. A batch-mode
// cluster is compiled: its join records each newcomer's segment after the
// ones it counts, its snapshot is compiled from the whole list and pst()
// builds the tree from it. Under --pst-memory it is live and the join
// inserts each newcomer into its tree.
class ClusterOverTexts {
 public:
  ClusterOverTexts(size_t alphabet, const PstOptions& options, bool compiled)
      : db_(Alphabet::Synthetic(alphabet)),
        background_(pst_test::RandomBackground(alphabet, alphabet + 60)),
        cluster_(compiled ? Cluster(0, db_, options)
                          : Cluster(0, alphabet, options)) {}
  ClusterOverTexts(const ClusterOverTexts&) = delete;
  ClusterOverTexts& operator=(const ClusterOverTexts&) = delete;

  // The join: each text is a newcomer whose segment is all of it.
  void Absorb(const std::vector<Symbols>& texts) {
    for (const Symbols& s : texts) {
      const size_t i = db_.Add(Sequence(s));
      cluster_.AbsorbSegment(i, db_.Symbols(i), 0, s.size());
    }
  }

  // The per-iteration rebuild: the cluster counts `texts` and nothing else.
  void Rebuild(const std::vector<Symbols>& texts, size_t threads) {
    std::vector<std::pair<size_t, Cluster::Segment>> contributions;
    for (const Symbols& s : texts) {
      contributions.push_back({db_.Add(Sequence(s)), {0, s.size()}});
    }
    cluster_.Rebuild(contributions, db_, threads);
  }

  const Cluster& cluster() const { return cluster_; }
  const BackgroundModel& background() const { return background_; }

  // Expects the cluster to hold `looped`: its snapshot, at every thread
  // count, is the freeze of `looped` byte for byte; its tree hashes like
  // `looped`, and so does the tree a live cluster rebuilds from its
  // contributions at every thread count.
  void ExpectHolds(const Pst& looped, const std::string& where) const {
    const FrozenPst want(looped, background_);
    for (size_t threads : kThreadCounts) {
      ExpectSameSnapshot(*cluster_.Snapshot(background_, threads), want,
                         where + ", " + std::to_string(threads) + " threads");
    }
    const uint64_t expect = CheckedHash(looped);
    EXPECT_EQ(CheckedHash(cluster_.pst()), expect) << where;
    Cluster live(1, looped.alphabet_size(), looped.options());
    for (size_t threads : kThreadCounts) {
      live.Rebuild(cluster_.contributions(), db_, threads);
      EXPECT_EQ(CheckedHash(live.pst()), expect)
          << where << ", rebuilt on " << threads << " threads";
    }
  }

 private:
  SequenceDatabase db_;
  BackgroundModel background_;
  Cluster cluster_;
};

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
  // §4.2 joins absorb into a built tree, and a budget prunes it: both must
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
  // Clusters whose summary came from the join, from the rebuild and from
  // an earlier join after a snapshot and a tree were made of it, each
  // extended by a batch of short segments (new contexts at every depth,
  // contexts that end at a segment start).
  const PstOptions o = Opts(depth());
  const auto first = Texts(40, 60, alphabet(), 31);
  const auto second = Texts(30, 60, alphabet(), 32);
  const auto batch = Texts(60, 40, alphabet(), 33);
  const Pst looped = ExtendedByTheLoop(
      ExtendedByTheLoop(Looped(alphabet(), o, first), second), batch);
  ClusterOverTexts joined(alphabet(), o, /*compiled=*/true);
  joined.Absorb(first);
  joined.Absorb(second);
  joined.Absorb(batch);
  joined.ExpectHolds(looped, "joined");
  ClusterOverTexts rebuilt(alphabet(), o, /*compiled=*/true);
  std::vector<Symbols> both = first;
  both.insert(both.end(), second.begin(), second.end());
  rebuilt.Rebuild(both, 4);
  rebuilt.Absorb(batch);
  rebuilt.ExpectHolds(looped, "rebuilt");
  ClusterOverTexts extended(alphabet(), o, /*compiled=*/true);
  for (const auto* texts : {&first, &second}) {
    extended.Absorb(*texts);
    extended.cluster().Snapshot(extended.background(), 4);
    extended.cluster().pst();
  }
  extended.Absorb(batch);
  extended.ExpectHolds(looped, "extended");
}

TEST_P(PstBuildTest, LaterInsertsAndPrunesAfterABulkInsertMatchTheLoop) {
  // The tree a compiled cluster builds on request is a whole Pst: later
  // inserts, prunes and the loop's reuse of what pruning frees (node ids,
  // list blocks) must see the loop's tree.
  const PstOptions o = Opts(depth());
  const auto base = Texts(10, 200, alphabet(), 34);
  const auto batch = Texts(10, 200, alphabet(), 35);
  const auto more = Texts(6, 200, alphabet(), 36);
  Pst looped = ExtendedByTheLoop(Looped(alphabet(), o, base), batch);
  ClusterOverTexts cluster(alphabet(), o, /*compiled=*/true);
  cluster.Absorb(base);
  cluster.Absorb(batch);
  Pst bulk = cluster.cluster().pst();
  EXPECT_EQ(CheckedHash(bulk), CheckedHash(looped));
  looped.InsertSequence(more[0]);
  bulk.InsertSequence(more[0]);
  looped.PruneToBudget(looped.ApproxMemoryBytes() / 2);
  bulk.PruneToBudget(bulk.ApproxMemoryBytes() / 2);
  EXPECT_EQ(CheckedHash(bulk), CheckedHash(looped));
  const std::vector<Symbols> rest(more.begin() + 1, more.end());
  EXPECT_EQ(CheckedHash(ExtendedByTheLoop(bulk, rest)),
            CheckedHash(ExtendedByTheLoop(looped, rest)));
}

TEST_P(PstBuildTest, BudgetedTreeExtendsLikeTheLoop) {
  // A budget keeps the live tree (§5.1 pruning follows insertion order):
  // the rebuild builds it and the join inserts into it. A compiled cluster
  // under a budget compiles from the pruned tree.
  const auto base = Texts(10, 300, alphabet(), 37);
  const auto batch = Texts(10, 300, alphabet(), 38);
  PstOptions o = Opts(depth());
  o.max_memory_bytes = Looped(alphabet(), o, base).ApproxMemoryBytes() / 2;
  const Pst looped = ExtendedByTheLoop(Looped(alphabet(), o, base), batch);
  for (bool compiled : {false, true}) {
    for (size_t threads : kThreadCounts) {
      ClusterOverTexts cluster(alphabet(), o, compiled);
      cluster.Rebuild(base, threads);
      cluster.Absorb(batch);
      EXPECT_EQ(CheckedHash(cluster.cluster().pst()), CheckedHash(looped))
          << (compiled ? "compiled, " : "live, ") << threads << " threads";
    }
  }
  ClusterOverTexts live(alphabet(), o, /*compiled=*/false);
  live.Absorb(base);
  live.Absorb(batch);
  live.ExpectHolds(looped, "live");
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
  // Enough positions that compiles and builds fan out across workers.
  const auto base = Texts(60, 300, 20, 41);
  const auto batch = Texts(120, 300, 20, 42);
  ClusterOverTexts cluster(20, Opts(12), /*compiled=*/true);
  cluster.Absorb(base);
  cluster.Absorb(batch);
  cluster.ExpectHolds(ExtendedByTheLoop(Looped(20, Opts(12), base), batch),
                      "extended");
}

TEST(PstBuildInsertTest, EmptyBatchChangesNothing) {
  // And a compiled cluster counts no insertion for it: neither the join
  // nor the compile touches a tree.
  ClusterOverTexts cluster(20, Opts(6), /*compiled=*/true);
  cluster.Absorb(Texts(3, 300, 20, 43));
  const auto before = cluster.cluster().Snapshot(cluster.background(), 4);
  const uint64_t hash = CheckedHash(cluster.cluster().pst());
  const uint64_t num_symbols = cluster.cluster().num_symbols();
  const uint64_t symbols0 = CounterValue("pst.insert_symbols");
  const uint64_t nodes0 = CounterValue("pst.nodes_created");
  cluster.Absorb({});
  cluster.Absorb({{}, {}});
  for (size_t threads : kThreadCounts) {
    ExpectSameSnapshot(
        *cluster.cluster().Snapshot(cluster.background(), threads), *before,
        std::to_string(threads) + " threads");
  }
  EXPECT_EQ(cluster.cluster().num_symbols(), num_symbols);
  EXPECT_EQ(CounterValue("pst.insert_symbols"), symbols0);
  EXPECT_EQ(CounterValue("pst.nodes_created"), nodes0);
  EXPECT_EQ(CheckedHash(cluster.cluster().pst()), hash);
}

TEST(PstBuildInsertTest, EmptyAndLengthOneSegments) {
  const std::vector<Symbols> base = {{4, 7, 4}, {}, {0}};
  const std::vector<Symbols> batch = {{}, {4}, {}, {4, 7}, {7}, {9}, {}, {0}};
  for (size_t depth : {1, 3}) {
    ClusterOverTexts cluster(20, Opts(depth), /*compiled=*/true);
    cluster.Absorb(base);
    cluster.Absorb(batch);
    cluster.ExpectHolds(
        ExtendedByTheLoop(Looped(20, Opts(depth), base), batch),
        "depth " + std::to_string(depth));
  }
}

TEST(PstBuildInsertTest, NewDepthOneChildren) {
  // The cluster has seen symbols 0..4 only; the batch brings 5..9, so the
  // root gains children and next symbols between and after its old ones.
  const auto low = Texts(20, 300, 5, 44);
  std::vector<Symbols> batch = Texts(20, 300, 10, 45);
  batch.push_back(Symbols(50, 9));
  const Pst looped = Looped(10, Opts(6), low);
  const Pst expect = ExtendedByTheLoop(looped, batch);
  EXPECT_GT(expect.Children(kPstRoot).size(), looped.Children(kPstRoot).size());
  ClusterOverTexts cluster(10, Opts(6), /*compiled=*/true);
  cluster.Absorb(low);
  cluster.ExpectHolds(looped, "low");
  cluster.Absorb(batch);
  cluster.ExpectHolds(expect, "extended");
}

TEST(PstBuildInsertTest, ListsCrossingAPowerOfTwo) {
  // Every list of the base tree holds at most 4 symbols (a full block);
  // the batches bring 5, 8 and 16, so the loop's lists move to blocks of
  // 8 and 16 and leave their old blocks behind, while the tree the cluster
  // builds sizes every list once.
  const std::vector<Symbols> base = {Text(400, 4, 46)};
  Pst looped = Looped(16, Opts(4), base);
  ClusterOverTexts cluster(16, Opts(4), /*compiled=*/true);
  cluster.Absorb(base);
  for (size_t symbols : {5, 8, 16}) {
    const std::vector<Symbols> batch = {Text(300, symbols, 47 + symbols),
                                        Text(50, symbols, 48)};
    looped = ExtendedByTheLoop(looped, batch);
    cluster.Absorb(batch);
    cluster.ExpectHolds(looped, std::to_string(symbols) + " symbols");
  }
  // The loop grows the built tree's exact-size lists as it grows its own.
  EXPECT_EQ(CheckedHash(ExtendedByTheLoop(cluster.cluster().pst(), base)),
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
  ClusterOverTexts cluster(5, Opts(12), /*compiled=*/true);
  cluster.Absorb(base);
  cluster.Absorb(batch);
  cluster.ExpectHolds(ExtendedByTheLoop(Looped(5, Opts(12), base), batch),
                      "extended");
}

TEST(PstBuildInsertTest, CountersMoveAsUnderTheLoop) {
  // A compiled cluster counts insertions only when it builds its tree, and
  // then as the loop does over the same segments.
  const auto base = Texts(30, 300, 20, 50);
  const auto batch = Texts(60, 300, 20, 51);
  const uint64_t symbols0 = CounterValue("pst.insert_symbols");
  const uint64_t nodes0 = CounterValue("pst.nodes_created");
  const Pst looped = ExtendedByTheLoop(Looped(20, Opts(6), base), batch);
  const uint64_t symbols1 = CounterValue("pst.insert_symbols");
  const uint64_t nodes1 = CounterValue("pst.nodes_created");
  ClusterOverTexts cluster(20, Opts(6), /*compiled=*/true);
  cluster.Absorb(base);
  cluster.Absorb(batch);
  cluster.cluster().Snapshot(cluster.background(), 4);
  EXPECT_EQ(CounterValue("pst.insert_symbols"), symbols1);
  EXPECT_EQ(CounterValue("pst.nodes_created"), nodes1);
  const Pst& tree = cluster.cluster().pst();
  EXPECT_EQ(CounterValue("pst.insert_symbols") - symbols1,
            symbols1 - symbols0);
  EXPECT_EQ(CounterValue("pst.nodes_created") - nodes1, nodes1 - nodes0);
  EXPECT_EQ(nodes1 - nodes0, looped.NumNodes() - 1);
  EXPECT_EQ(tree.total_symbols(), symbols1 - symbols0);
  EXPECT_EQ(cluster.cluster().num_symbols(), symbols1 - symbols0);
}

// Pst's read accessors over hand-made child lists, for feeding Digest a
// corrupted tree.
struct HandMadeTree {
  std::vector<std::vector<std::pair<SymbolId, PstNodeId>>> children;
  size_t num_nodes;
  std::span<const std::pair<SymbolId, PstNodeId>> Children(
      PstNodeId id) const {
    return children[id];
  }
  size_t NodeDepth(PstNodeId) const { return 0; }
  uint64_t NodeCount(PstNodeId) const { return 1; }
  size_t alphabet_size() const { return 2; }
  uint64_t NextCount(PstNodeId, SymbolId) const { return 1; }
  size_t NumNodes() const { return num_nodes; }
  size_t ApproxMemoryBytes() const { return 0; }
};

TEST(PstDigestTest, CorruptedChildListsFailInsteadOfHanging) {
  // 0 -> 1 -> 2 -> 1: a cycle.
  const HandMadeTree cyclic{{{{0, 1}}, {{0, 2}}, {{1, 1}}}, 3};
  EXPECT_NONFATAL_FAILURE(pst_test::Digest(cyclic), "reached twice");
  // Three nodes reachable from a tree that claims two.
  const HandMadeTree overfull{{{{0, 1}}, {{0, 2}}, {}}, 2};
  EXPECT_NONFATAL_FAILURE(pst_test::Digest(overfull),
                          "more than NumNodes() = 2");
  const HandMadeTree sound{{{{0, 1}}, {{0, 2}}, {}}, 3};
  EXPECT_NE(pst_test::Digest(sound).hash, 0u);
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
