#include "core/cluster.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "pst_digest.h"
#include "seq/background_model.h"
#include "seq/sequence_database.h"

namespace cluseq {
namespace {

PstOptions Opts() {
  PstOptions o;
  o.max_depth = 4;
  o.significance_threshold = 2;
  return o;
}

TEST(ClusterTest, FreshClusterIsEmpty) {
  Cluster c(7, 4, Opts());
  EXPECT_EQ(c.id(), 7u);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.seed_index(), -1);
  EXPECT_EQ(c.pst().total_symbols(), 0u);
}

TEST(ClusterTest, SeedBuildsPstFromWholeSequence) {
  Cluster c(0, 3, Opts());
  Sequence seq({0, 1, 2, 0, 1});
  c.Seed(seq, 5);
  EXPECT_EQ(c.seed_index(), 5);
  EXPECT_EQ(c.pst().total_symbols(), 5u);
  EXPECT_TRUE(c.HasAbsorbed(5));
  EXPECT_FALSE(c.HasAbsorbed(6));
}

TEST(ClusterTest, AbsorbSegmentOnlyOncePerSequence) {
  Cluster c(0, 3, Opts());
  std::vector<SymbolId> segment = {0, 1, 0, 1};
  c.AbsorbSegment(3, segment);
  EXPECT_EQ(c.pst().total_symbols(), 4u);
  // A second absorb of the same sequence is a no-op.
  c.AbsorbSegment(3, segment);
  EXPECT_EQ(c.pst().total_symbols(), 4u);
  // A different sequence contributes.
  c.AbsorbSegment(4, segment);
  EXPECT_EQ(c.pst().total_symbols(), 8u);
}

TEST(ClusterTest, ContributionsKeepInsertionOrder) {
  Cluster c(0, 3, Opts());
  const std::vector<SymbolId> full = {0, 1, 2, 0, 1, 2};
  c.Seed(full, 7);
  c.AbsorbSegment(2, full, 1, 4);
  c.AbsorbSegment(5, full, 0, 2);
  c.AbsorbSegment(2, full, 0, 6);  // Already counted: not recorded again.
  using Entry = std::pair<size_t, Cluster::Segment>;
  EXPECT_EQ(c.contributions(),
            (std::vector<Entry>{{7, {0, 6}}, {2, {1, 4}}, {5, {0, 2}}}));

  // Replaying them in that order into a fresh cluster rebuilds the tree.
  Cluster replay(1, 3, Opts());
  for (const auto& [seq, seg] : c.contributions()) {
    replay.AbsorbSegment(seq, full, seg.begin, seg.end);
  }
  EXPECT_EQ(replay.contributions(), c.contributions());
  EXPECT_EQ(replay.pst().NumNodes(), c.pst().NumNodes());
  EXPECT_EQ(replay.pst().total_symbols(), c.pst().total_symbols());
}

TEST(ClusterTest, RebuildMatchesResetThenAbsorb) {
  SequenceDatabase db(Alphabet::Synthetic(3));
  db.Add(Sequence({0, 1, 2, 0, 1, 2, 2, 1}));
  db.Add(Sequence({2, 2, 1, 0}));
  db.Add(Sequence({1, 0, 1, 0, 2}));
  using Entry = std::pair<size_t, Cluster::Segment>;
  // Sequence 2 is listed twice: like AbsorbSegment, only its first segment
  // counts.
  const std::vector<Entry> contributions = {
      {2, {0, 5}}, {0, {1, 7}}, {2, {0, 3}}, {1, {0, 4}}};
  Cluster absorbed(0, 3, Opts());
  for (const auto& [seq, seg] : contributions) {
    absorbed.AbsorbSegment(seq, db.Symbols(seq), seg.begin, seg.end);
  }
  Cluster rebuilt(1, 3, Opts());
  rebuilt.Seed(db.Symbols(1), 1);
  rebuilt.SetFrozen(nullptr);
  ASSERT_FALSE(rebuilt.pst_dirty());
  rebuilt.Rebuild(contributions, db, 2);
  EXPECT_TRUE(rebuilt.pst_dirty());
  EXPECT_EQ(rebuilt.contributions(),
            (std::vector<Entry>{{2, {0, 5}}, {0, {1, 7}}, {1, {0, 4}}}));
  EXPECT_EQ(rebuilt.contributions(), absorbed.contributions());
  EXPECT_TRUE(rebuilt.HasAbsorbed(0));
  EXPECT_EQ(pst_test::CheckedHash(rebuilt.pst()),
            pst_test::CheckedHash(absorbed.pst()));
}

TEST(ClusterTest, MembershipBookkeeping) {
  Cluster c(0, 3, Opts());
  c.AddMember(1);
  c.AddMember(9);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.members(), (std::vector<size_t>{1, 9}));
  c.ClearMembers();
  EXPECT_EQ(c.size(), 0u);
  c.SetMembers({4, 5, 6});
  EXPECT_EQ(c.size(), 3u);
}

TEST(ClusterTest, RebuildFromNothingClearsStatisticsAndAbsorptions) {
  Cluster c(0, 3, Opts());
  Sequence seq({0, 1, 2, 0, 1, 2});
  c.Seed(seq, 0);
  ASSERT_GT(c.pst().NumNodes(), 1u);
  c.Rebuild({}, SequenceDatabase(Alphabet::Synthetic(3)), 1);
  EXPECT_EQ(c.pst().NumNodes(), 1u);
  EXPECT_EQ(c.pst().total_symbols(), 0u);
  EXPECT_FALSE(c.HasAbsorbed(0));
  // Absorption works again after reset.
  c.AbsorbSegment(0, std::vector<SymbolId>{0, 1});
  EXPECT_EQ(c.pst().total_symbols(), 2u);
}

TEST(ClusterTest, CompiledClusterMatchesALiveOne) {
  // Same contributions, same summary: a compiled cluster's snapshot is the
  // live tree's freeze byte for byte, and its tree, built on request,
  // hashes like the live one and follows every later change.
  SequenceDatabase db(Alphabet::Synthetic(3));
  db.Add(Sequence({0, 1, 2, 0, 1, 2, 2, 1, 0, 1, 2}));
  db.Add(Sequence({2, 2, 1, 0, 1, 0, 2}));
  db.Add(Sequence({1, 0, 1, 0, 2, 1, 0}));
  const BackgroundModel background = BackgroundModel::FromDatabase(db);
  Cluster live(0, 3, Opts());
  Cluster compiled(0, db, Opts());
  ASSERT_FALSE(live.compiled());
  ASSERT_TRUE(compiled.compiled());
  const auto expect_same = [&](const char* step) {
    EXPECT_EQ(compiled.contributions(), live.contributions()) << step;
    EXPECT_EQ(compiled.num_symbols(), live.pst().total_symbols()) << step;
    const auto a = compiled.Snapshot(background, 2);
    const auto b = live.Snapshot(background, 2);
    ASSERT_EQ(a->num_states(), b->num_states()) << step;
    EXPECT_TRUE(std::equal(a->transition_table().begin(),
                           a->transition_table().end(),
                           b->transition_table().begin()))
        << step;
    EXPECT_TRUE(std::equal(a->log_ratio_table().begin(),
                           a->log_ratio_table().end(),
                           b->log_ratio_table().begin()))
        << step;
    EXPECT_EQ(pst_test::CheckedHash(compiled.pst()),
              pst_test::CheckedHash(live.pst()))
        << step;
  };
  for (Cluster* c : {&live, &compiled}) c->Seed(db.Symbols(1), 1);
  expect_same("seed");
  for (Cluster* c : {&live, &compiled}) {
    c->AbsorbSegment(0, db.Symbols(0), 2, 9);
    c->AbsorbSegment(2, db.Symbols(2), 0, 7);
  }
  expect_same("absorb");
  using Entry = std::pair<size_t, Cluster::Segment>;
  const std::vector<Entry> contributions = {{2, {1, 6}}, {0, {0, 11}}};
  for (Cluster* c : {&live, &compiled}) c->Rebuild(contributions, db, 2);
  EXPECT_TRUE(compiled.pst_dirty());
  expect_same("rebuild");
}

}  // namespace
}  // namespace cluseq
