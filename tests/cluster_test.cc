#include "core/cluster.h"

#include <gtest/gtest.h>

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

TEST(ClusterTest, ResetPstClearsStatisticsAndAbsorptions) {
  Cluster c(0, 3, Opts());
  Sequence seq({0, 1, 2, 0, 1, 2});
  c.Seed(seq, 0);
  ASSERT_GT(c.pst().NumNodes(), 1u);
  c.ResetPst();
  EXPECT_EQ(c.pst().NumNodes(), 1u);
  EXPECT_EQ(c.pst().total_symbols(), 0u);
  EXPECT_FALSE(c.HasAbsorbed(0));
  // Absorption works again after reset.
  c.AbsorbSegment(0, std::vector<SymbolId>{0, 1});
  EXPECT_EQ(c.pst().total_symbols(), 2u);
}

}  // namespace
}  // namespace cluseq
