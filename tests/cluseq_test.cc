#include "core/cluseq.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "pst_digest.h"
#include "synth/dataset.h"
#include "util/cancellation.h"

namespace cluseq {
namespace {

SequenceDatabase PlantedDb(size_t clusters, size_t per_cluster,
                           double outliers, uint64_t seed) {
  SyntheticDatasetOptions opts;
  opts.num_clusters = clusters;
  opts.sequences_per_cluster = per_cluster;
  opts.alphabet_size = 8;
  opts.avg_length = 80;
  opts.outlier_fraction = outliers;
  opts.spread = 0.25;
  opts.seed = seed;
  return MakeSyntheticDataset(opts);
}

CluseqOptions FastOptions() {
  CluseqOptions o;
  o.initial_clusters = 2;
  o.similarity_threshold = 1.05;
  o.significance_threshold = 4;
  o.min_unique_members = 3;
  o.max_iterations = 12;
  o.pst.max_depth = 5;
  o.pst.smoothing_p_min = 1e-4;
  o.rng_seed = 7;
  return o;
}

TEST(CluseqOptionsTest, ValidateCatchesBadValues) {
  CluseqOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.initial_clusters = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = CluseqOptions();
  o.similarity_threshold = 0.5;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = CluseqOptions();
  o.significance_threshold = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = CluseqOptions();
  o.sample_multiplier = 0.5;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = CluseqOptions();
  o.max_iterations = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = CluseqOptions();
  o.histogram_buckets = 2;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = CluseqOptions();
  o.pst.max_depth = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
}

TEST(CluseqTest, EmptyDatabase) {
  SequenceDatabase db;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &result).ok());
  EXPECT_EQ(result.num_clusters(), 0u);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(CluseqStopReasonTest, IterationCap) {
  CluseqOptions o = FastOptions();
  o.max_iterations = 1;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(PlantedDb(2, 20, 0.0, 11), o, &result).ok());
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(result.stop_reason, StopReason::kMaxIterations);
  EXPECT_STREQ(StopReasonName(result.stop_reason), "max_iterations");
}

TEST(CluseqStopReasonTest, FixedPoint) {
  // Two well-separated planted clusters settle well before the cap.
  ClusteringResult result;
  ASSERT_TRUE(
      RunCluseq(PlantedDb(2, 20, 0.0, 11), FastOptions(), &result).ok());
  EXPECT_LT(result.iterations, FastOptions().max_iterations);
  EXPECT_EQ(result.stop_reason, StopReason::kFixedPoint);
  EXPECT_STREQ(StopReasonName(result.stop_reason), "fixed_point");
}

TEST(CluseqStopReasonTest, Cancelled) {
  CancellationToken token;
  token.RequestCancel();
  CluseqOptions o = FastOptions();
  o.cancellation = &token;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(PlantedDb(2, 20, 0.0, 11), o, &result).ok());
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
  EXPECT_STREQ(StopReasonName(result.stop_reason), "cancelled");
}

TEST(CluseqTest, InvalidOptionsRejected) {
  SequenceDatabase db = PlantedDb(2, 5, 0.0, 1);
  CluseqOptions o = FastOptions();
  o.similarity_threshold = 0.0;
  ClusteringResult result;
  EXPECT_TRUE(RunCluseq(db, o, &result).IsInvalidArgument());
}

TEST(CluseqTest, RecoversTwoPlantedClusters) {
  SequenceDatabase db = PlantedDb(2, 20, 0.0, 11);
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &result).ok());
  ASSERT_GE(result.num_clusters(), 1u);
  EvaluationSummary eval = Evaluate(db, result.best_cluster);
  EXPECT_GT(eval.correct_fraction, 0.8)
      << "clusters=" << result.num_clusters()
      << " unclustered=" << result.num_unclustered;
}

TEST(CluseqTest, RecoversFourPlantedClusters) {
  SequenceDatabase db = PlantedDb(4, 20, 0.0, 13);
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &result).ok());
  EvaluationSummary eval = Evaluate(db, result.best_cluster);
  EXPECT_GT(eval.correct_fraction, 0.7);
  EXPECT_GE(result.num_clusters(), 2u);
}

TEST(CluseqTest, ResultShapesAreConsistent) {
  SequenceDatabase db = PlantedDb(3, 12, 0.1, 17);
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &result).ok());
  ASSERT_EQ(result.best_cluster.size(), db.size());
  ASSERT_EQ(result.best_log_sim.size(), db.size());
  size_t unclustered = 0;
  for (size_t i = 0; i < db.size(); ++i) {
    int32_t c = result.best_cluster[i];
    if (c < 0) {
      ++unclustered;
    } else {
      ASSERT_LT(static_cast<size_t>(c), result.num_clusters());
      // A sequence's best cluster must actually contain it.
      const auto& members = result.clusters[static_cast<size_t>(c)];
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), i));
    }
  }
  EXPECT_EQ(unclustered, result.num_unclustered);
  // Members are sorted and in range.
  for (const auto& members : result.clusters) {
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (size_t m : members) EXPECT_LT(m, db.size());
  }
  EXPECT_GE(result.iterations, 1u);
  EXPECT_LE(result.iterations, FastOptions().max_iterations);
  EXPECT_EQ(result.iteration_stats.size(), result.iterations);
}

TEST(CluseqTest, OutliersMostlyUnclustered) {
  SequenceDatabase db = PlantedDb(2, 20, 0.2, 19);
  CluseqOptions o = FastOptions();
  o.similarity_threshold = 1.5;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  size_t outliers_total = 0, outliers_unclustered = 0;
  for (size_t i = 0; i < db.size(); ++i) {
    if (db[i].label() == kNoLabel) {
      ++outliers_total;
      if (result.best_cluster[i] < 0) ++outliers_unclustered;
    }
  }
  ASSERT_GT(outliers_total, 0u);
  EXPECT_GT(static_cast<double>(outliers_unclustered) /
                static_cast<double>(outliers_total),
            0.5);
}

TEST(CluseqTest, ClusterCountAdaptsFromDifferentInitialK) {
  SequenceDatabase db = PlantedDb(4, 15, 0.0, 23);
  std::vector<size_t> finals;
  for (size_t k : {1u, 4u, 10u}) {
    CluseqOptions o = FastOptions();
    o.initial_clusters = k;
    o.rng_seed = 31;
    ClusteringResult result;
    ASSERT_TRUE(RunCluseq(db, o, &result).ok());
    finals.push_back(result.num_clusters());
  }
  // All settings land in a sane band around the planted 4 clusters.
  for (size_t f : finals) {
    EXPECT_GE(f, 2u);
    EXPECT_LE(f, 8u);
  }
}

TEST(CluseqTest, ThresholdAdjustmentMovesT) {
  SequenceDatabase db = PlantedDb(3, 15, 0.05, 29);
  CluseqOptions o = FastOptions();
  o.similarity_threshold = 1.0005;  // Paper's deliberately-wrong initial t.
  o.adjust_threshold = true;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  // Final t respects the floor t >= 1 (log t >= 0) and typically moved.
  EXPECT_GE(result.final_log_threshold, 0.0);
  EXPECT_GE(result.final_threshold(), 1.0);
}

TEST(CluseqTest, ThresholdFixedWhenAdjustmentDisabled) {
  SequenceDatabase db = PlantedDb(2, 12, 0.0, 31);
  CluseqOptions o = FastOptions();
  o.adjust_threshold = false;
  o.auto_initial_threshold = false;
  o.similarity_threshold = 1.3;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  EXPECT_NEAR(result.final_log_threshold, std::log(1.3), 1e-12);
}

TEST(CluseqTest, DeterministicGivenSeed) {
  SequenceDatabase db = PlantedDb(3, 12, 0.05, 37);
  CluseqOptions o = FastOptions();
  ClusteringResult r1, r2;
  ASSERT_TRUE(RunCluseq(db, o, &r1).ok());
  ASSERT_TRUE(RunCluseq(db, o, &r2).ok());
  EXPECT_EQ(r1.clusters, r2.clusters);
  EXPECT_EQ(r1.best_cluster, r2.best_cluster);
  EXPECT_EQ(r1.iterations, r2.iterations);
}

class VisitOrderSweep : public ::testing::TestWithParam<VisitOrder> {};

TEST_P(VisitOrderSweep, ProducesValidClustering) {
  SequenceDatabase db = PlantedDb(3, 15, 0.0, 41);
  CluseqOptions o = FastOptions();
  o.visit_order = GetParam();
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  EvaluationSummary eval = Evaluate(db, result.best_cluster);
  // All orders must work; the paper found cluster-based order weaker, which
  // the order-sensitivity bench quantifies — here we only require sanity.
  EXPECT_GT(eval.correct_fraction, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Orders, VisitOrderSweep,
                         ::testing::Values(VisitOrder::kFixed,
                                           VisitOrder::kRandom,
                                           VisitOrder::kClusterBased));

TEST(CluseqTest, MultithreadedMatchesSingleThreaded) {
  SequenceDatabase db = PlantedDb(3, 12, 0.0, 43);
  CluseqOptions o = FastOptions();
  o.num_threads = 1;
  ClusteringResult r1;
  ASSERT_TRUE(RunCluseq(db, o, &r1).ok());
  o.num_threads = 4;
  ClusteringResult r2;
  ASSERT_TRUE(RunCluseq(db, o, &r2).ok());
  EXPECT_EQ(r1.clusters, r2.clusters);
}

TEST(CluseqBulkJoinTest, EveryTreeIsItsContributionsInsertedInOrder) {
  // Whole-run oracle for the bulk tree paths (the rebuild's Build and the
  // join's InsertSequences): after Run(), every cluster's tree hashes like
  // the insertion loop replaying its contributions in order.
  SyntheticDatasetOptions data;
  data.num_clusters = 4;
  data.sequences_per_cluster = 40;
  data.avg_length = 150;
  data.outlier_fraction = 0.0;
  data.seed = 61;
  const SequenceDatabase db = MakeSyntheticDataset(data);
  CluseqOptions o;
  o.initial_clusters = 2;
  o.significance_threshold = 30;
  o.min_unique_members = 0;
  o.max_iterations = 4;
  o.pst.max_depth = 12;
  o.rng_seed = 7;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{7}}) {
    o.num_threads = threads;
    CluseqClusterer clusterer(db, o);
    ClusteringResult result;
    ASSERT_TRUE(clusterer.Run(&result).ok());
    ASSERT_FALSE(clusterer.clusters().empty());
    size_t contributions = 0;
    for (const Cluster& cluster : clusterer.clusters()) {
      Pst replay(db.alphabet().size(), cluster.pst().options());
      for (const auto& [s, seg] : cluster.contributions()) {
        replay.InsertSequence(
            db.Symbols(s).subspan(seg.begin, seg.end - seg.begin));
      }
      contributions += cluster.contributions().size();
      EXPECT_EQ(pst_test::CheckedHash(cluster.pst()),
                pst_test::CheckedHash(replay))
          << "cluster " << cluster.id() << ", " << threads << " threads";
    }
    EXPECT_GT(contributions, 2 * clusterer.clusters().size());
  }
}

TEST(CluseqTest, ClassifyAgreesWithClustering) {
  SequenceDatabase db = PlantedDb(2, 15, 0.0, 47);
  CluseqClusterer clusterer(db, FastOptions());
  ClusteringResult result;
  ASSERT_TRUE(clusterer.Run(&result).ok());
  ASSERT_GE(result.num_clusters(), 1u);
  // Classifying a member sequence should find a cluster with at least the
  // similarity recorded for it.
  size_t checked = 0;
  for (size_t i = 0; i < db.size() && checked < 10; ++i) {
    if (result.best_cluster[i] < 0) continue;
    double log_sim = 0.0;
    int32_t c = clusterer.Classify(db[i], &log_sim);
    EXPECT_GE(c, 0);
    EXPECT_TRUE(std::isfinite(log_sim));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(CluseqTest, ClassifyRejectsGarbage) {
  SequenceDatabase db = PlantedDb(2, 20, 0.0, 53);
  CluseqOptions o = FastOptions();
  o.similarity_threshold = 2.0;
  o.adjust_threshold = false;
  o.auto_initial_threshold = false;
  CluseqClusterer clusterer(db, o);
  ClusteringResult result;
  ASSERT_TRUE(clusterer.Run(&result).ok());
  // A sequence over a symbol the training data barely uses.
  Sequence garbage(std::vector<SymbolId>(40, 7));
  double log_sim = 0.0;
  int32_t c = clusterer.Classify(garbage, &log_sim);
  // Either rejected outright or scored very low.
  if (c >= 0) {
    EXPECT_LT(log_sim, 5.0);
  } else {
    SUCCEED();
  }
}

TEST(CluseqTest, IterationStatsMonotoneTimestamps) {
  SequenceDatabase db = PlantedDb(2, 10, 0.0, 59);
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &result).ok());
  for (size_t i = 0; i < result.iteration_stats.size(); ++i) {
    const IterationStats& s = result.iteration_stats[i];
    EXPECT_EQ(s.iteration, i + 1);
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_GE(s.log_threshold, 0.0);
  }
}

TEST(CluseqTest, OverlappingClustersAllowed) {
  // Nothing forbids a sequence from appearing in several clusters; verify
  // the membership lists simply contain it in each.
  SequenceDatabase db = PlantedDb(2, 15, 0.0, 61);
  CluseqOptions o = FastOptions();
  o.similarity_threshold = 1.0;  // Very permissive: overlap is likely.
  o.adjust_threshold = false;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  size_t total_memberships = 0;
  for (const auto& members : result.clusters) {
    total_memberships += members.size();
  }
  // With a permissive threshold memberships can exceed N (overlap) but the
  // structures stay consistent.
  EXPECT_GE(total_memberships, db.size() - result.num_unclustered);
}

TEST(CluseqTest, SingleSequenceDatabase) {
  SequenceDatabase db(Alphabet::Synthetic(4));
  Rng rng(3);
  std::vector<SymbolId> text(60);
  for (auto& s : text) s = static_cast<SymbolId>(rng.Uniform(4));
  db.Add(Sequence(std::move(text), "only", 0));
  CluseqOptions o = FastOptions();
  o.min_unique_members = 1;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  // One sequence: either one singleton cluster or an outlier; both valid.
  EXPECT_LE(result.num_clusters(), 1u);
}

TEST(CluseqTest, AllIdenticalSequencesFormOneCluster) {
  SequenceDatabase db(Alphabet::Synthetic(4));
  std::vector<SymbolId> text;
  for (int i = 0; i < 30; ++i) text.push_back(static_cast<SymbolId>(i % 4));
  for (int i = 0; i < 12; ++i) {
    db.Add(Sequence(text, "dup" + std::to_string(i), 0));
  }
  CluseqOptions o = FastOptions();
  o.min_unique_members = 2;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  EXPECT_EQ(result.num_clusters(), 1u);
  EXPECT_EQ(result.num_unclustered, 0u);
}

}  // namespace
}  // namespace cluseq
