// Thread-count invariance of the full CLUSEQ iteration.
//
// Every parallel phase (scan, seeding, re-freeze, PST rebuild, the
// cluster-sharded join) is built so the scheduler only decides *who*
// executes an index, never how results are combined — so the clustering a
// run produces must be bit-for-bit identical at any thread count, in both
// batched and non-batched scan modes, with and without a PST memory budget
// (which makes tree pruning insertion-order dependent, the hardest case).

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluseq.h"
#include "obs/run_report.h"
#include "synth/dataset.h"
#include "util/thread_pool.h"

namespace cluseq {
namespace {

SequenceDatabase SkewedDb(uint64_t seed) {
  // Length-skewed on purpose: the weighted scheduler must not change
  // results relative to the serial order.
  SyntheticDatasetOptions opts;
  opts.num_clusters = 3;
  opts.sequences_per_cluster = 14;
  opts.alphabet_size = 8;
  opts.avg_length = 90;
  opts.min_length = 20;
  opts.max_length = 400;
  opts.outlier_fraction = 0.1;
  opts.spread = 0.25;
  opts.seed = seed;
  return MakeSyntheticDataset(opts);
}

CluseqOptions BaseOptions() {
  CluseqOptions o;
  o.initial_clusters = 3;
  o.similarity_threshold = 1.05;
  o.significance_threshold = 4;
  o.min_unique_members = 3;
  o.max_iterations = 8;
  o.pst.max_depth = 5;
  o.pst.smoothing_p_min = 1e-4;
  o.rng_seed = 11;
  return o;
}

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// Runs the clusterer at each thread count and asserts the results are
// exactly equal: member sets, per-sequence best cluster, best_log_sim
// bit-for-bit, iteration trajectory, final threshold, and the final
// clusters' snapshots byte for byte.
void ExpectThreadCountInvariant(const SequenceDatabase& db,
                                CluseqOptions options) {
  options.num_threads = 1;
  CluseqClusterer serial(db, options);
  ClusteringResult reference;
  ASSERT_TRUE(serial.Run(&reference).ok());

  for (size_t threads : {2u, 7u}) {
    options.num_threads = threads;
    CluseqClusterer clusterer(db, options);
    ClusteringResult result;
    ASSERT_TRUE(clusterer.Run(&result).ok());
    ASSERT_EQ(serial.clusters().size(), clusterer.clusters().size());
    for (size_t ci = 0; ci < serial.clusters().size(); ++ci) {
      const FrozenPst& a = *serial.clusters()[ci].frozen();
      const FrozenPst& b = *clusterer.clusters()[ci].frozen();
      EXPECT_TRUE(SameBytes(a.transition_table(), b.transition_table()) &&
                  SameBytes(a.log_ratio_table(), b.log_ratio_table()))
          << "cluster " << ci << " at " << threads << " threads";
    }
    EXPECT_EQ(reference.clusters, result.clusters) << threads << " threads";
    EXPECT_EQ(reference.best_cluster, result.best_cluster)
        << threads << " threads";
    ASSERT_EQ(reference.best_log_sim.size(), result.best_log_sim.size());
    for (size_t i = 0; i < reference.best_log_sim.size(); ++i) {
      // Bit-for-bit, including -inf for never-scored sequences.
      EXPECT_EQ(reference.best_log_sim[i], result.best_log_sim[i])
          << "sequence " << i << " at " << threads << " threads";
    }
    EXPECT_EQ(reference.iterations, result.iterations) << threads;
    EXPECT_EQ(reference.final_log_threshold, result.final_log_threshold)
        << threads;
    ASSERT_EQ(reference.iteration_stats.size(), result.iteration_stats.size());
    for (size_t it = 0; it < reference.iteration_stats.size(); ++it) {
      const IterationStats& a = reference.iteration_stats[it];
      const IterationStats& b = result.iteration_stats[it];
      EXPECT_EQ(a.new_clusters, b.new_clusters) << "iteration " << it;
      EXPECT_EQ(a.consolidated, b.consolidated) << "iteration " << it;
      EXPECT_EQ(a.clusters_after, b.clusters_after) << "iteration " << it;
      EXPECT_EQ(a.unclustered, b.unclustered) << "iteration " << it;
      EXPECT_EQ(a.log_threshold, b.log_threshold) << "iteration " << it;
      EXPECT_EQ(a.refrozen_clusters, b.refrozen_clusters)
          << "iteration " << it;
      EXPECT_EQ(a.pst_nodes_total, b.pst_nodes_total) << "iteration " << it;
      EXPECT_EQ(a.frozen_states_total, b.frozen_states_total)
          << "iteration " << it;
      EXPECT_EQ(a.frozen_bytes_total, b.frozen_bytes_total)
          << "iteration " << it;
    }
  }
}

TEST(ParallelDeterminismTest, BatchedScan) {
  CluseqOptions o = BaseOptions();
  o.batched_scan = true;
  ExpectThreadCountInvariant(SkewedDb(101), o);
}

TEST(ParallelDeterminismTest, UnbatchedScan) {
  CluseqOptions o = BaseOptions();
  o.batched_scan = false;
  ExpectThreadCountInvariant(SkewedDb(102), o);
}

TEST(ParallelDeterminismTest, BatchedScanWithMemoryBudget) {
  // A memory budget makes PST pruning depend on insertion order; the
  // cluster-sharded join and per-cluster rebuild preserve the serial
  // insertion order exactly, so results must still match.
  CluseqOptions o = BaseOptions();
  o.batched_scan = true;
  o.pst.max_memory_bytes = 64 * 1024;
  ExpectThreadCountInvariant(SkewedDb(103), o);
}

TEST(ParallelDeterminismTest, UnbatchedScanWithMemoryBudget) {
  CluseqOptions o = BaseOptions();
  o.batched_scan = false;
  o.pst.max_memory_bytes = 64 * 1024;
  ExpectThreadCountInvariant(SkewedDb(104), o);
}

TEST(ParallelDeterminismTest, WithinScanUpdatesMode) {
  // §4.2 mode parallelizes across clusters per sequence; still invariant.
  CluseqOptions o = BaseOptions();
  o.within_scan_updates = true;
  ExpectThreadCountInvariant(SkewedDb(105), o);
}

TEST(ParallelDeterminismTest, AutoThreadsRecordedInReport) {
  SequenceDatabase db = SkewedDb(106);
  CluseqOptions o = BaseOptions();
  o.num_threads = 0;  // Auto-detect.
  CluseqClusterer clusterer(db, o);
  ClusteringResult result;
  ASSERT_TRUE(clusterer.Run(&result).ok());
  ASSERT_NE(clusterer.report(), nullptr);
  EXPECT_EQ(clusterer.report()->effective_threads, HardwareThreads());
  EXPECT_EQ(clusterer.report()->options.num_threads, HardwareThreads());

  // Auto matches an explicit run at the same width.
  CluseqOptions explicit_o = BaseOptions();
  explicit_o.num_threads = HardwareThreads();
  ClusteringResult explicit_result;
  ASSERT_TRUE(RunCluseq(db, explicit_o, &explicit_result).ok());
  EXPECT_EQ(result.clusters, explicit_result.clusters);
  EXPECT_EQ(result.best_log_sim, explicit_result.best_log_sim);
}

}  // namespace
}  // namespace cluseq
