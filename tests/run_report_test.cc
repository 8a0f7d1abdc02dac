#include "obs/run_report.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/cluseq.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "synth/dataset.h"

namespace cluseq {
namespace {

SequenceDatabase SmallDb() {
  SyntheticDatasetOptions opts;
  opts.num_clusters = 2;
  opts.sequences_per_cluster = 15;
  opts.alphabet_size = 8;
  opts.avg_length = 60;
  opts.outlier_fraction = 0.0;
  opts.spread = 0.25;
  opts.seed = 23;
  return MakeSyntheticDataset(opts);
}

CluseqOptions SmallOptions() {
  CluseqOptions o;
  o.initial_clusters = 2;
  o.similarity_threshold = 1.05;
  o.significance_threshold = 4;
  o.min_unique_members = 3;
  o.max_iterations = 6;
  o.pst.max_depth = 4;
  o.pst.smoothing_p_min = 1e-4;
  o.rng_seed = 7;
  return o;
}

// The CLI's --metrics_json is exactly WriteRunReportJson over
// clusterer.report(); round-tripping the report through the JSON layer and
// matching it against ClusteringResult::iteration_stats covers the same
// contract without shelling out to the binary.
TEST(RunReportTest, RoundTripMatchesIterationStats) {
  SequenceDatabase db = SmallDb();
  CluseqClusterer clusterer(db, SmallOptions());
  ClusteringResult result;
  ASSERT_TRUE(clusterer.Run(&result).ok());

  const obs::RunReport* report = clusterer.report();
  ASSERT_NE(report, nullptr);
  ASSERT_EQ(report->iterations.size(), result.iteration_stats.size());
  ASSERT_GT(result.iteration_stats.size(), 0u);

  std::ostringstream out;
  obs::WriteRunReportJson(*report, out);
  obs::JsonValue root;
  ASSERT_TRUE(obs::ParseJson(out.str(), &root).ok()) << out.str();

  EXPECT_EQ(root.Find("schema")->string_value, "cluseq.run_report.v1");
  EXPECT_EQ(root.Find("input")->Find("num_sequences")->number,
            static_cast<double>(db.size()));

  const obs::JsonValue* summary = root.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Find("num_clusters")->number,
            static_cast<double>(result.num_clusters()));
  EXPECT_EQ(summary->Find("num_unclustered")->number,
            static_cast<double>(result.num_unclustered));
  EXPECT_EQ(summary->Find("iterations")->number,
            static_cast<double>(result.iterations));
  EXPECT_EQ(summary->Find("stop_reason")->string_value,
            StopReasonName(result.stop_reason));

  // Prefilter block: round-trips the report fields exactly.
  const obs::JsonValue* prefilter = summary->Find("prefilter");
  ASSERT_NE(prefilter, nullptr);
  EXPECT_EQ(prefilter->Find("enabled")->bool_value,
            report->prefilter_enabled);
  EXPECT_DOUBLE_EQ(prefilter->Find("skip_ratio")->number,
                   report->prefilter_skip_ratio);
  EXPECT_DOUBLE_EQ(prefilter->Find("l15_ratio")->number,
                   report->prefilter_l15_ratio);
  EXPECT_TRUE(report->prefilter_enabled);  // SmallOptions leaves defaults.

  const obs::JsonValue* iterations = root.Find("iterations");
  ASSERT_NE(iterations, nullptr);
  ASSERT_TRUE(iterations->is_array());
  ASSERT_EQ(iterations->array.size(), result.iteration_stats.size());
  for (size_t i = 0; i < result.iteration_stats.size(); ++i) {
    const IterationStats& expect = result.iteration_stats[i];
    const obs::JsonValue* stats = iterations->array[i].Find("stats");
    ASSERT_NE(stats, nullptr) << "iteration " << i;
    EXPECT_EQ(stats->Find("iteration")->number,
              static_cast<double>(expect.iteration));
    EXPECT_EQ(stats->Find("new_clusters")->number,
              static_cast<double>(expect.new_clusters));
    EXPECT_EQ(stats->Find("consolidated")->number,
              static_cast<double>(expect.consolidated));
    EXPECT_EQ(stats->Find("clusters_after")->number,
              static_cast<double>(expect.clusters_after));
    EXPECT_EQ(stats->Find("unclustered")->number,
              static_cast<double>(expect.unclustered));
    EXPECT_DOUBLE_EQ(stats->Find("log_threshold")->number,
                     expect.log_threshold);
    EXPECT_DOUBLE_EQ(stats->Find("seconds")->number, expect.seconds);
    EXPECT_EQ(stats->Find("refrozen_clusters")->number,
              static_cast<double>(expect.refrozen_clusters));
    EXPECT_DOUBLE_EQ(stats->Find("scan_seconds")->number,
                     expect.scan_seconds);
    EXPECT_EQ(stats->Find("pst_nodes_total")->number,
              static_cast<double>(expect.pst_nodes_total));
    EXPECT_EQ(stats->Find("pst_arena_bytes_total")->number,
              static_cast<double>(expect.pst_arena_bytes_total));
    // A batch-mode run without a memory budget keeps no live trees: what
    // its clusters hold is their compiled snapshots.
    EXPECT_EQ(expect.pst_nodes_total, 0u);
    EXPECT_EQ(expect.pst_arena_bytes_total, 0u);
    EXPECT_EQ(stats->Find("frozen_states_total")->number,
              static_cast<double>(expect.frozen_states_total));
    EXPECT_EQ(stats->Find("frozen_bytes_total")->number,
              static_cast<double>(expect.frozen_bytes_total));
    EXPECT_GT(expect.frozen_bytes_total, 0u);
    EXPECT_EQ(stats->Find("pst_pruned_total")->number,
              static_cast<double>(expect.pst_pruned_total));
    EXPECT_DOUBLE_EQ(stats->Find("seed_seconds")->number,
                     expect.seed_seconds);
    EXPECT_DOUBLE_EQ(stats->Find("rebuild_seconds")->number,
                     expect.rebuild_seconds);
    EXPECT_DOUBLE_EQ(stats->Find("resegment_seconds")->number,
                     expect.resegment_seconds);
    EXPECT_DOUBLE_EQ(stats->Find("build_seconds")->number,
                     expect.build_seconds);
    EXPECT_DOUBLE_EQ(expect.rebuild_seconds,
                     expect.resegment_seconds + expect.build_seconds);
    EXPECT_DOUBLE_EQ(stats->Find("freeze_seconds")->number,
                     expect.freeze_seconds);
    EXPECT_DOUBLE_EQ(stats->Find("assemble_seconds")->number,
                     expect.assemble_seconds);
    // The per-layer timers are nested leaves of the phase timers.
    EXPECT_GE(expect.frozen_states_total, expect.clusters_after);
    EXPECT_LE(expect.rebuild_seconds, expect.seed_seconds);
    EXPECT_LE(expect.assemble_seconds, expect.scan_seconds);
    EXPECT_LE(expect.freeze_seconds,
              expect.seed_seconds + expect.scan_seconds);
    EXPECT_DOUBLE_EQ(stats->Find("join_seconds")->number,
                     expect.join_seconds);
    EXPECT_DOUBLE_EQ(stats->Find("absorb_seconds")->number,
                     expect.absorb_seconds);
    EXPECT_LE(expect.absorb_seconds, expect.join_seconds);
    EXPECT_DOUBLE_EQ(stats->Find("consolidate_seconds")->number,
                     expect.consolidate_seconds);
    EXPECT_DOUBLE_EQ(stats->Find("prefilter_skip_ratio")->number,
                     expect.prefilter_skip_ratio);
    EXPECT_EQ(stats->Find("prefilter_l15_pruned")->number,
              static_cast<double>(expect.prefilter_l15_pruned));
    // Per-iteration metrics snapshot rides along with the stats.
    const obs::JsonValue* metrics = iterations->array[i].Find("metrics");
    ASSERT_NE(metrics, nullptr) << "iteration " << i;
    EXPECT_TRUE(metrics->Find("counters")->is_object());
    // So does the per-phase perf block: rusage sampling never fails, so
    // every iteration carries the seed/scan/join/consolidate/adjust_t
    // phases even when perf_event_open is denied.
    const obs::JsonValue* perf = iterations->array[i].Find("perf");
    ASSERT_NE(perf, nullptr) << "iteration " << i;
    ASSERT_TRUE(perf->is_array());
    ASSERT_EQ(perf->array.size(), expect.phase_perf.size());
    for (size_t p = 0; p < perf->array.size(); ++p) {
      const obs::JsonValue& phase = perf->array[p];
      EXPECT_EQ(phase.Find("phase")->string_value,
                expect.phase_perf[p].phase);
      EXPECT_TRUE(phase.Find("utime_seconds")->is_number());
      EXPECT_TRUE(phase.Find("maxrss_kb")->is_number());
      EXPECT_GT(phase.Find("maxrss_kb")->number, 0.0);
    }
  }

  // Phase order within an iteration is the loop's phase order.
  const std::vector<obs::PhasePerf>& first_perf =
      result.iteration_stats[0].phase_perf;
  ASSERT_EQ(first_perf.size(), 5u);
  EXPECT_EQ(first_perf[0].phase, "seed");
  EXPECT_EQ(first_perf[1].phase, "scan");
  EXPECT_EQ(first_perf[2].phase, "join");
  EXPECT_EQ(first_perf[3].phase, "consolidate");
  EXPECT_EQ(first_perf[4].phase, "adjust_t");

  // The summary.perf availability flag and the per-phase counter keys must
  // agree: counters present iff the process-wide set opened. Either way the
  // rusage aggregates are filled (rusage never fails).
  const obs::JsonValue* perf_summary = root.Find("summary")->Find("perf");
  ASSERT_NE(perf_summary, nullptr);
  ASSERT_NE(perf_summary->Find("available"), nullptr);
  const bool available = perf_summary->Find("available")->bool_value;
  EXPECT_EQ(available, report->perf_available);
  for (const obs::PhasePerf& phase : first_perf) {
    EXPECT_EQ(!phase.counters.empty(), available) << phase.phase;
  }
  EXPECT_TRUE(perf_summary->Find("utime_seconds")->is_number());
  EXPECT_GT(perf_summary->Find("maxrss_kb")->number, 0.0);
  if (available) {
    EXPECT_NE(perf_summary->Find("cycles"), nullptr);
  } else {
    EXPECT_EQ(perf_summary->Find("cycles"), nullptr);
  }
}

TEST(RunReportTest, LiveTreeRunsReportTheirTrees) {
  // §4.2 within-scan mode and memory budgets keep live trees, and the
  // per-iteration stats count their nodes and arena bytes.
  SequenceDatabase db = SmallDb();
  for (bool within_scan : {true, false}) {
    CluseqOptions o = SmallOptions();
    o.within_scan_updates = within_scan;
    if (!within_scan) o.pst.max_memory_bytes = 64 * 1024;
    ClusteringResult result;
    ASSERT_TRUE(RunCluseq(db, o, &result).ok());
    ASSERT_GT(result.iteration_stats.size(), 0u);
    for (const IterationStats& stats : result.iteration_stats) {
      EXPECT_GT(stats.pst_nodes_total, stats.clusters_after)
          << "iteration " << stats.iteration;
      EXPECT_GT(stats.pst_arena_bytes_total, 0u)
          << "iteration " << stats.iteration;
      // §4.2 mode scores against the live trees and may not freeze them
      // until the run ends.
      if (within_scan) continue;
      EXPECT_GE(stats.frozen_states_total, stats.clusters_after)
          << "iteration " << stats.iteration;
      EXPECT_GT(stats.frozen_bytes_total, 0u)
          << "iteration " << stats.iteration;
    }
  }
}

TEST(RunReportTest, PerfSummaryAggregatesHandBuiltPhases) {
  // Serialization-level coverage of the perf-available path, independent of
  // whether this machine grants perf_event_open: hand-build the phase
  // records the collector would have produced.
  obs::RunReport report;
  report.perf_available = true;
  IterationStats it1;
  it1.phase_perf.push_back(obs::PhasePerf{
      "scan", {{"cycles", 1000}, {"instructions", 2000}}, 0.5, 0.1, 2, 800});
  it1.phase_perf.push_back(
      obs::PhasePerf{"join", {{"cycles", 100}}, 0.1, 0.0, 0, 900});
  IterationStats it2;
  it2.phase_perf.push_back(obs::PhasePerf{
      "scan", {{"cycles", 3000}, {"instructions", 4000}}, 0.25, 0.0, 1, 850});
  report.iterations = {it1, it2};

  std::ostringstream out;
  obs::WriteRunReportJson(report, out);
  obs::JsonValue root;
  ASSERT_TRUE(obs::ParseJson(out.str(), &root).ok()) << out.str();

  const obs::JsonValue* perf = root.Find("summary")->Find("perf");
  ASSERT_NE(perf, nullptr);
  EXPECT_TRUE(perf->Find("available")->bool_value);
  EXPECT_EQ(perf->Find("cycles")->number, 4100.0);
  EXPECT_EQ(perf->Find("instructions")->number, 6000.0);
  EXPECT_DOUBLE_EQ(perf->Find("utime_seconds")->number, 0.85);
  EXPECT_DOUBLE_EQ(perf->Find("stime_seconds")->number, 0.1);
  EXPECT_EQ(perf->Find("major_faults")->number, 3.0);
  EXPECT_EQ(perf->Find("maxrss_kb")->number, 900.0);  // High-water mark.

  const obs::JsonValue* iterations = root.Find("iterations");
  ASSERT_EQ(iterations->array.size(), 2u);
  const obs::JsonValue* it1_perf = iterations->array[0].Find("perf");
  ASSERT_NE(it1_perf, nullptr);
  ASSERT_EQ(it1_perf->array.size(), 2u);
  EXPECT_EQ(it1_perf->array[0].Find("phase")->string_value, "scan");
  EXPECT_EQ(it1_perf->array[0].Find("cycles")->number, 1000.0);
  EXPECT_EQ(it1_perf->array[0].Find("instructions")->number, 2000.0);
  EXPECT_EQ(it1_perf->array[1].Find("phase")->string_value, "join");
  EXPECT_EQ(it1_perf->array[1].Find("instructions"), nullptr);
}

TEST(RunReportTest, UnavailablePerfOmitsCounterKeys) {
  // The degraded contract: available=false, rusage aggregates still there,
  // and NO counter keys — consumers must never see zeros masquerading as
  // measurements.
  obs::RunReport report;
  report.perf_available = false;
  IterationStats it1;
  it1.phase_perf.push_back(obs::PhasePerf{"scan", {}, 0.5, 0.1, 0, 700});
  report.iterations = {it1};

  std::ostringstream out;
  obs::WriteRunReportJson(report, out);
  obs::JsonValue root;
  ASSERT_TRUE(obs::ParseJson(out.str(), &root).ok()) << out.str();

  const obs::JsonValue* perf = root.Find("summary")->Find("perf");
  ASSERT_NE(perf, nullptr);
  EXPECT_FALSE(perf->Find("available")->bool_value);
  EXPECT_EQ(perf->Find("cycles"), nullptr);
  EXPECT_EQ(perf->Find("instructions"), nullptr);
  EXPECT_DOUBLE_EQ(perf->Find("utime_seconds")->number, 0.5);
  EXPECT_EQ(perf->Find("maxrss_kb")->number, 700.0);
  const obs::JsonValue* it_perf =
      root.Find("iterations")->array[0].Find("perf");
  ASSERT_NE(it_perf, nullptr);
  EXPECT_EQ(it_perf->array[0].Find("cycles"), nullptr);
  EXPECT_GT(it_perf->array[0].Find("maxrss_kb")->number, 0.0);
}

TEST(RunReportTest, ReportEchoesOptionsAndMetrics) {
  SequenceDatabase db = SmallDb();
  const CluseqOptions options = SmallOptions();
  CluseqClusterer clusterer(db, options);
  ClusteringResult result;
  ASSERT_TRUE(clusterer.Run(&result).ok());

  std::ostringstream out;
  obs::WriteRunReportJson(*clusterer.report(), out);
  obs::JsonValue root;
  ASSERT_TRUE(obs::ParseJson(out.str(), &root).ok());

  const obs::JsonValue* opts = root.Find("options");
  ASSERT_NE(opts, nullptr);
  EXPECT_EQ(opts->Find("initial_clusters")->number,
            static_cast<double>(options.initial_clusters));
  EXPECT_DOUBLE_EQ(opts->Find("similarity_threshold")->number,
                   options.similarity_threshold);
  EXPECT_EQ(opts->Find("pst")->Find("max_depth")->number,
            static_cast<double>(options.pst.max_depth));

  // The run must have advanced the global registry: the final snapshot's
  // cluster-iteration counter strictly exceeds the baseline's.
  const obs::JsonValue* baseline = root.Find("baseline_metrics");
  const obs::JsonValue* final_metrics = root.Find("final_metrics");
  ASSERT_NE(baseline, nullptr);
  ASSERT_NE(final_metrics, nullptr);
  const obs::JsonValue* before =
      baseline->Find("counters")->Find("cluseq.iterations");
  const obs::JsonValue* after =
      final_metrics->Find("counters")->Find("cluseq.iterations");
  ASSERT_NE(after, nullptr);
  const double before_value = before != nullptr ? before->number : 0.0;
  EXPECT_EQ(after->number - before_value,
            static_cast<double>(result.iterations));

  // No eval block: the clusterer itself never evaluates; the CLI fills it.
  EXPECT_EQ(root.Find("eval"), nullptr);
}

TEST(RunReportTest, CheckpointBlockRoundTrips) {
  obs::RunReport report;
  report.checkpoint_enabled = true;
  report.checkpoint_saves = 7;
  report.checkpoint_last_iteration = 6;
  report.resumed_from_checkpoint = true;
  report.interrupted = true;
  report.options.checkpoint_dir = "/tmp/ck";
  report.options.checkpoint_every = 2;
  report.options.resume = true;
  std::ostringstream out;
  obs::WriteRunReportJson(report, out);
  obs::JsonValue root;
  ASSERT_TRUE(obs::ParseJson(out.str(), &root).ok()) << out.str();

  const obs::JsonValue* ckpt = root.Find("summary")->Find("checkpoint");
  ASSERT_NE(ckpt, nullptr);
  EXPECT_TRUE(ckpt->Find("enabled")->bool_value);
  EXPECT_EQ(ckpt->Find("saves")->number, 7.0);
  EXPECT_EQ(ckpt->Find("last_iteration")->number, 6.0);
  EXPECT_TRUE(ckpt->Find("resumed")->bool_value);
  EXPECT_TRUE(ckpt->Find("interrupted")->bool_value);

  // Options echo carries the checkpoint configuration.
  const obs::JsonValue* opts = root.Find("options");
  EXPECT_EQ(opts->Find("checkpoint_dir")->string_value, "/tmp/ck");
  EXPECT_EQ(opts->Find("checkpoint_every")->number, 2.0);
  EXPECT_TRUE(opts->Find("resume")->bool_value);
}

TEST(RunReportTest, CheckpointBlockDefaultsOffForPlainRuns) {
  SequenceDatabase db = SmallDb();
  CluseqClusterer clusterer(db, SmallOptions());
  ClusteringResult result;
  ASSERT_TRUE(clusterer.Run(&result).ok());
  std::ostringstream out;
  obs::WriteRunReportJson(*clusterer.report(), out);
  obs::JsonValue root;
  ASSERT_TRUE(obs::ParseJson(out.str(), &root).ok());
  const obs::JsonValue* ckpt = root.Find("summary")->Find("checkpoint");
  ASSERT_NE(ckpt, nullptr);
  EXPECT_FALSE(ckpt->Find("enabled")->bool_value);
  EXPECT_EQ(ckpt->Find("saves")->number, 0.0);
  EXPECT_FALSE(ckpt->Find("resumed")->bool_value);
  EXPECT_FALSE(ckpt->Find("interrupted")->bool_value);
  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.resumed_from_checkpoint);
}

TEST(RunReportTest, EvalBlockSerializesWhenPresent) {
  obs::RunReport report;
  report.has_eval = true;
  report.eval_correct_fraction = 0.9;
  report.eval_macro_f1 = 0.8;
  report.eval_purity = 0.95;
  report.eval_nmi = 0.7;
  report.eval_found_clusters = 3;
  report.eval_unassigned = 2;
  std::ostringstream out;
  obs::WriteRunReportJson(report, out);
  obs::JsonValue root;
  ASSERT_TRUE(obs::ParseJson(out.str(), &root).ok());
  const obs::JsonValue* eval = root.Find("eval");
  ASSERT_NE(eval, nullptr);
  EXPECT_DOUBLE_EQ(eval->Find("correct_fraction")->number, 0.9);
  EXPECT_DOUBLE_EQ(eval->Find("macro_f1")->number, 0.8);
  EXPECT_DOUBLE_EQ(eval->Find("purity")->number, 0.95);
  EXPECT_DOUBLE_EQ(eval->Find("nmi")->number, 0.7);
  EXPECT_EQ(eval->Find("found_clusters")->number, 3.0);
  EXPECT_EQ(eval->Find("unassigned")->number, 2.0);
}

}  // namespace
}  // namespace cluseq
