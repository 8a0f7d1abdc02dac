#include "obs/run_report.h"

#include <algorithm>
#include <fstream>

namespace cluseq {
namespace obs {

namespace {

const char* VisitOrderName(VisitOrder order) {
  switch (order) {
    case VisitOrder::kFixed:
      return "fixed";
    case VisitOrder::kRandom:
      return "random";
    case VisitOrder::kClusterBased:
      return "cluster_based";
  }
  return "unknown";
}

const char* PruneStrategyName(PruneStrategy strategy) {
  switch (strategy) {
    case PruneStrategy::kSmallestCountFirst:
      return "smallest_count_first";
    case PruneStrategy::kLongestLabelFirst:
      return "longest_label_first";
    case PruneStrategy::kExpectedVectorFirst:
      return "expected_vector_first";
  }
  return "unknown";
}

void WriteOptions(JsonWriter& writer, const CluseqOptions& options) {
  writer.BeginObject();
  writer.KeyValue("initial_clusters", uint64_t{options.initial_clusters});
  writer.KeyValue("similarity_threshold", options.similarity_threshold);
  writer.KeyValue("auto_initial_threshold", options.auto_initial_threshold);
  writer.KeyValue("auto_threshold_quantile", options.auto_threshold_quantile);
  writer.KeyValue("rebuild_each_iteration", options.rebuild_each_iteration);
  writer.KeyValue("within_scan_updates", options.within_scan_updates);
  writer.KeyValue("batched_scan", options.batched_scan);
  writer.KeyValue("prefilter", options.prefilter);
  writer.KeyValue("adjust_bound_window", options.adjust_bound_window);
  writer.KeyValue("signature_budget_bytes",
                  uint64_t{options.signature_budget_bytes});
  writer.KeyValue("prefilter_prefix", uint64_t{options.prefilter_prefix});
  writer.KeyValue("significance_threshold",
                  uint64_t{options.significance_threshold});
  writer.KeyValue("sample_multiplier", options.sample_multiplier);
  writer.KeyValue("adjust_threshold", options.adjust_threshold);
  writer.KeyValue("histogram_buckets", uint64_t{options.histogram_buckets});
  writer.KeyValue("min_unique_members", uint64_t{options.min_unique_members});
  writer.KeyValue("max_iterations", uint64_t{options.max_iterations});
  writer.KeyValue("visit_order",
                  std::string_view(VisitOrderName(options.visit_order)));
  writer.KeyValue("num_threads", uint64_t{options.num_threads});
  writer.KeyValue("rng_seed", uint64_t{options.rng_seed});
  writer.KeyValue("verbose", options.verbose);
  writer.KeyValue("checkpoint_dir", std::string_view(options.checkpoint_dir));
  writer.KeyValue("checkpoint_every", uint64_t{options.checkpoint_every});
  writer.KeyValue("resume", options.resume);
  writer.Key("pst");
  writer.BeginObject();
  writer.KeyValue("max_depth", uint64_t{options.pst.max_depth});
  writer.KeyValue("significance_threshold",
                  uint64_t{options.pst.significance_threshold});
  writer.KeyValue("max_memory_bytes", uint64_t{options.pst.max_memory_bytes});
  writer.KeyValue(
      "prune_strategy",
      std::string_view(PruneStrategyName(options.pst.prune_strategy)));
  writer.KeyValue("smoothing_p_min", options.pst.smoothing_p_min);
  writer.EndObject();
  writer.EndObject();
}

void WriteIterationStats(JsonWriter& writer, const IterationStats& stats) {
  writer.BeginObject();
  writer.KeyValue("iteration", uint64_t{stats.iteration});
  writer.KeyValue("new_clusters", uint64_t{stats.new_clusters});
  writer.KeyValue("consolidated", uint64_t{stats.consolidated});
  writer.KeyValue("clusters_after", uint64_t{stats.clusters_after});
  writer.KeyValue("unclustered", uint64_t{stats.unclustered});
  writer.KeyValue("log_threshold", stats.log_threshold);
  writer.KeyValue("seconds", stats.seconds);
  writer.KeyValue("refrozen_clusters", uint64_t{stats.refrozen_clusters});
  writer.KeyValue("scan_seconds", stats.scan_seconds);
  writer.KeyValue("pst_nodes_total", uint64_t{stats.pst_nodes_total});
  writer.KeyValue("pst_arena_bytes_total",
                  uint64_t{stats.pst_arena_bytes_total});
  writer.KeyValue("frozen_states_total",
                  uint64_t{stats.frozen_states_total});
  writer.KeyValue("frozen_bytes_total", uint64_t{stats.frozen_bytes_total});
  writer.KeyValue("pst_pruned_total", uint64_t{stats.pst_pruned_total});
  writer.KeyValue("seed_seconds", stats.seed_seconds);
  writer.KeyValue("rebuild_seconds", stats.rebuild_seconds);
  writer.KeyValue("resegment_seconds", stats.resegment_seconds);
  writer.KeyValue("build_seconds", stats.build_seconds);
  writer.KeyValue("freeze_seconds", stats.freeze_seconds);
  writer.KeyValue("trim_seconds", stats.trim_seconds);
  writer.KeyValue("join_seconds", stats.join_seconds);
  writer.KeyValue("absorb_seconds", stats.absorb_seconds);
  writer.KeyValue("consolidate_seconds", stats.consolidate_seconds);
  writer.EndObject();
}

void WritePhasePerf(JsonWriter& writer, const PhasePerf& phase) {
  writer.BeginObject();
  writer.KeyValue("phase", std::string_view(phase.phase));
  for (const auto& [name, value] : phase.counters) {
    writer.KeyValue(name, uint64_t{value});
  }
  writer.KeyValue("utime_seconds", phase.utime_seconds);
  writer.KeyValue("stime_seconds", phase.stime_seconds);
  writer.KeyValue("major_faults", uint64_t{phase.major_faults});
  writer.KeyValue("maxrss_kb", uint64_t{phase.maxrss_kb});
  writer.EndObject();
}

/// Run-wide aggregates of the per-iteration phase records: counter totals
/// keyed by event name (insertion order = event order), rusage totals, and
/// the RSS high-water mark.
struct PerfSummary {
  std::vector<std::pair<std::string, uint64_t>> counter_totals;
  double utime_seconds = 0.0;
  double stime_seconds = 0.0;
  uint64_t major_faults = 0;
  uint64_t maxrss_kb = 0;
};

PerfSummary SummarizePerf(const RunReport& report) {
  PerfSummary sum;
  for (const IterationStats& stats : report.iterations) {
    for (const PhasePerf& phase : stats.phase_perf) {
      sum.utime_seconds += phase.utime_seconds;
      sum.stime_seconds += phase.stime_seconds;
      sum.major_faults += phase.major_faults;
      sum.maxrss_kb = std::max(sum.maxrss_kb, phase.maxrss_kb);
      for (const auto& [name, value] : phase.counters) {
        auto it = std::find_if(
            sum.counter_totals.begin(), sum.counter_totals.end(),
            [&](const auto& row) { return row.first == name; });
        if (it == sum.counter_totals.end()) {
          sum.counter_totals.emplace_back(name, value);
        } else {
          it->second += value;
        }
      }
    }
  }
  return sum;
}

}  // namespace

void WriteMetricsSnapshotJson(JsonWriter& writer,
                              const MetricsSnapshot& snapshot) {
  writer.BeginObject();
  writer.Key("counters");
  writer.BeginObject();
  for (const auto& row : snapshot.counters) {
    writer.KeyValue(row.name, uint64_t{row.value});
  }
  writer.EndObject();
  writer.Key("gauges");
  writer.BeginObject();
  for (const auto& row : snapshot.gauges) {
    writer.KeyValue(row.name, row.value);
  }
  writer.EndObject();
  writer.Key("histograms");
  writer.BeginArray();
  for (const auto& row : snapshot.histograms) {
    writer.BeginObject();
    writer.KeyValue("name", std::string_view(row.name));
    writer.Key("bounds");
    writer.BeginArray();
    for (double b : row.bounds) writer.Double(b);
    writer.EndArray();
    writer.Key("counts");
    writer.BeginArray();
    for (uint64_t c : row.counts) writer.UInt(c);
    writer.EndArray();
    writer.KeyValue("total_count", uint64_t{row.total_count});
    writer.KeyValue("sum", row.sum);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
}

void WriteRunReportJson(const RunReport& report, std::ostream& out) {
  JsonWriter writer(out);
  writer.BeginObject();
  writer.KeyValue("schema", std::string_view("cluseq.run_report.v1"));

  writer.Key("options");
  WriteOptions(writer, report.options);

  writer.Key("input");
  writer.BeginObject();
  writer.KeyValue("num_sequences", uint64_t{report.num_sequences});
  writer.KeyValue("alphabet_size", uint64_t{report.alphabet_size});
  if (!report.corpus_format.empty()) {
    writer.Key("corpus");
    writer.BeginObject();
    writer.KeyValue("format", std::string_view(report.corpus_format));
    writer.KeyValue("records", uint64_t{report.corpus_records});
    writer.KeyValue("bytes", uint64_t{report.corpus_bytes});
    writer.KeyValue("mmap", report.corpus_mmap);
    writer.EndObject();
  }
  writer.EndObject();

  writer.Key("summary");
  writer.BeginObject();
  writer.KeyValue("num_clusters", uint64_t{report.num_clusters});
  writer.KeyValue("num_unclustered", uint64_t{report.num_unclustered});
  writer.KeyValue("iterations", uint64_t{report.total_iterations});
  writer.KeyValue("stop_reason",
                  std::string_view(StopReasonName(report.stop_reason)));
  writer.KeyValue("final_log_threshold", report.final_log_threshold);
  writer.KeyValue("total_seconds", report.total_seconds);
  writer.KeyValue("effective_threads", uint64_t{report.effective_threads});
  writer.Key("prefilter");
  writer.BeginObject();
  writer.KeyValue("enabled", report.prefilter_enabled);
  writer.KeyValue("skip_ratio", report.prefilter_skip_ratio);
  writer.KeyValue("sig_tier", std::string_view(report.prefilter_sig_tier));
  writer.EndObject();
  writer.Key("checkpoint");
  writer.BeginObject();
  writer.KeyValue("enabled", report.checkpoint_enabled);
  writer.KeyValue("saves", uint64_t{report.checkpoint_saves});
  writer.KeyValue("last_iteration", uint64_t{report.checkpoint_last_iteration});
  writer.KeyValue("resumed", report.resumed_from_checkpoint);
  writer.KeyValue("interrupted", report.interrupted);
  writer.EndObject();
  {
    const PerfSummary perf = SummarizePerf(report);
    writer.Key("perf");
    writer.BeginObject();
    writer.KeyValue("available", report.perf_available);
    for (const auto& [name, value] : perf.counter_totals) {
      writer.KeyValue(name, uint64_t{value});
    }
    writer.KeyValue("utime_seconds", perf.utime_seconds);
    writer.KeyValue("stime_seconds", perf.stime_seconds);
    writer.KeyValue("major_faults", uint64_t{perf.major_faults});
    writer.KeyValue("maxrss_kb", uint64_t{perf.maxrss_kb});
    writer.EndObject();
  }
  writer.EndObject();

  writer.Key("iterations");
  writer.BeginArray();
  for (size_t i = 0; i < report.iterations.size(); ++i) {
    writer.BeginObject();
    writer.Key("stats");
    WriteIterationStats(writer, report.iterations[i]);
    if (!report.iterations[i].phase_perf.empty()) {
      writer.Key("perf");
      writer.BeginArray();
      for (const PhasePerf& phase : report.iterations[i].phase_perf) {
        WritePhasePerf(writer, phase);
      }
      writer.EndArray();
    }
    if (i < report.iteration_metrics.size()) {
      writer.Key("metrics");
      WriteMetricsSnapshotJson(writer, report.iteration_metrics[i]);
    }
    writer.EndObject();
  }
  writer.EndArray();

  writer.Key("baseline_metrics");
  WriteMetricsSnapshotJson(writer, report.baseline_metrics);
  writer.Key("final_metrics");
  WriteMetricsSnapshotJson(writer, report.final_metrics);

  if (report.has_eval) {
    writer.Key("eval");
    writer.BeginObject();
    writer.KeyValue("correct_fraction", report.eval_correct_fraction);
    writer.KeyValue("macro_f1", report.eval_macro_f1);
    writer.KeyValue("purity", report.eval_purity);
    writer.KeyValue("nmi", report.eval_nmi);
    writer.KeyValue("found_clusters", uint64_t{report.eval_found_clusters});
    writer.KeyValue("unassigned", uint64_t{report.eval_unassigned});
    writer.EndObject();
  }

  writer.EndObject();
}

Status WriteRunReportJsonFile(const RunReport& report,
                              const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  WriteRunReportJson(report, out);
  out.flush();
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace cluseq
