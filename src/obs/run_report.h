// Machine-readable record of one CluseqClusterer::Run.
//
// The clusterer fills a RunReport as it goes: an echo of the effective
// options, the per-iteration IterationStats alongside a metrics-registry
// snapshot taken at the end of each iteration, the final registry state,
// and the headline summary numbers. Consumers (cluseq_cli --metrics_json,
// tests, downstream analysis) serialize it with WriteRunReportJson — one
// stable JSON schema instead of scraping logs.
//
// Registry snapshots are cumulative process-wide values; to get "what did
// this run do", difference a snapshot against `baseline_metrics` (taken
// when Run() starts). The serializer emits the raw snapshots so consumers
// can make either choice.

#ifndef CLUSEQ_OBS_RUN_REPORT_H_
#define CLUSEQ_OBS_RUN_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "core/cluseq.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace cluseq {
namespace obs {

struct RunReport {
  /// Effective options the run executed with.
  CluseqOptions options;

  /// Input shape.
  size_t num_sequences = 0;
  size_t alphabet_size = 0;

  /// Thread count the run actually used: `options.num_threads` after the
  /// 0 = auto-detect resolution to HardwareThreads().
  size_t effective_threads = 0;

  /// Corpus source, filled by callers that load the input themselves (the
  /// CLI does): "fasta" / "tsv" / "sqdb" / "synthetic", record and on-disk
  /// byte counts, and whether the bytes are served from an mmap (true only
  /// for the .sqdb path).
  std::string corpus_format;
  size_t corpus_records = 0;
  size_t corpus_bytes = 0;
  bool corpus_mmap = false;

  /// One entry per completed iteration, parallel arrays.
  std::vector<IterationStats> iterations;
  std::vector<MetricsSnapshot> iteration_metrics;

  /// Registry state when Run() started / returned.
  MetricsSnapshot baseline_metrics;
  MetricsSnapshot final_metrics;

  /// Headline summary (mirrors ClusteringResult).
  size_t num_clusters = 0;
  size_t num_unclustered = 0;
  size_t total_iterations = 0;
  double final_log_threshold = 0.0;
  double total_seconds = 0.0;

  /// Prefilter aggregates across all iterations. `prefilter_enabled` echoes
  /// whether the run was eligible to prune (option on, batched scan, not
  /// within-scan mode); the skip ratio is skipped pairs over all n × k
  /// pairs of prefiltered iterations (0 when none pruned, e.g. because the
  /// threshold adjuster never froze).
  bool prefilter_enabled = false;
  double prefilter_skip_ratio = 0.0;
  /// Level-1.5 truncated-DP drops as a fraction of all pairs (subset of
  /// the skip ratio), and the signature tier the bank selected under the
  /// byte budget ("unigram" / "bigram" / "trigram"; empty when no bank
  /// was assembled).
  double prefilter_l15_ratio = 0.0;
  std::string prefilter_sig_tier;

  /// Whether perf_event_open counters were live for this run (the process-
  /// wide default set opened). The `summary.perf` aggregates — counter
  /// totals, rusage totals, the RSS high-water mark — are derived from the
  /// per-iteration phase records at serialization time; counter keys are
  /// omitted entirely when unavailable, so consumers distinguish "no perf"
  /// from "zero events".
  bool perf_available = false;

  /// Checkpointing summary: whether the run wrote checkpoints, how many
  /// saves landed on disk, the iteration of the newest one, whether the run
  /// started from a checkpoint, and whether it ended early on a
  /// cancellation request (SIGINT/SIGTERM or --max_seconds). `interrupted`
  /// reports are still complete and valid — they describe the last finished
  /// iteration boundary.
  bool checkpoint_enabled = false;
  size_t checkpoint_saves = 0;
  size_t checkpoint_last_iteration = 0;
  bool resumed_from_checkpoint = false;
  bool interrupted = false;

  /// Why the loop stopped (ClusteringResult::stop_reason).
  StopReason stop_reason = StopReason::kMaxIterations;

  /// External evaluation, filled by callers that have ground-truth labels
  /// (the CLI does when the input carries them).
  bool has_eval = false;
  double eval_correct_fraction = 0.0;
  double eval_macro_f1 = 0.0;
  double eval_purity = 0.0;
  double eval_nmi = 0.0;
  size_t eval_found_clusters = 0;
  size_t eval_unassigned = 0;
};

/// Serializes one registry snapshot as {"counters": {...}, "gauges": {...},
/// "histograms": [...]}. Shared by the run report and anything else that
/// wants a raw snapshot dump.
void WriteMetricsSnapshotJson(JsonWriter& writer,
                              const MetricsSnapshot& snapshot);

/// Serializes the full report as a single JSON object.
void WriteRunReportJson(const RunReport& report, std::ostream& out);
Status WriteRunReportJsonFile(const RunReport& report,
                              const std::string& path);

}  // namespace obs
}  // namespace cluseq

#endif  // CLUSEQ_OBS_RUN_REPORT_H_
