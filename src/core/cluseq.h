// The CLUSEQ clustering algorithm (paper §4).
//
// Starting from k initial clusters seeded from the unclustered pool, each
// iteration (1) generates new clusters from unclustered sequences at a pace
// set by the growth factor f, (2) re-examines every sequence against every
// cluster, joining all clusters whose similarity exceeds the threshold t and
// feeding the maximizing segment back into the joined cluster's PST,
// (3) consolidates heavily-overlapped clusters (smallest first; a cluster
// whose unique-member count is too small is dismissed), and (4) optionally
// adjusts t toward the histogram-valley estimate. The process stops when the
// clustering no longer changes.
//
// Clusters may overlap and some sequences may remain unclustered (outliers);
// both are intended behaviors of the model.

#ifndef CLUSEQ_CORE_CLUSEQ_H_
#define CLUSEQ_CORE_CLUSEQ_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cluster.h"
#include "obs/perf_counters.h"
#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
#include "seq/sequence.h"
#include "seq/sequence_store.h"
#include "util/cancellation.h"
#include "util/rng.h"
#include "util/status.h"

namespace cluseq {

namespace obs {
struct RunReport;  // obs/run_report.h; owned by CluseqClusterer.
}  // namespace obs

struct ClustererCheckpoint;  // core/checkpoint.h; used by Run() internally.
class ThresholdAdjuster;     // core/threshold.h.

/// Order in which sequences are examined during re-clustering (§6.3).
enum class VisitOrder {
  kFixed,         ///< By sequence id; identical order every iteration.
  kRandom,        ///< A fresh random permutation per iteration.
  kClusterBased,  ///< Members of the same previous cluster visited together.
};

struct CluseqOptions {
  /// k: number of clusters generated at the first iteration (paper default 1).
  size_t initial_clusters = 1;

  /// t: similarity threshold in natural units (>= 1). Compared against
  /// SIM_S(σ) — internally log t vs log SIM.
  double similarity_threshold = 1.0005;

  /// When true (default), the initial t is estimated from the data instead
  /// of `similarity_threshold`: a small sample of sequences is modeled by
  /// single-sequence PSTs and log t starts at a quantile of their pairwise
  /// similarities. The paper's fixed default presumes its weak-signal
  /// datasets (cross-cluster SIM < 2); on stronger data a far-too-low start
  /// lets iteration 1 collapse everything into one self-sustaining mega
  /// cluster. Set false to start exactly at `similarity_threshold` (the
  /// Table 6 sensitivity experiment does this).
  bool auto_initial_threshold = true;

  /// Quantile of sample pairwise similarities used by the auto start.
  double auto_threshold_quantile = 0.5;

  /// Rebuild each cluster's PST from its current membership at the start of
  /// every iteration (purification; see DESIGN.md). The paper's PSTs only
  /// ever accumulate counts, which freezes early pollution in place; set
  /// false to reproduce that cumulative behavior (used by the order
  /// sensitivity ablation).
  bool rebuild_each_iteration = true;

  /// The paper's §4.2 scan examines sequences one at a time and feeds each
  /// join's maximizing segment into the joined cluster's PST *within* the
  /// scan, so later sequences in the same iteration are scored against
  /// already-updated summaries — the effect the §6.3 order study measures.
  /// Default off: each iteration freezes every cluster summary into a
  /// compiled automaton (FrozenPst), scores all sequences against the
  /// snapshots in parallel, and applies joins and segment absorption
  /// afterwards. Scores are bit-for-bit what the live path produces against
  /// the same summaries, but the iteration becomes order-independent (the
  /// visit order only matters when this is true) and parallel across
  /// sequences as well as clusters.
  bool within_scan_updates = false;

  /// Score many (sequence, model) pairs per pass instead of one automaton
  /// scan per pair: the batch re-cluster scan and the rebuild's resegment
  /// pass score each snapshot against chunks of sequences at once
  /// (ComputeSimilarities); threshold estimation, seeding and Classify()
  /// score each sequence against all models in one interleaved pass
  /// (FrozenBank::ScanAll). Results are bit-for-bit identical either way,
  /// so this is purely a performance switch (the off path, one
  /// ComputeSimilarity per pair, is the correctness oracle). Ignored by the
  /// §4.2 within-scan-updates mode, which must score against live trees.
  bool batched_scan = true;

  /// Multi-level candidate pruning in front of the banked argmax scans
  /// (ScanPrefilter, DESIGN.md §14): admissible block/signature/prefix-DP
  /// upper bounds skip models that provably cannot beat the best one, and
  /// survivors run the exact DP over just their rows. Used by seeding's
  /// screens and by Classify(); the re-cluster scan is exhaustive. Outputs
  /// are bit-for-bit identical with the prefilter on or off — every skip is
  /// justified by an admissible bound — so, like batched_scan, this is
  /// purely a performance switch (the off path doubles as the correctness
  /// oracle). Requires batched_scan.
  bool prefilter = true;

  /// Width W of the §4.6 histogram window: scores below log t − W are
  /// censored from the threshold adjuster's histogram. Larger W = more of
  /// the score distribution visible to the valley finder. Algorithmic:
  /// affects the adjuster trajectory, so it participates in the checkpoint
  /// option fingerprint. Must be > 0.
  double adjust_bound_window = 64.0;

  /// Byte budget for the Classify() bank's per-model signature tables,
  /// which decide the prefilter bound order: trigram caps within budget,
  /// else bigram, else per-symbol maxima (FrozenBank::SelectSignatureTier).
  /// Purely a perf/memory trade — any tier is admissible. 0 forces the
  /// unigram tier.
  size_t signature_budget_bytes = FrozenBank::kDefaultSignatureBudgetBytes;

  /// Symbols covered by Classify()'s level-1.5 truncated-prefix DP bound
  /// (ScanPrefilter::kDefaultL15Prefix = 96); 0 disables that level.
  /// Purely a perf switch — the bound is admissible at any prefix.
  size_t prefilter_prefix = 96;

  /// c: significance threshold for PST nodes (paper rule of thumb: >= 30).
  uint64_t significance_threshold = 30;

  /// Sample size multiplier: m = multiplier × k_n (paper uses 5).
  double sample_multiplier = 5.0;

  /// Enables automatic adjustment of t (§4.6).
  bool adjust_threshold = true;

  /// Histogram granularity for the t adjustment.
  size_t histogram_buckets = 100;

  /// Consolidation dismisses clusters with fewer unique members than this;
  /// 0 means "use significance_threshold" (the paper's "say, < c").
  size_t min_unique_members = 0;

  /// Hard cap on iterations (the paper iterates to a fixed point; this
  /// guards pathological oscillation).
  size_t max_iterations = 50;

  VisitOrder visit_order = VisitOrder::kFixed;

  /// Threads used across the iteration: scan, seeding, re-freeze, PST
  /// rebuild, and the batch join/absorb phase. 0 = auto-detect
  /// (HardwareThreads()); resolved once at construction, so the RunReport
  /// echoes the effective width. Clusterings are bit-for-bit identical
  /// across thread counts.
  size_t num_threads = 1;

  /// Seed for all randomized steps (sampling, random visit order).
  uint64_t rng_seed = 42;

  /// Per-cluster PST configuration (depth bound, memory budget, pruning
  /// strategy, smoothing). Its significance_threshold is overridden by the
  /// field above so there is a single source of truth for c.
  PstOptions pst;

  /// Emit per-iteration progress via CLUSEQ_LOG(kInfo).
  bool verbose = false;

  /// Directory for crash-safe checkpoints (DESIGN.md §16). Empty (default)
  /// disables checkpointing entirely — the run pays nothing, not even the
  /// per-boundary state encode.
  std::string checkpoint_dir;

  /// Write a checkpoint every N completed iterations (the boundary state
  /// is still captured in memory every iteration so a cancellation can
  /// flush the newest one). 0 disables checkpointing even when a directory
  /// is set.
  size_t checkpoint_every = 1;

  /// Resume from the newest loadable checkpoint in `checkpoint_dir`. A
  /// missing directory or an empty one falls back to a fresh start with a
  /// warning; a checkpoint written against a different corpus or different
  /// algorithmic options fails with FailedPrecondition. Requires
  /// `checkpoint_dir` to be set.
  bool resume = false;

  /// When resuming, refuse to fall back from a corrupt newest checkpoint
  /// to the previous one: fail with Status::Corruption instead.
  bool checkpoint_strict = false;

  /// Optional cooperative-cancellation token (not owned; must outlive the
  /// run). Run() polls it at phase boundaries; once it fires, the run
  /// abandons the in-flight iteration, flushes the newest boundary
  /// checkpoint (when checkpointing), and returns OK with
  /// ClusteringResult::interrupted set and the last completed iteration's
  /// clustering. Resuming afterwards replays the abandoned iteration, so
  /// the eventual final clustering is bit-for-bit what an uninterrupted
  /// run produces.
  const CancellationToken* cancellation = nullptr;

  Status Validate() const;
};

/// Per-iteration diagnostics.
struct IterationStats {
  size_t iteration = 0;
  size_t new_clusters = 0;
  size_t consolidated = 0;
  size_t clusters_after = 0;
  size_t unclustered = 0;
  double log_threshold = 0.0;
  double seconds = 0.0;
  /// Cluster summaries compiled to snapshots this iteration. Stays 0 on a
  /// fixed-point iteration (no tree changed), thanks to the dirty-bit
  /// incremental re-freeze.
  size_t refrozen_clusters = 0;
  /// Wall time of the re-cluster similarity scan (the snapshots it compiles
  /// and the scoring, excluding the join/absorb apply phase).
  double scan_seconds = 0.0;
  /// What the cluster summaries hold at the end of the iteration. A run
  /// keeps live trees only in §4.2 within-scan mode or under a memory
  /// budget; otherwise its clusters keep their contributions and compiled
  /// snapshots alone (core/cluster.h), and the two pst_* fields read 0.
  /// pst_nodes_total: live PST nodes across the live clusters.
  /// pst_arena_bytes_total: bytes their trees reserve (Pst::ArenaBytes),
  /// real memory, unlike the §5.1 cost model that --pst-memory budgets are
  /// checked against (Pst::ApproxMemoryBytes).
  size_t pst_nodes_total = 0;
  size_t pst_arena_bytes_total = 0;
  /// Automaton states and table bytes (FrozenPst::ApproxMemoryBytes)
  /// across every cluster's latest snapshot (significant contexts plus
  /// closure states), in either mode.
  size_t frozen_states_total = 0;
  size_t frozen_bytes_total = 0;
  /// Nodes pruned from cluster PSTs during this iteration (all §5.1
  /// strategies combined; rebuilt trees count their own pruning).
  size_t pst_pruned_total = 0;
  /// Wall time of cluster seeding (PST rebuild + new-cluster generation).
  double seed_seconds = 0.0;
  /// Nested leaves of the phases above. rebuild_seconds: the per-iteration
  /// purification (RebuildClusterPsts, inside seed_seconds) without its
  /// snapshots, the sum of resegment_seconds (each member's best segment
  /// recomputed against the post-join snapshots) and build_seconds (the
  /// summaries reset to those segments: live trees rebuilt, compiled
  /// clusters' contributions recorded); freeze_seconds: every snapshot
  /// made in the iteration, from compiled clusters' contributions
  /// (FrozenPst::Compile) or from live trees (inside seed_seconds and
  /// scan_seconds); trim_seconds: handing freed heap back to the system
  /// once per iteration after the rebuild (malloc_trim, inside
  /// seed_seconds, not in rebuild_seconds).
  double rebuild_seconds = 0.0;
  double resegment_seconds = 0.0;
  double build_seconds = 0.0;
  double freeze_seconds = 0.0;
  double trim_seconds = 0.0;
  /// Wall time of the join/absorb apply phase (0 in §4.2 within-scan mode,
  /// where joins are applied inside the scan itself).
  double join_seconds = 0.0;
  /// Nested leaf of join_seconds: the newcomers' segments added to their
  /// clusters (recorded by compiled clusters, inserted into live trees).
  double absorb_seconds = 0.0;
  /// Wall time of consolidation + membership view rebuild.
  double consolidate_seconds = 0.0;
  /// Per-phase perf-counter and getrusage deltas (seed / scan / join /
  /// consolidate / adjust_t). Counters are empty when perf_event_open is
  /// unavailable; the rusage fields are always filled. Observability only —
  /// never feeds back into clustering decisions, so determinism tests that
  /// compare the algorithmic fields above stay untouched.
  std::vector<obs::PhasePerf> phase_perf;
};

/// Why Run() stopped iterating.
enum class StopReason {
  /// An iteration left the clusters, their memberships and t unchanged.
  kFixedPoint,
  /// The loop ran options.max_iterations iterations.
  kMaxIterations,
  /// The cancellation token fired; the result is the last completed
  /// iteration boundary.
  kCancelled,
};

/// "fixed_point", "max_iterations" or "cancelled".
const char* StopReasonName(StopReason reason);

struct ClusteringResult {
  /// Member sequence indices of each final cluster (clusters may overlap).
  std::vector<std::vector<size_t>> clusters;

  /// For each sequence: index into `clusters` of the joined cluster with the
  /// highest similarity, or -1 for outliers.
  std::vector<int32_t> best_cluster;

  /// For each sequence: highest log SIM against any final cluster (whether
  /// or not it exceeded the threshold). -inf when there were no clusters.
  std::vector<double> best_log_sim;

  /// Final similarity threshold, log and natural units.
  double final_log_threshold = 0.0;
  double final_threshold() const;

  size_t iterations = 0;
  size_t num_unclustered = 0;
  std::vector<IterationStats> iteration_stats;

  /// True when the run was stopped by the cancellation token before
  /// reaching its fixed point. The clustering fields then reflect the last
  /// *completed* iteration (never a half-executed one), and a checkpointed
  /// run can be resumed to completion.
  bool interrupted = false;

  /// True when this run resumed from a checkpoint instead of starting
  /// fresh.
  bool resumed_from_checkpoint = false;

  /// Why the loop stopped. An empty database is a fixed point.
  StopReason stop_reason = StopReason::kMaxIterations;

  size_t num_clusters() const { return clusters.size(); }
};

class CluseqClusterer {
 public:
  /// `db` must outlive the clusterer. Any SequenceStore works: the in-RAM
  /// SequenceDatabase or the mmap-backed SeqDbReader — the loop only ever
  /// reads symbol spans, lengths, and the alphabet.
  CluseqClusterer(const SequenceStore& db, CluseqOptions options);
  ~CluseqClusterer();  // Out of line: report_ points to an incomplete type.

  /// Runs the full iterative algorithm. Idempotent per instance: a second
  /// call restarts from scratch.
  Status Run(ClusteringResult* result);

  /// Machine-readable record of the last Run(): options echo, per-iteration
  /// stats and metrics snapshots, final metrics. Null before the first run;
  /// serialize with obs::WriteRunReportJson (the CLI's --metrics_json).
  const obs::RunReport* report() const { return report_.get(); }

  /// Final cluster states (PSTs + members); valid after Run(). Useful for
  /// classifying new sequences against the discovered clusters.
  const std::vector<Cluster>& clusters() const { return clusters_; }
  const BackgroundModel& background() const { return background_; }

  /// Classifies a new sequence: returns the index of the most similar final
  /// cluster and its log similarity, or -1 when below the final threshold.
  /// Scores against the frozen snapshots cached by Run(), so repeated calls
  /// pay no tree-walk cost.
  int32_t Classify(std::span<const SymbolId> symbols,
                   double* log_sim = nullptr) const;
  int32_t Classify(const Sequence& seq, double* log_sim = nullptr) const {
    return Classify(std::span<const SymbolId>(seq.symbols()), log_sim);
  }

 private:
  size_t PlanNewClusters(size_t iteration) const;
  double EstimateInitialLogThreshold();
  void GenerateNewClusters(size_t count);
  // Whether the run's clusters are compiled (only their contributions):
  // batch mode without a memory budget. Otherwise they are live (see
  // core/cluster.h).
  bool CompiledClusters() const;
  // An empty cluster of the run's kind.
  Cluster NewCluster(uint32_t id) const;
  // Compiles a snapshot for every cluster whose summary changed since its
  // last one (in parallel); untouched clusters keep their cached snapshot.
  // Returns how many clusters were (re)compiled.
  size_t RefreshFrozen();
  // The per-cluster cached snapshots, in cluster order. Call after
  // RefreshFrozen(); entries are null only for never-frozen clusters.
  std::vector<std::shared_ptr<const FrozenPst>> Snapshots() const;
  // Rebuilds each cluster's PST from its current members (purification).
  void RebuildClusterPsts();
  // Re-examines every sequence; fills joined_, all_log_sims_.
  void Recluster();
  std::vector<size_t> VisitOrderIndices();
  // Returns the number of clusters dismissed.
  size_t Consolidate();
  void RebuildMembershipViews();
  std::vector<uint64_t> MembershipFingerprint() const;
  // Serializes the complete iteration-boundary state (checkpoint.h).
  ClustererCheckpoint BuildCheckpoint(
      uint64_t iteration, const ThresholdAdjuster& adjuster,
      const std::vector<uint64_t>& prev_fingerprint,
      bool have_prev_fingerprint) const;
  // Reinstates the clusterer from a decoded checkpoint after validating
  // the options/corpus fingerprints. On failure the clusterer state is
  // unspecified but the next fresh Run() reinitializes everything.
  Status RestoreFromCheckpoint(const ClustererCheckpoint& ckpt,
                               ThresholdAdjuster* adjuster,
                               std::vector<uint64_t>* prev_fingerprint,
                               bool* have_prev_fingerprint);

  const SequenceStore& db_;
  CluseqOptions options_;
  BackgroundModel background_;
  Rng rng_;
  std::vector<Cluster> clusters_;
  // The final cluster snapshots packed into one scoring arena, assembled
  // at the end of Run() so Classify() is a single interleaved scan.
  FrozenBank bank_;
  uint32_t next_cluster_id_ = 0;
  double log_t_ = 0.0;
  // Per-iteration scan diagnostics (reset in Run()'s loop).
  size_t refrozen_this_iter_ = 0;
  double scan_seconds_this_iter_ = 0.0;
  double join_seconds_this_iter_ = 0.0;
  double absorb_seconds_this_iter_ = 0.0;
  double freeze_seconds_this_iter_ = 0.0;
  double resegment_seconds_this_iter_ = 0.0;
  double build_seconds_this_iter_ = 0.0;
  double trim_seconds_this_iter_ = 0.0;
  // Per-phase perf/rusage sampling; drained into IterationStats each
  // iteration. Opens the process-wide PerfCounterSet lazily on first use.
  obs::PhasePerfCollector phase_perf_;
  std::unique_ptr<obs::RunReport> report_;

  // Per-sequence (cluster position, log sim, segment) of joined clusters,
  // refreshed every iteration.
  struct Joined {
    uint32_t cluster_id;
    double log_sim;
  };
  std::vector<std::vector<Joined>> joined_;
  std::vector<double> best_log_sim_;
  std::vector<int32_t> prev_best_cluster_;  // For cluster-based order.
  std::vector<double> all_log_sims_;
  std::vector<size_t> unclustered_;
  size_t prev_new_ = 0;
  size_t prev_consolidated_ = 0;
};

/// Convenience one-shot entry point.
Status RunCluseq(const SequenceStore& db, const CluseqOptions& options,
                 ClusteringResult* result);

}  // namespace cluseq

#endif  // CLUSEQ_CORE_CLUSEQ_H_
