#include "core/cluseq.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/checkpoint.h"
#include "core/prefilter.h"
#include "core/seeding.h"
#include "core/similarity.h"
#include "core/threshold.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cluseq {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Runs `work(ci, threads)` once for each cluster index ci in `clusters`,
// where symbols[ci] is the cost of its work. A cluster holding at least a
// worker's share of the cost runs alone on every worker, so one large
// cluster is not left to a single thread; the others run side by side, one
// worker each. Without `alone` (work that runs on one thread anyway: a live
// tree's freeze, or its rebuild under a memory budget, which takes the
// insertion loop) every cluster runs side by side.
template <typename Work>
void ScheduleClusterWork(std::span<const size_t> clusters,
                         std::span<const uint64_t> symbols, size_t threads,
                         bool alone, Work work) {
  uint64_t total = 0;
  for (size_t ci : clusters) total += symbols[ci];
  std::vector<size_t> shared;
  for (size_t ci : clusters) {
    if (alone && threads > 1 && symbols[ci] * threads >= total) {
      work(ci, threads);
    } else {
      shared.push_back(ci);
    }
  }
  ParallelForWeighted(
      shared.size(), threads,
      [&](size_t i) -> uint64_t { return symbols[shared[i]]; },
      [&](size_t i) { work(shared[i], 1); });
}

uint64_t HashMembers(const std::vector<size_t>& members) {
  // FNV-1a over the (already sorted) member indices.
  uint64_t h = 1469598103934665603ULL;
  for (size_t m : members) {
    h ^= static_cast<uint64_t>(m);
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

Status CluseqOptions::Validate() const {
  if (initial_clusters == 0) {
    return Status::InvalidArgument("initial_clusters must be >= 1");
  }
  if (!(similarity_threshold >= 1.0)) {
    return Status::InvalidArgument(
        "similarity_threshold must be >= 1 (paper §2)");
  }
  if (significance_threshold == 0) {
    return Status::InvalidArgument("significance_threshold must be >= 1");
  }
  if (!(sample_multiplier >= 1.0)) {
    return Status::InvalidArgument("sample_multiplier must be >= 1");
  }
  if (max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (histogram_buckets < 4) {
    return Status::InvalidArgument("histogram_buckets must be >= 4");
  }
  if (!(auto_threshold_quantile > 0.0) || !(auto_threshold_quantile < 1.0)) {
    return Status::InvalidArgument(
        "auto_threshold_quantile must be in (0, 1)");
  }
  if (resume && checkpoint_dir.empty()) {
    return Status::InvalidArgument("resume requires checkpoint_dir");
  }
  if (!(adjust_bound_window > 0.0)) {
    return Status::InvalidArgument("adjust_bound_window must be > 0");
  }
  return pst.Validate();
}

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kFixedPoint:
      return "fixed_point";
    case StopReason::kMaxIterations:
      return "max_iterations";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

double ClusteringResult::final_threshold() const {
  return std::exp(final_log_threshold);
}

CluseqClusterer::CluseqClusterer(const SequenceStore& db,
                                 CluseqOptions options)
    : db_(db), options_(options), rng_(options.rng_seed) {
  // Single source of truth for c.
  options_.pst.significance_threshold = options_.significance_threshold;
  // 0 = auto-detect: resolve once here so every phase (and the RunReport
  // echo) sees the effective width.
  options_.num_threads = ResolveThreads(options_.num_threads);
  bank_.set_signature_budget_bytes(options_.signature_budget_bytes);
}

CluseqClusterer::~CluseqClusterer() = default;

size_t CluseqClusterer::PlanNewClusters(size_t iteration) const {
  size_t planned;
  if (iteration == 1) {
    planned = options_.initial_clusters;
  } else {
    // Growth factor f = max(k'_n - k'_c, 0) / k'_n (see DESIGN.md on the
    // denominator): full pace while consolidation removes nothing, throttled
    // toward zero once new clusters start being merged away. The formula is
    // undefined at k'_n = 0; "nothing generated, nothing consolidated" reads
    // as full pace (otherwise growth could never restart after the threshold
    // rises and sequences fall back out of clusters), while "nothing
    // generated, some consolidated" reads as zero.
    double f;
    if (prev_new_ > 0) {
      f = std::max(static_cast<double>(prev_new_) -
                       static_cast<double>(prev_consolidated_),
                   0.0) /
          static_cast<double>(prev_new_);
    } else {
      f = prev_consolidated_ == 0 ? 1.0 : 0.0;
    }
    planned = static_cast<size_t>(
        std::llround(static_cast<double>(clusters_.size()) * f));
    // Rescue: with no clusters at all but unclustered sequences remaining,
    // always try at least one seed so the algorithm cannot stall at zero.
    if (clusters_.empty() && !unclustered_.empty()) {
      planned = std::max<size_t>(planned, 1);
    }
  }
  return std::min(planned, unclustered_.size());
}

double CluseqClusterer::EstimateInitialLogThreshold() {
  CLUSEQ_TRACE_SPAN("cluseq.estimate_threshold");
  static obs::Counter& estimates =
      obs::MetricsRegistry::Get().GetCounter("threshold.initial_estimates");
  estimates.Increment();
  const size_t n = db_.size();
  const size_t sample_size = std::min<size_t>(n, 24);
  if (sample_size < 3) return std::log(options_.similarity_threshold);
  std::vector<size_t> sample = rng_.SampleWithoutReplacement(n, sample_size);
  // Single-sequence summaries, compiled once each and scored pairwise with
  // the automaton scan.
  std::vector<std::shared_ptr<const FrozenPst>> frozen(sample_size);
  ParallelFor(sample_size, options_.num_threads, [&](size_t j) {
    const std::span<const SymbolId> sequence[] = {db_.Symbols(sample[j])};
    frozen[j] = std::make_shared<const FrozenPst>(FrozenPst::Compile(
        sequence, db_.alphabet().size(), options_.pst, background_, 1));
  });
  std::vector<double> pairwise(sample_size * sample_size, kNegInf);
  const auto sample_cost = [&](size_t i) -> uint64_t {
    return db_.Length(sample[i]);
  };
  if (options_.batched_scan) {
    // One interleaved pass per sample sequence scores it against every
    // other sample's model at once.
    const FrozenBank sample_bank(frozen);
    ParallelForWeighted(sample_size, options_.num_threads, sample_cost,
                        [&](size_t i) {
      std::vector<SimilarityResult> row =
          sample_bank.ScanAll(db_.Symbols(sample[i]));
      for (size_t j = 0; j < sample_size; ++j) {
        if (i == j) continue;
        pairwise[i * sample_size + j] = row[j].log_sim;
      }
    });
  } else {
    ParallelForWeighted(sample_size, options_.num_threads, sample_cost,
                        [&](size_t i) {
      for (size_t j = 0; j < sample_size; ++j) {
        if (i == j) continue;
        pairwise[i * sample_size + j] =
            ComputeSimilarity(*frozen[j], db_.Symbols(sample[i])).log_sim;
      }
    });
  }
  std::vector<double> sims;
  sims.reserve(sample_size * (sample_size - 1));
  for (double s : pairwise) {
    if (std::isfinite(s)) sims.push_back(s);
  }
  if (sims.size() < 8) return std::log(options_.similarity_threshold);
  size_t pos = static_cast<size_t>(options_.auto_threshold_quantile *
                                   static_cast<double>(sims.size() - 1));
  std::nth_element(sims.begin(), sims.begin() + static_cast<long>(pos),
                   sims.end());
  // t >= 1 always (paper §2).
  return std::max(sims[pos], 0.0);
}

void CluseqClusterer::GenerateNewClusters(size_t count) {
  if (count == 0) return;
  size_t sample_size = static_cast<size_t>(
      std::ceil(options_.sample_multiplier * static_cast<double>(count)));
  // Seeding scores samples against the existing clusters' snapshots, which
  // also pre-warms them for this iteration's re-cluster scan.
  RefreshFrozen();
  std::vector<size_t> seeds =
      SelectSeeds(db_, unclustered_, count, sample_size, Snapshots(),
                  background_, options_.pst, options_.num_threads, &rng_,
                  options_.batched_scan, options_.prefilter);
  for (size_t seq_index : seeds) {
    clusters_.push_back(NewCluster(next_cluster_id_++));
    clusters_.back().Seed(db_.Symbols(seq_index), seq_index);
  }
}

bool CluseqClusterer::CompiledClusters() const {
  // A compiled cluster's snapshot is a function of its contributions, so
  // batch mode needs no tree. §4.2 mode scores against trees that change
  // mid-scan, and a budget's pruning follows insertion order, so both keep
  // the live tree and update it in place.
  return !options_.within_scan_updates && options_.pst.max_memory_bytes == 0;
}

Cluster CluseqClusterer::NewCluster(uint32_t id) const {
  if (CompiledClusters()) return Cluster(id, db_, options_.pst);
  return Cluster(id, db_.alphabet().size(), options_.pst);
}

std::vector<size_t> CluseqClusterer::VisitOrderIndices() {
  std::vector<size_t> order(db_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  switch (options_.visit_order) {
    case VisitOrder::kFixed:
      break;
    case VisitOrder::kRandom:
      rng_.Shuffle(order);
      break;
    case VisitOrder::kClusterBased:
      if (!prev_best_cluster_.empty()) {
        std::stable_sort(order.begin(), order.end(),
                         [this](size_t a, size_t b) {
                           // Unclustered (-1) sequences go last.
                           uint32_t ca = prev_best_cluster_[a] < 0
                                             ? UINT32_MAX
                                             : static_cast<uint32_t>(
                                                   prev_best_cluster_[a]);
                           uint32_t cb = prev_best_cluster_[b] < 0
                                             ? UINT32_MAX
                                             : static_cast<uint32_t>(
                                                   prev_best_cluster_[b]);
                           return ca < cb;
                         });
      }
      break;
  }
  return order;
}

void CluseqClusterer::RebuildClusterPsts() {
  // Purification step: the paper only ever *adds* counts to a cluster's
  // PST, so sequences that joined under an early (too-permissive) threshold
  // would contaminate the summary forever. Rebuilding from the current
  // membership keeps the PST an honest summary of exactly its members —
  // each contributing the segment that maximized its similarity under the
  // outgoing summary. Orthogonal to `within_scan_updates`: this runs between
  // iterations, never inside a scan.
  //
  // Incremental skip: when the recomputed segments are exactly what the
  // summary already counts, rebuilding from them would reproduce the
  // identical summary (pure counting is commutative across insert order),
  // so it — and its compiled snapshot — is left untouched and the cluster
  // needs no re-freeze this iteration. A memory budget makes
  // insertion-order-dependent pruning kick in, so then we always rebuild.
  const bool can_skip = options_.pst.max_memory_bytes == 0;
  CLUSEQ_TRACE_SPAN("cluseq.rebuild_psts");
  Stopwatch resegment_timer;
  const double freeze_before = freeze_seconds_this_iter_;
  // Freeze every stale summary up front (independent per-cluster tasks);
  // the segment recomputation below reads only compiled snapshots, which
  // also spares the workers from contending on live-tree pointer chasing.
  // A stale empty cluster frozen here would have been frozen later in the
  // same iteration anyway, so the re-freeze totals are unchanged.
  RefreshFrozen();
  const size_t kc = clusters_.size();
  // Flatten (cluster, member) pairs so one cost-weighted pass balances the
  // whole rebuild at once; fanning out per cluster would serialize on small
  // clusters while one big cluster hogs a worker.
  struct Item {
    uint32_t cluster;
    uint32_t member;
  };
  std::vector<Item> items;
  std::vector<std::vector<std::pair<size_t, Cluster::Segment>>> contributions(
      kc);
  for (size_t ci = 0; ci < kc; ++ci) {
    const size_t count = clusters_[ci].members().size();
    contributions[ci].resize(count);
    for (size_t mi = 0; mi < count; ++mi) {
      items.push_back({static_cast<uint32_t>(ci), static_cast<uint32_t>(mi)});
    }
  }
  ParallelForWeighted(
      items.size(), options_.num_threads,
      [&](size_t i) -> uint64_t {
        const Item& it = items[i];
        return db_.Length(clusters_[it.cluster].members()[it.member]);
      },
      [&](size_t i) {
        const Item& it = items[i];
        const Cluster& cluster = clusters_[it.cluster];
        const size_t s = cluster.members()[it.member];
        SimilarityResult sim =
            ComputeSimilarity(*cluster.frozen(), db_.Symbols(s));
        contributions[it.cluster][it.member] = {
            s, {sim.best_begin, sim.best_end}};
      });
  resegment_seconds_this_iter_ += resegment_timer.ElapsedSeconds() -
                                  (freeze_seconds_this_iter_ - freeze_before);
  // Rebuild counts the members' segments in member order, so each summary
  // (and any pruning under a memory budget) is the serial insertion's, bit
  // for bit, on any number of workers. A compiled cluster only records
  // them; the scan's RefreshFrozen compiles its snapshot.
  Stopwatch build_timer;
  std::vector<size_t> rebuilt;
  std::vector<uint64_t> symbols(kc, 0);
  for (size_t ci = 0; ci < kc; ++ci) {
    if (contributions[ci].empty()) continue;
    if (can_skip && clusters_[ci].ContributionsMatch(contributions[ci])) {
      continue;
    }
    for (const auto& [s, segment] : contributions[ci]) {
      symbols[ci] += segment.end - segment.begin;
    }
    rebuilt.push_back(ci);
  }
  ScheduleClusterWork(rebuilt, symbols, options_.num_threads,
                      options_.pst.max_memory_bytes == 0,
                      [&](size_t ci, size_t threads) {
                        clusters_[ci].Rebuild(contributions[ci], db_, threads);
                      });
#if defined(__GLIBC__)
  // glibc keeps freed heap memory in its arenas. The compiles' scratch and
  // the snapshots replaced every iteration, made by several workers, leave
  // free pages behind that otherwise accumulate over the iterations. Hand
  // them back once per iteration. Measured with compiled clusters
  // (perfbench, 5 seeds): protein-tuned peak RSS median 71.1 MB with this
  // call against 73.8 MB without (70.4-71.5 against 72.5-82.3);
  // synthetic-deep alike (14.5 against 14.4 MB).
  malloc_trim(0);
#endif
  build_seconds_this_iter_ += build_timer.ElapsedSeconds();
}

size_t CluseqClusterer::RefreshFrozen() {
  Stopwatch freeze_timer;
  std::vector<size_t> stale;
  for (size_t ci = 0; ci < clusters_.size(); ++ci) {
    if (!clusters_[ci].frozen_fresh()) stale.push_back(ci);
  }
  // Cluster sizes are skewed, so weight each snapshot by its cost: a
  // compile by the symbols it partitions (a cluster with a worker's share
  // of them compiles alone on every worker), a live tree's freeze by its
  // node count.
  const bool compiled = CompiledClusters();
  std::vector<uint64_t> cost(clusters_.size(), 0);
  for (size_t ci : stale) {
    cost[ci] = compiled ? clusters_[ci].num_symbols()
                        : clusters_[ci].pst().NumNodes();
  }
  ScheduleClusterWork(stale, cost, options_.num_threads, compiled,
                      [&](size_t ci, size_t threads) {
                        Cluster& cluster = clusters_[ci];
                        cluster.SetFrozen(
                            cluster.Snapshot(background_, threads));
                      });
  refrozen_this_iter_ += stale.size();
  freeze_seconds_this_iter_ += freeze_timer.ElapsedSeconds();
  return stale.size();
}

std::vector<std::shared_ptr<const FrozenPst>> CluseqClusterer::Snapshots()
    const {
  std::vector<std::shared_ptr<const FrozenPst>> snapshots(clusters_.size());
  for (size_t ci = 0; ci < clusters_.size(); ++ci) {
    snapshots[ci] = clusters_[ci].frozen();
  }
  return snapshots;
}

void CluseqClusterer::Recluster() {
  const size_t n = db_.size();
  for (Cluster& c : clusters_) c.ClearMembers();
  joined_.assign(n, {});
  best_log_sim_.assign(n, kNegInf);
  all_log_sims_.clear();
  all_log_sims_.reserve(n * clusters_.size());
  const size_t kc = clusters_.size();

  if (!options_.within_scan_updates) {
    // Batch mode (default): freeze every cluster summary once, fan the
    // n × kc similarity evaluations out across sequences, then apply joins
    // and segment absorption sequentially. Scores against a frozen summary
    // are bit-for-bit those of the live tree, and the deferred apply phase
    // only bumps commutative counts, so the iteration is independent of
    // both visit order and thread count.
    if (kc == 0) return;
    std::vector<SimilarityResult> sims(n * kc);
    {
      CLUSEQ_TRACE_SPAN("cluseq.scan");
      obs::PerfScope perf_scope = phase_perf_.Sample("scan");
      static obs::Counter& scan_symbols_counter =
          obs::MetricsRegistry::Get().GetCounter("frozen_bank.scan_symbols");
      static obs::Gauge& scan_rate_gauge = obs::MetricsRegistry::Get().GetGauge(
          "frozen_bank.scan_symbols_per_sec");
      const uint64_t scan_symbols_before = scan_symbols_counter.Value();
      Stopwatch scan_timer;
      RefreshFrozen();  // Only dirty clusters are recompiled.
      const std::vector<std::shared_ptr<const FrozenPst>> snapshots =
          Snapshots();
      // Scan cost is linear in sequence length; weighted chunking keeps a
      // length-skewed database from parking workers behind one straggler.
      const auto scan_cost = [this](size_t s) -> uint64_t {
        return db_.Length(s);
      };
      if (options_.batched_scan) {
        // Pack every snapshot into the scoring arena (untouched models keep
        // their rows byte-identical) and run one interleaved scan per
        // sequence instead of kc serial automaton scans.
        Stopwatch assemble_timer;
        bank_.Assemble(snapshots);
        assemble_seconds_this_iter_ += assemble_timer.ElapsedSeconds();
        if (prefilter_active_) {
          // Multi-level pruned scan against scan_target_ — log t while the
          // §4.6 adjuster is frozen or off, the censored floor
          // log t − adjust_bound_window while it is live. Joins and the
          // per-sequence max are exact (see ScanPrefilter); pruned slots
          // hold admissible bounds < the target, and everything at or
          // above the target is exact, which is all the join pass and the
          // floor-censored adjuster histogram ever look at.
          CLUSEQ_TRACE_SPAN("cluseq.prefilter_scan");
          ScanPrefilter prefilter(&bank_, options_.prefilter_prefix);
          std::atomic<uint64_t> skipped{0};
          std::atomic<uint64_t> l15_pruned{0};
          ParallelForWeighted(
              n, options_.num_threads, scan_cost, [&](size_t s) {
                PrefilterScanStats scan_stats;
                prefilter.ScanAllWithThreshold(db_.Symbols(s), scan_target_,
                                               sims.data() + s * kc,
                                               &scan_stats);
                skipped.fetch_add(scan_stats.candidates_skipped,
                                  std::memory_order_relaxed);
                l15_pruned.fetch_add(scan_stats.l15_pruned,
                                     std::memory_order_relaxed);
              });
          prefilter_pairs_this_iter_ += n * kc;
          prefilter_skipped_this_iter_ +=
              static_cast<size_t>(skipped.load(std::memory_order_relaxed));
          prefilter_l15_this_iter_ += static_cast<size_t>(
              l15_pruned.load(std::memory_order_relaxed));
        } else {
          ParallelForWeighted(
              n, options_.num_threads, scan_cost, [&](size_t s) {
                bank_.ScanAll(db_.Symbols(s), sims.data() + s * kc);
              });
        }
      } else {
        ParallelForWeighted(n, options_.num_threads, scan_cost, [&](size_t s) {
          const std::span<const SymbolId> symbols = db_.Symbols(s);
          for (size_t ci = 0; ci < kc; ++ci) {
            sims[s * kc + ci] = ComputeSimilarity(*snapshots[ci], symbols);
          }
        });
      }
      const double scan_elapsed = scan_timer.ElapsedSeconds();
      scan_seconds_this_iter_ += scan_elapsed;
      const uint64_t scanned =
          scan_symbols_counter.Value() - scan_symbols_before;
      if (scan_elapsed > 0.0 && scanned > 0) {
        scan_rate_gauge.Set(static_cast<double>(scanned) / scan_elapsed);
      }
    }
    CLUSEQ_TRACE_SPAN("cluseq.join");
    obs::PerfScope join_perf_scope = phase_perf_.Sample("join");
    Stopwatch join_timer;
    // Deferred apply, parallel in two passes. Pass 1 is per-sequence: every
    // written slot (the all_log_sims_ position, best_log_sim_[s],
    // joined_[s]) is owned by exactly one task, and joined_[s] is built in
    // ascending ci — the order the serial sweep produced. Pass 2 is
    // cluster-sharded: each task owns a disjoint cluster and collects its
    // joins in ascending s, reproducing exactly that cluster's subsequence
    // of the serial sweep, so member order and contribution order (which
    // pruning under a memory budget depends on) are thread-count-invariant.
    all_log_sims_.resize(n * kc);
    ParallelFor(n, options_.num_threads, [&](size_t s) {
      for (size_t ci = 0; ci < kc; ++ci) {
        const SimilarityResult& sim = sims[s * kc + ci];
        all_log_sims_[s * kc + ci] = sim.log_sim;
        best_log_sim_[s] = std::max(best_log_sim_[s], sim.log_sim);
        if (sim.log_sim >= log_t_ && std::isfinite(sim.log_sim)) {
          joined_[s].push_back({clusters_[ci].id(), sim.log_sim});
        }
      }
    });
    // Each cluster's newcomers (sequences that have not contributed to it
    // yet) are then absorbed in that same order: recorded by a compiled
    // cluster, whose next snapshot is compiled from them, and inserted into
    // a live tree (under a memory budget) by the insertion loop.
    std::vector<size_t> joins_per_cluster(kc, 0);
    std::vector<std::vector<std::pair<size_t, Cluster::Segment>>> newcomers(
        kc);
    std::vector<uint64_t> new_symbols(kc, 0);
    ParallelFor(kc, options_.num_threads, [&](size_t ci) {
      Cluster& cluster = clusters_[ci];
      for (size_t s = 0; s < n; ++s) {
        const SimilarityResult& sim = sims[s * kc + ci];
        if (sim.log_sim >= log_t_ && std::isfinite(sim.log_sim)) {
          ++joins_per_cluster[ci];
          cluster.AddMember(s);
          if (!cluster.HasAbsorbed(s)) {
            newcomers[ci].push_back({s, {sim.best_begin, sim.best_end}});
            new_symbols[ci] += sim.best_end - sim.best_begin;
          }
        }
      }
    });
    Stopwatch absorb_timer;
    std::vector<size_t> touched;
    for (size_t ci = 0; ci < kc; ++ci) {
      if (!newcomers[ci].empty()) touched.push_back(ci);
    }
    ParallelForWeighted(
        touched.size(), options_.num_threads,
        [&](size_t i) -> uint64_t { return new_symbols[touched[i]]; },
        [&](size_t i) {
          Cluster& cluster = clusters_[touched[i]];
          for (const auto& [s, segment] : newcomers[touched[i]]) {
            cluster.AbsorbSegment(s, db_.Symbols(s), segment.begin,
                                  segment.end);
          }
        });
    absorb_seconds_this_iter_ += absorb_timer.ElapsedSeconds();
    size_t joins = 0;
    for (size_t c : joins_per_cluster) joins += c;
    join_seconds_this_iter_ += join_timer.ElapsedSeconds();
    static obs::Counter& join_counter =
        obs::MetricsRegistry::Get().GetCounter("cluseq.joins");
    join_counter.Add(joins);
    return;
  }

  // §4.2 mode: sequences are visited one at a time and each join updates
  // the joined cluster's PST mid-scan, which later sequences observe — so
  // parallelism can only be applied across clusters for one sequence.
  // Scoring and joining interleave here, so one "scan" phase covers both.
  obs::PerfScope perf_scope = phase_perf_.Sample("scan");
  std::vector<size_t> order = VisitOrderIndices();
  std::vector<SimilarityResult> sims;
  for (size_t seq_index : order) {
    const std::span<const SymbolId> seq = db_.Symbols(seq_index);
    sims.assign(kc, SimilarityResult{});
    size_t threads = kc >= 4 ? options_.num_threads : 1;
    ParallelFor(kc, threads, [&](size_t ci) {
      sims[ci] = ComputeSimilarity(clusters_[ci].pst(), background_, seq);
    });
    for (size_t ci = 0; ci < kc; ++ci) {
      const SimilarityResult& sim = sims[ci];
      all_log_sims_.push_back(sim.log_sim);
      best_log_sim_[seq_index] = std::max(best_log_sim_[seq_index],
                                          sim.log_sim);
      if (sim.log_sim >= log_t_ && std::isfinite(sim.log_sim)) {
        clusters_[ci].AddMember(seq_index);
        joined_[seq_index].push_back({clusters_[ci].id(), sim.log_sim});
        clusters_[ci].AbsorbSegment(seq_index, seq, sim.best_begin,
                                    sim.best_end);
      }
    }
  }
}

size_t CluseqClusterer::Consolidate() {
  const size_t kc = clusters_.size();
  if (kc == 0) return 0;
  const size_t min_unique = options_.min_unique_members > 0
                                ? options_.min_unique_members
                                : static_cast<size_t>(
                                      options_.significance_threshold);

  // Ascending size; ties broken by position so exact duplicates cannot
  // mutually survive.
  std::vector<size_t> order(kc);
  for (size_t i = 0; i < kc; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return clusters_[a].size() < clusters_[b].size();
  });
  std::vector<size_t> rank(kc);
  for (size_t p = 0; p < kc; ++p) rank[order[p]] = p;

  // seq index -> positions of clusters containing it, in CSR form:
  // containing[offsets[s] .. offsets[s + 1]) in ascending ci.
  const size_t n = db_.size();
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t ci = 0; ci < kc; ++ci) {
    for (size_t s : clusters_[ci].members()) ++offsets[s + 1];
  }
  for (size_t s = 0; s < n; ++s) offsets[s + 1] += offsets[s];
  std::vector<size_t> containing(offsets[n]);
  {
    std::vector<size_t> fill(offsets.begin(), offsets.end() - 1);
    for (size_t ci = 0; ci < kc; ++ci) {
      for (size_t s : clusters_[ci].members()) containing[fill[s]++] = ci;
    }
  }

  std::vector<bool> alive(kc, true);
  size_t removed = 0;
  for (size_t p = 0; p < kc; ++p) {
    size_t i = order[p];
    size_t unique = 0;
    for (size_t s : clusters_[i].members()) {
      bool shadowed = false;
      for (size_t k = offsets[s]; k < offsets[s + 1]; ++k) {
        const size_t j = containing[k];
        if (j != i && alive[j] && rank[j] > rank[i]) {
          shadowed = true;
          break;
        }
      }
      if (!shadowed) ++unique;
    }
    if (unique < min_unique) {
      alive[i] = false;
      ++removed;
    }
  }

  if (removed > 0) {
    std::vector<Cluster> kept;
    kept.reserve(kc - removed);
    for (size_t i = 0; i < kc; ++i) {
      if (alive[i]) kept.push_back(std::move(clusters_[i]));
    }
    clusters_ = std::move(kept);
  }
  return removed;
}

void CluseqClusterer::RebuildMembershipViews() {
  const size_t n = db_.size();
  std::unordered_map<uint32_t, int32_t> id_to_pos;
  for (size_t ci = 0; ci < clusters_.size(); ++ci) {
    id_to_pos[clusters_[ci].id()] = static_cast<int32_t>(ci);
  }
  prev_best_cluster_.assign(n, -1);
  unclustered_.clear();
  for (size_t s = 0; s < n; ++s) {
    double best = kNegInf;
    int32_t best_pos = -1;
    for (const Joined& j : joined_[s]) {
      auto it = id_to_pos.find(j.cluster_id);
      if (it == id_to_pos.end()) continue;  // Cluster was consolidated away.
      if (j.log_sim > best) {
        best = j.log_sim;
        best_pos = it->second;
      }
    }
    prev_best_cluster_[s] = best_pos;
    if (best_pos < 0) unclustered_.push_back(s);
  }
}

std::vector<uint64_t> CluseqClusterer::MembershipFingerprint() const {
  std::vector<uint64_t> hashes;
  hashes.reserve(clusters_.size());
  for (const Cluster& c : clusters_) {
    std::vector<size_t> members = c.members();
    std::sort(members.begin(), members.end());
    hashes.push_back(HashMembers(members));
  }
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

ClustererCheckpoint CluseqClusterer::BuildCheckpoint(
    uint64_t iteration, const ThresholdAdjuster& adjuster,
    const std::vector<uint64_t>& prev_fingerprint,
    bool have_prev_fingerprint) const {
  ClustererCheckpoint ckpt;
  ckpt.options_fingerprint = FingerprintOptions(options_);
  ckpt.corpus_fingerprint = db_.ContentFingerprint();
  ckpt.num_sequences = db_.size();
  ckpt.total_symbols = db_.TotalSymbols();
  ckpt.build = BuildVersionString();
  ckpt.iteration = iteration;
  ckpt.log_t = log_t_;
  ckpt.next_cluster_id = next_cluster_id_;
  ckpt.prev_new = prev_new_;
  ckpt.prev_consolidated = prev_consolidated_;
  ckpt.adjuster_frozen = adjuster.frozen();
  ckpt.have_prev_fingerprint = have_prev_fingerprint;
  ckpt.prev_fingerprint = prev_fingerprint;
  ckpt.rng = rng_.SaveState();
  ckpt.prev_best_cluster = prev_best_cluster_;
  ckpt.best_log_sim = best_log_sim_;
  ckpt.unclustered.assign(unclustered_.begin(), unclustered_.end());
  ckpt.clusters.reserve(clusters_.size());
  for (const Cluster& cluster : clusters_) {
    CheckpointClusterState state;
    state.id = cluster.id();
    state.seed_index = cluster.seed_index();
    state.members.assign(cluster.members().begin(), cluster.members().end());
    state.contributions.reserve(cluster.contributions().size());
    for (const auto& [seq, segment] : cluster.contributions()) {
      state.contributions.push_back({static_cast<uint64_t>(seq),
                                     static_cast<uint64_t>(segment.begin),
                                     static_cast<uint64_t>(segment.end)});
    }
    ckpt.clusters.push_back(std::move(state));
  }
  return ckpt;
}

Status CluseqClusterer::RestoreFromCheckpoint(
    const ClustererCheckpoint& ckpt, ThresholdAdjuster* adjuster,
    std::vector<uint64_t>* prev_fingerprint, bool* have_prev_fingerprint) {
  if (ckpt.options_fingerprint != FingerprintOptions(options_)) {
    return Status::FailedPrecondition(
        "checkpoint was written under different algorithmic options; "
        "resume with the original options or start fresh without --resume");
  }
  if (ckpt.num_sequences != db_.size() ||
      ckpt.total_symbols != db_.TotalSymbols() ||
      ckpt.corpus_fingerprint != db_.ContentFingerprint()) {
    return Status::FailedPrecondition(
        "checkpoint was written against a different corpus; resume with "
        "the original input or start fresh without --resume");
  }
  // The decoder cannot see the corpus, so a checkpoint whose CRCs pass can
  // still name a segment past the end of its sequence; reject it before
  // replay reads a single symbol.
  for (const CheckpointClusterState& state : ckpt.clusters) {
    for (const auto& contrib : state.contributions) {
      if (contrib.end > db_.Length(static_cast<size_t>(contrib.seq_index))) {
        obs::MetricsRegistry::Get()
            .GetCounter("persistence.corruption_detected")
            .Increment();
        return Status::Corruption(StringPrintf(
            "checkpoint: cluster %u contribution of sequence %llu ends past "
            "the sequence",
            state.id, static_cast<unsigned long long>(contrib.seq_index)));
      }
    }
  }
  background_ = BackgroundModel::FromDatabase(db_);
  rng_ = Rng(options_.rng_seed);
  rng_.RestoreState(ckpt.rng);
  clusters_.clear();
  clusters_.reserve(ckpt.clusters.size());
  std::vector<std::pair<size_t, Cluster::Segment>> contributions;
  for (const CheckpointClusterState& state : ckpt.clusters) {
    Cluster cluster = NewCluster(state.id);
    // Rebuilding from the contributions in their recorded order repeats the
    // original insertions (and any §5.1 pruning) exactly; a compiled
    // cluster only records them.
    contributions.clear();
    for (const auto& contrib : state.contributions) {
      contributions.push_back({static_cast<size_t>(contrib.seq_index),
                               {static_cast<size_t>(contrib.begin),
                                static_cast<size_t>(contrib.end)}});
    }
    cluster.Rebuild(contributions, db_, options_.num_threads);
    cluster.RestoreForResume(
        state.seed_index,
        std::vector<size_t>(state.members.begin(), state.members.end()));
    clusters_.push_back(std::move(cluster));
  }
  bank_ = FrozenBank();
  bank_.set_signature_budget_bytes(options_.signature_budget_bytes);
  next_cluster_id_ = ckpt.next_cluster_id;
  log_t_ = ckpt.log_t;
  joined_.clear();
  prev_best_cluster_ = ckpt.prev_best_cluster;
  best_log_sim_ = ckpt.best_log_sim;
  unclustered_.assign(ckpt.unclustered.begin(), ckpt.unclustered.end());
  prev_new_ = static_cast<size_t>(ckpt.prev_new);
  prev_consolidated_ = static_cast<size_t>(ckpt.prev_consolidated);
  adjuster->RestoreFrozen(ckpt.adjuster_frozen);
  *prev_fingerprint = ckpt.prev_fingerprint;
  *have_prev_fingerprint = ckpt.have_prev_fingerprint;
  return Status::OK();
}

Status CluseqClusterer::Run(ClusteringResult* result) {
  CLUSEQ_RETURN_NOT_OK(options_.Validate());
  CLUSEQ_TRACE_SPAN("cluseq.run");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  report_ = std::make_unique<obs::RunReport>();
  report_->options = options_;
  report_->num_sequences = db_.size();
  report_->alphabet_size = db_.alphabet().size();
  report_->effective_threads = options_.num_threads;
  // Opens the process-wide counter set on first run; also publishes the
  // perf.available gauge (and the one unavailability warning) up front.
  report_->perf_available = obs::PerfCounterSet::Process().available();
  report_->baseline_metrics = registry.Snapshot();
  Stopwatch run_timer;
  *result = ClusteringResult{};
  const size_t n = db_.size();
  result->best_cluster.assign(n, -1);
  result->best_log_sim.assign(n, kNegInf);
  if (n == 0) {
    result->stop_reason = StopReason::kFixedPoint;
    report_->stop_reason = result->stop_reason;
    report_->final_metrics = registry.Snapshot();
    return Status::OK();
  }

  ThresholdAdjuster adjuster(options_.histogram_buckets, /*min_log_t=*/0.0);
  std::vector<uint64_t> prev_fingerprint;
  bool have_prev_fingerprint = false;

  const CancellationToken* cancel = options_.cancellation;
  const bool checkpointing =
      !options_.checkpoint_dir.empty() && options_.checkpoint_every > 0;
  // Fixed per run: the prefilter needs the batched arena and deferred
  // joins; a live threshold adjuster no longer disables it — while the
  // adjuster moves t, the scan targets the censored floor
  // log t − adjust_bound_window and the adjuster histograms only scores at
  // or above that floor, which the prefilter keeps exact.
  prefilter_active_ = options_.prefilter && options_.batched_scan &&
                      !options_.within_scan_updates;
  run_prefilter_pairs_ = 0;
  run_prefilter_skipped_ = 0;
  run_prefilter_l15_ = 0;
  phase_perf_.TakePhases();  // Drop samples a prior (aborted) run left over.

  size_t start_iteration = 0;
  if (options_.resume) {
    ClustererCheckpoint ckpt;
    std::string loaded_path;
    Status load = LoadLatestCheckpoint(options_.checkpoint_dir,
                                       options_.checkpoint_strict, &ckpt,
                                       &loaded_path);
    if (load.ok()) {
      CLUSEQ_RETURN_NOT_OK(RestoreFromCheckpoint(
          ckpt, &adjuster, &prev_fingerprint, &have_prev_fingerprint));
      start_iteration = static_cast<size_t>(ckpt.iteration);
      result->resumed_from_checkpoint = true;
      static obs::Counter& resumes =
          registry.GetCounter("checkpoint.resumes");
      resumes.Increment();
      if (options_.verbose) {
        CLUSEQ_LOG(kInfo) << "resumed from " << loaded_path
                          << " at iteration " << start_iteration;
      }
    } else if (load.IsNotFound()) {
      // Nothing to resume from is a fresh start, not an error — the very
      // first (later-killed) run of a checkpointed job hits this path.
      CLUSEQ_LOG(kWarning) << "no checkpoint to resume from in "
                           << options_.checkpoint_dir
                           << "; starting fresh";
    } else {
      return load;
    }
  }

  if (!result->resumed_from_checkpoint) {
    background_ = BackgroundModel::FromDatabase(db_);
    rng_ = Rng(options_.rng_seed);
    clusters_.clear();
    bank_ = FrozenBank();
    bank_.set_signature_budget_bytes(options_.signature_budget_bytes);
    next_cluster_id_ = 0;
    log_t_ = options_.auto_initial_threshold
                 ? EstimateInitialLogThreshold()
                 : std::log(options_.similarity_threshold);
    if (options_.verbose) {
      CLUSEQ_LOG(kInfo) << "initial log t = " << log_t_;
    }
    joined_.clear();
    prev_best_cluster_.clear();
    best_log_sim_.clear();
    unclustered_.resize(n);
    for (size_t i = 0; i < n; ++i) unclustered_[i] = i;
    prev_new_ = 0;
    prev_consolidated_ = 0;
  }

  // Iteration-boundary bookkeeping for cancellation and checkpointing.
  // `boundary` is a cheap snapshot of the last *completed* iteration's
  // clustering — the only state an interrupted run may report, since the
  // live members/joins are torn mid-iteration. `pending_blob` is the
  // encoded checkpoint of that same boundary, written to disk on the
  // checkpoint_every cadence and flushed unconditionally on cancellation.
  // When neither a token nor checkpointing is configured, none of this
  // runs — a plain Run() costs nothing extra.
  struct BoundarySnapshot {
    uint64_t iteration = 0;
    double log_t = 0.0;
    std::vector<std::vector<size_t>> members;
    std::vector<int32_t> best_cluster;
    std::vector<double> best_log_sim;
    size_t num_unclustered = 0;
  };
  BoundarySnapshot boundary;
  std::string pending_blob;
  uint64_t pending_iteration = 0;
  bool have_pending = false;
  uint64_t last_saved_iteration = start_iteration;
  bool have_saved = result->resumed_from_checkpoint;
  size_t checkpoint_saves = 0;
  static obs::Gauge& save_seconds_gauge =
      registry.GetGauge("checkpoint.save_seconds");

  const auto cancelled = [&]() {
    return cancel != nullptr && cancel->Cancelled();
  };
  const auto capture_boundary = [&](uint64_t iteration) -> Status {
    if (cancel != nullptr || checkpointing) {
      boundary.iteration = iteration;
      boundary.log_t = log_t_;
      boundary.members.clear();
      boundary.members.reserve(clusters_.size());
      for (const Cluster& c : clusters_) boundary.members.push_back(c.members());
      boundary.best_cluster = prev_best_cluster_;
      boundary.best_log_sim = best_log_sim_;
      boundary.num_unclustered = unclustered_.size();
    }
    if (checkpointing) {
      ClustererCheckpoint ckpt = BuildCheckpoint(
          iteration, adjuster, prev_fingerprint, have_prev_fingerprint);
      CLUSEQ_RETURN_NOT_OK(EncodeCheckpoint(ckpt, &pending_blob));
      pending_iteration = iteration;
      have_pending = true;
    }
    return Status::OK();
  };
  const auto flush_pending = [&]() -> Status {
    if (!have_pending ||
        (have_saved && pending_iteration <= last_saved_iteration)) {
      return Status::OK();
    }
    CLUSEQ_TRACE_SPAN("cluseq.checkpoint_save");
    Stopwatch save_timer;
    CLUSEQ_RETURN_NOT_OK(WriteCheckpointRetainTwo(
        options_.checkpoint_dir, pending_iteration, pending_blob));
    save_seconds_gauge.Set(save_timer.ElapsedSeconds());
    last_saved_iteration = pending_iteration;
    have_saved = true;
    ++checkpoint_saves;
    return Status::OK();
  };

  // The pre-loop boundary: established state (threshold estimate, RNG)
  // before iteration 1 runs, so a kill during the first iteration resumes
  // here instead of repeating the estimation from scratch.
  CLUSEQ_RETURN_NOT_OK(capture_boundary(start_iteration));
  if (checkpointing && !result->resumed_from_checkpoint) {
    have_saved = false;  // Nothing on disk yet: always write boundary 0.
    CLUSEQ_RETURN_NOT_OK(flush_pending());
  }

  static obs::Counter& iteration_counter =
      registry.GetCounter("cluseq.iterations");
  static obs::Counter& generated_counter =
      registry.GetCounter("cluseq.clusters_generated");
  static obs::Counter& consolidated_counter =
      registry.GetCounter("cluseq.clusters_consolidated");
  static obs::Gauge& log_threshold_gauge =
      registry.GetGauge("cluseq.log_threshold");
  static obs::Gauge& clusters_gauge = registry.GetGauge("cluseq.clusters");
  static obs::Gauge& unclustered_gauge =
      registry.GetGauge("cluseq.unclustered");
  static const std::vector<double> iteration_bounds =
      obs::ExponentialBounds(1e-3, 4.0, 12);
  static obs::Histogram& iteration_seconds_hist = registry.GetHistogram(
      "cluseq.iteration_seconds", std::span<const double>(iteration_bounds));
  // Per-iteration pruning is the delta of the cumulative pst.nodes_pruned
  // counter (per-tree counters reset when trees are rebuilt, the registry
  // counter never does).
  obs::Counter& pruned_counter = registry.GetCounter("pst.nodes_pruned");
  log_threshold_gauge.Set(log_t_);

  bool interrupted = false;
  size_t iteration = start_iteration;
  while (iteration < options_.max_iterations) {
    if (cancelled()) {
      interrupted = true;
      break;
    }
    ++iteration;
    CLUSEQ_TRACE_SPAN("cluseq.iteration");
    Stopwatch timer;
    refrozen_this_iter_ = 0;
    scan_seconds_this_iter_ = 0.0;
    join_seconds_this_iter_ = 0.0;
    absorb_seconds_this_iter_ = 0.0;
    freeze_seconds_this_iter_ = 0.0;
    assemble_seconds_this_iter_ = 0.0;
    resegment_seconds_this_iter_ = 0.0;
    build_seconds_this_iter_ = 0.0;
    prefilter_pairs_this_iter_ = 0;
    prefilter_skipped_this_iter_ = 0;
    prefilter_l15_this_iter_ = 0;
    // While the §4.6 adjuster is live its histogram must see exact scores,
    // so the scan targets the censored floor log t − W instead of log t:
    // everything at or above the floor comes back exact (the adjuster and
    // the join pass both censor/compare against values no lower), and
    // scores below it are censored identically in prefiltered and
    // exhaustive runs, keeping the adjuster trajectory bit-for-bit
    // independent of the prefilter. Once frozen (or with adjustment off)
    // the target snaps back to log t itself.
    const bool adjuster_live =
        options_.adjust_threshold && !adjuster.frozen();
    scan_target_ = adjuster_live ? log_t_ - options_.adjust_bound_window
                                 : log_t_;
    const uint64_t pruned_before = pruned_counter.Value();

    Stopwatch seed_timer;
    size_t generated = 0;
    {
      CLUSEQ_TRACE_SPAN("cluseq.seed");
      obs::PerfScope perf_scope = phase_perf_.Sample("seed");
      if (options_.rebuild_each_iteration) RebuildClusterPsts();
      const size_t planned = PlanNewClusters(iteration);
      const size_t before = clusters_.size();
      GenerateNewClusters(planned);
      generated = clusters_.size() - before;
    }
    const double seed_seconds = seed_timer.ElapsedSeconds();

    // Phase boundaries are the cancellation points: state is consistent
    // here, and abandoning the rest of the iteration is safe because the
    // reported result and the flushed checkpoint both come from the last
    // completed iteration's boundary (resume replays this one).
    if (cancelled()) {
      interrupted = true;
      break;
    }

    Recluster();

    if (cancelled()) {
      interrupted = true;
      break;
    }

    Stopwatch consolidate_timer;
    size_t consolidated = 0;
    {
      CLUSEQ_TRACE_SPAN("cluseq.consolidate");
      obs::PerfScope perf_scope = phase_perf_.Sample("consolidate");
      consolidated = Consolidate();
      RebuildMembershipViews();
    }
    const double consolidate_seconds = consolidate_timer.ElapsedSeconds();

    if (cancelled()) {
      interrupted = true;
      break;
    }

    const double log_t_before = log_t_;
    {
      CLUSEQ_TRACE_SPAN("cluseq.adjust_t");
      obs::PerfScope perf_scope = phase_perf_.Sample("adjust_t");
      if (adjuster_live) {
        // The censor floor is exactly this iteration's scan target: the
        // prefilter guarantees every score at or above it is exact, and
        // exhaustive runs apply the same floor, so both see an identical
        // filtered multiset and walk identical threshold trajectories.
        ThresholdUpdate update =
            adjuster.Adjust(all_log_sims_, log_t_, scan_target_);
        if (update.adjusted) log_t_ = update.new_log_t;
      }
    }
    const bool threshold_stable =
        std::abs(log_t_ - log_t_before) <
        0.01 * std::max(1.0, std::abs(log_t_before));

    IterationStats stats;
    stats.iteration = iteration;
    stats.new_clusters = generated;
    stats.consolidated = consolidated;
    stats.clusters_after = clusters_.size();
    stats.unclustered = unclustered_.size();
    stats.log_threshold = log_t_;
    stats.seconds = timer.ElapsedSeconds();
    stats.refrozen_clusters = refrozen_this_iter_;
    stats.scan_seconds = scan_seconds_this_iter_;
    stats.seed_seconds = seed_seconds;
    stats.resegment_seconds = resegment_seconds_this_iter_;
    stats.build_seconds = build_seconds_this_iter_;
    stats.rebuild_seconds = stats.resegment_seconds + stats.build_seconds;
    stats.freeze_seconds = freeze_seconds_this_iter_;
    stats.assemble_seconds = assemble_seconds_this_iter_;
    stats.join_seconds = join_seconds_this_iter_;
    stats.absorb_seconds = absorb_seconds_this_iter_;
    stats.consolidate_seconds = consolidate_seconds;
    stats.prefilter_l15_pruned = prefilter_l15_this_iter_;
    stats.phase_perf = phase_perf_.TakePhases();
    if (prefilter_pairs_this_iter_ > 0) {
      stats.prefilter_skip_ratio =
          static_cast<double>(prefilter_skipped_this_iter_) /
          static_cast<double>(prefilter_pairs_this_iter_);
    }
    run_prefilter_pairs_ += prefilter_pairs_this_iter_;
    run_prefilter_skipped_ += prefilter_skipped_this_iter_;
    run_prefilter_l15_ += prefilter_l15_this_iter_;
    size_t pst_bytes_total = 0;
    for (const Cluster& c : clusters_) {
      if (!c.compiled()) {
        stats.pst_nodes_total += c.pst().NumNodes();
        stats.pst_arena_bytes_total += c.pst().ArenaBytes();
        pst_bytes_total += c.pst().ApproxMemoryBytes();
      }
      if (c.frozen() != nullptr) {
        stats.frozen_states_total += c.frozen()->num_states();
        stats.frozen_bytes_total += c.frozen()->ApproxMemoryBytes();
      }
    }
    stats.pst_pruned_total =
        static_cast<size_t>(pruned_counter.Value() - pruned_before);
    static obs::Gauge& live_nodes_gauge =
        registry.GetGauge("pst.live_nodes");
    static obs::Gauge& approx_bytes_gauge =
        registry.GetGauge("pst.approx_bytes");
    live_nodes_gauge.Set(static_cast<double>(stats.pst_nodes_total));
    approx_bytes_gauge.Set(static_cast<double>(pst_bytes_total));
    result->iteration_stats.push_back(stats);

    iteration_counter.Increment();
    generated_counter.Add(generated);
    consolidated_counter.Add(consolidated);
    log_threshold_gauge.Set(log_t_);
    clusters_gauge.Set(static_cast<double>(clusters_.size()));
    unclustered_gauge.Set(static_cast<double>(unclustered_.size()));
    iteration_seconds_hist.Observe(stats.seconds);
    report_->iterations.push_back(stats);
    report_->iteration_metrics.push_back(registry.Snapshot());

    if (options_.verbose) {
      // Compiled clusters hold no trees: their summaries are the recorded
      // segments, and every snapshot is a compile.
      const bool compiled = CompiledClusters();
      const std::string summaries =
          compiled ? std::string()
                   : std::to_string(stats.pst_nodes_total) + " pst nodes (" +
                         std::to_string(stats.pst_pruned_total) + " pruned, " +
                         std::to_string(stats.pst_arena_bytes_total) +
                         " arena bytes), ";
      CLUSEQ_LOG(kInfo) << "iteration " << iteration << ": +" << generated
                        << " new, -" << consolidated << " consolidated, "
                        << clusters_.size() << " clusters, "
                        << unclustered_.size() << " unclustered, log t = "
                        << log_t_ << ", scan " << stats.scan_seconds
                        << "s, refroze " << stats.refrozen_clusters
                        << " clusters, " << summaries
                        << stats.frozen_states_total << " frozen states ("
                        << stats.frozen_bytes_total
                        << " model bytes), phases seed "
                        << stats.seed_seconds << "s (rebuild "
                        << stats.rebuild_seconds << "s: resegment "
                        << stats.resegment_seconds << "s, "
                        << (compiled ? "record " : "build ")
                        << stats.build_seconds << "s) / "
                        << (compiled ? "compile " : "freeze ")
                        << stats.freeze_seconds << "s / assemble "
                        << stats.assemble_seconds << "s / join "
                        << stats.join_seconds << "s ("
                        << (compiled ? "record " : "absorb ")
                        << stats.absorb_seconds << "s) / consolidate "
                        << stats.consolidate_seconds
                        << "s, prefilter skip "
                        << 100.0 * stats.prefilter_skip_ratio << "% ("
                        << stats.prefilter_l15_pruned << " l15 pruned)";
      // One perf line per iteration when the counters opened: the scan
      // phase dominates, so lead with its cycles and IPC.
      for (const obs::PhasePerf& phase : stats.phase_perf) {
        if (phase.phase != "scan" || phase.counters.empty()) continue;
        uint64_t cycles = 0;
        uint64_t instructions = 0;
        for (const auto& [name, value] : phase.counters) {
          if (name == "cycles") cycles = value;
          if (name == "instructions") instructions = value;
        }
        if (cycles > 0) {
          CLUSEQ_LOG(kInfo) << "iteration " << iteration << " scan perf: "
                            << cycles << " cycles, " << instructions
                            << " instructions (IPC "
                            << (static_cast<double>(instructions) /
                                static_cast<double>(cycles))
                            << "), " << phase.major_faults
                            << " major faults, rss " << phase.maxrss_kb
                            << " KB";
        }
      }
    }

    std::vector<uint64_t> fingerprint = MembershipFingerprint();
    if (have_prev_fingerprint && fingerprint == prev_fingerprint &&
        generated == consolidated && threshold_stable) {
      // Fixed point: same clusters, same memberships, stable t.
      result->stop_reason = StopReason::kFixedPoint;
      break;
    }
    prev_fingerprint = std::move(fingerprint);
    have_prev_fingerprint = true;
    prev_new_ = generated;
    prev_consolidated_ = consolidated;

    // Iteration boundary: everything the next iteration consumes is now in
    // place, so snapshot it (and encode the checkpoint) before any of it
    // is touched again. Disk writes follow the checkpoint_every cadence;
    // the in-memory encode happens every boundary so a later cancellation
    // can flush the newest state.
    CLUSEQ_RETURN_NOT_OK(capture_boundary(iteration));
    if (checkpointing && iteration % options_.checkpoint_every == 0) {
      CLUSEQ_RETURN_NOT_OK(flush_pending());
    }
  }

  if (interrupted) {
    // The live members/joins may be torn mid-iteration; report the last
    // completed iteration's boundary instead, and flush its checkpoint so
    // a resumed run replays the abandoned iteration. The result is exactly
    // what Run() returned after that iteration — never a partial one.
    if (checkpointing) CLUSEQ_RETURN_NOT_OK(flush_pending());
    result->interrupted = true;
    result->stop_reason = StopReason::kCancelled;
    result->iterations = static_cast<size_t>(boundary.iteration);
    result->final_log_threshold = boundary.log_t;
    result->num_unclustered = boundary.num_unclustered;
    result->clusters.reserve(boundary.members.size());
    for (const std::vector<size_t>& members : boundary.members) {
      std::vector<size_t> sorted = members;
      std::sort(sorted.begin(), sorted.end());
      result->clusters.push_back(std::move(sorted));
    }
    if (!boundary.best_cluster.empty()) {
      result->best_cluster = boundary.best_cluster;
      result->best_log_sim = boundary.best_log_sim;
    }
    bank_ = FrozenBank();  // Live trees are torn; never serve Classify().
    bank_.set_signature_budget_bytes(options_.signature_budget_bytes);
  } else {
    result->iterations = iteration;
    result->final_log_threshold = log_t_;
    result->num_unclustered = unclustered_.size();
    result->clusters.reserve(clusters_.size());
    for (const Cluster& c : clusters_) {
      std::vector<size_t> members = c.members();
      std::sort(members.begin(), members.end());
      result->clusters.push_back(std::move(members));
    }
    if (!prev_best_cluster_.empty()) {
      result->best_cluster = prev_best_cluster_;
      result->best_log_sim = best_log_sim_;
    }
    // Snapshot the final summaries so Classify() runs on compiled automata
    // (one banked interleaved scan when batched_scan is on).
    RefreshFrozen();
    if (options_.batched_scan) {
      bank_.Assemble(Snapshots());
    } else {
      bank_ = FrozenBank();
      bank_.set_signature_budget_bytes(options_.signature_budget_bytes);
    }
  }

  report_->num_clusters = result->num_clusters();
  report_->num_unclustered = result->num_unclustered;
  report_->total_iterations = result->iterations;
  report_->final_log_threshold = result->final_log_threshold;
  report_->total_seconds = run_timer.ElapsedSeconds();
  report_->prefilter_enabled = prefilter_active_;
  report_->prefilter_skip_ratio =
      run_prefilter_pairs_ > 0
          ? static_cast<double>(run_prefilter_skipped_) /
                static_cast<double>(run_prefilter_pairs_)
          : 0.0;
  report_->prefilter_l15_ratio =
      run_prefilter_pairs_ > 0
          ? static_cast<double>(run_prefilter_l15_) /
                static_cast<double>(run_prefilter_pairs_)
          : 0.0;
  report_->prefilter_sig_tier =
      bank_.empty() ? "" : bank_.signature_tier_name();
  report_->checkpoint_enabled = checkpointing;
  report_->checkpoint_saves = checkpoint_saves;
  report_->checkpoint_last_iteration =
      have_saved ? static_cast<size_t>(last_saved_iteration) : 0;
  report_->resumed_from_checkpoint = result->resumed_from_checkpoint;
  report_->interrupted = result->interrupted;
  report_->stop_reason = result->stop_reason;
  report_->final_metrics = registry.Snapshot();
  return Status::OK();
}

int32_t CluseqClusterer::Classify(std::span<const SymbolId> symbols,
                                  double* log_sim) const {
  double best = kNegInf;
  int32_t best_pos = -1;
  const size_t kc = clusters_.size();
  if (kc > 0 && options_.batched_scan && bank_.num_models() == kc) {
    if (options_.prefilter) {
      // Argmax-mode pruned scan: exact best value and the same
      // smallest-index tie-break as the exhaustive loop below.
      ScanPrefilter prefilter(&bank_, options_.prefilter_prefix);
      best_pos = prefilter.BestModel(symbols, &best);
      if (log_sim != nullptr) *log_sim = best;
      if (best_pos >= 0 && best < log_t_) best_pos = -1;
      return best_pos;
    }
    const std::vector<SimilarityResult> sims =
        bank_.ScanAll(symbols);
    for (size_t ci = 0; ci < kc; ++ci) {
      if (sims[ci].log_sim > best) {
        best = sims[ci].log_sim;
        best_pos = static_cast<int32_t>(ci);
      }
    }
    if (log_sim != nullptr) *log_sim = best;
    if (best_pos >= 0 && best < log_t_) best_pos = -1;
    return best_pos;
  }
  for (size_t ci = 0; ci < kc; ++ci) {
    double s =
        clusters_[ci].frozen_fresh()
            ? ComputeSimilarity(*clusters_[ci].frozen(), symbols).log_sim
            : ComputeSimilarity(clusters_[ci].pst(), background_, symbols)
                  .log_sim;
    if (s > best) {
      best = s;
      best_pos = static_cast<int32_t>(ci);
    }
  }
  if (log_sim != nullptr) *log_sim = best;
  if (best_pos >= 0 && best < log_t_) best_pos = -1;
  return best_pos;
}

Status RunCluseq(const SequenceStore& db, const CluseqOptions& options,
                 ClusteringResult* result) {
  CluseqClusterer clusterer(db, options);
  return clusterer.Run(result);
}

}  // namespace cluseq
