// CLUSEQ end-to-end benchmark: the learn loop, the classify path and the
// streaming scorer, measured from outside through the library's public
// API. Workloads, metrics and the traced run are documented in README.md
// next to this file; run.py builds this program and drives it.
//
//   perfbench prepare --workload=W --seed=N --dir=D
//       Generates the workload's inputs from the seed into D (.sqdb files).
//   perfbench run --workload=W --seed=N --seconds=S --trace=0|1 --dir=D
//                 [--trace-out=PATH]
//       Measures the workload on the inputs in D for about S seconds, warm-ups
//       and checks included. Every line printed to stdout is JSON; the last
//       one is the result.
//
// Exit status: 0 when every output check passed, 1 on a failed check or a
// non-OK Status, 2 on a usage error.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluseq/cluseq.h"
#include "perfbench/spans.h"

namespace {

using namespace cluseq;
using perfbench::SpanRecorder;
using Scope = perfbench::SpanRecorder::Scope;

constexpr const char* kProteinTuned = "protein-tuned";
constexpr const char* kSyntheticDeep = "synthetic-deep";
constexpr const char* kClassifyK256 = "classify-k256";

// classify-k256 inputs: the micro_prefilter recipe (256 synthetic sources,
// 120-symbol sequences, 3 training sequences per source, depth-5 models
// with c = 4), plus held-out sequences of every source as queries.
constexpr size_t kK256Sources = 256;
constexpr size_t kK256TrainPerSource = 3;
constexpr size_t kK256QueriesPerSource = 2;

// Shortest stretch of work one timing sample may cover: a single
// sub-second call is weather on a shared host.
constexpr double kMinSampleSeconds = 1.0;
// Set-up is short by nature; its samples are batches of at least this.
constexpr double kMinSetupSampleSeconds = 0.25;

// Where each phase ends, as a share of --seconds counted from the start of
// the run. Warm-ups and checks run inside these windows; a phase overruns
// its end only to reach its minimum number of samples.
constexpr double kLearnSetupUntil = 0.06;  // Learn workloads, in order.
constexpr double kLearnUntil = 0.62;
constexpr double kK256TrainUntil = 0.30;   // classify-k256, in order.
constexpr double kK256SetupUntil = 0.40;
constexpr double kServeUntil = 0.95;       // Both; the traced run then
constexpr double kTracedServeUntil = 0.85; // replays the layers.

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string command;
  std::string workload;
  std::string dir;
  std::string trace_out;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  std::string v;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (ParseFlag(arg, "workload", &v)) {
      args->workload = v;
    } else if (ParseFlag(arg, "dir", &v)) {
      args->dir = v;
    } else if (ParseFlag(arg, "trace-out", &v)) {
      args->trace_out = v;
    } else if (ParseFlag(arg, "seed", &v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &v)) {
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(arg, "trace", &v)) {
      if (v != "0" && v != "1") return false;
      args->trace = v == "1";
    } else {
      return false;
    }
  }
  const bool known = args->workload == kProteinTuned ||
                     args->workload == kSyntheticDeep ||
                     args->workload == kClassifyK256;
  return known && !args->dir.empty() && args->seconds > 0.0 &&
         (args->command == "prepare" || args->command == "run");
}

// ---------------------------------------------------------------------------
// Small helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double CpuSeconds() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// A fixed, deterministic integer loop with no memory traffic: its time
// moves with the host's speed only, never with the program under test.
double HostProbeSeconds() {
  Stopwatch watch;
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (uint32_t i = 0; i < 40'000'000u; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += i;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return watch.ElapsedSeconds();
}

// Runs `body(n)` until it has run `min_reps` (>= 1) times and the next run
// would likely end past `deadline` on `clock`, or until it returns false.
template <typename Body>
void RepeatUntil(const Stopwatch& clock, double deadline, size_t min_reps,
                 Body body) {
  const double begin = clock.ElapsedSeconds();
  for (size_t n = 0;; ++n) {
    if (n >= min_reps) {
      const double now = clock.ElapsedSeconds();
      const double per_rep = (now - begin) / static_cast<double>(n);
      if (now + per_rep > deadline) break;
    }
    if (!body(n)) break;
  }
}

// How many calls of an operation that took `one_call_seconds` make a
// sample of at least `min_seconds`.
size_t CallsPerSample(double one_call_seconds, double min_seconds) {
  if (one_call_seconds <= 0.0) return 1;
  return std::max<size_t>(
      1, static_cast<size_t>(std::ceil(min_seconds / one_call_seconds)));
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// ---------------------------------------------------------------------------
// Pinned inputs. Every option field a workload's result depends on is
// written out here instead of inherited from library or CLI defaults, so a
// change of defaults cannot silently change what is measured. The
// performance switches that are bit-for-bit neutral (batched_scan,
// prefilter, signature_budget_bytes, prefilter_prefix) stay at the library
// defaults on purpose: the benchmark measures what the program serves.

size_t BenchThreads() { return std::min<size_t>(4, HardwareThreads()); }

PstOptions PinnedPstOptions(size_t depth, uint64_t c) {
  PstOptions p;
  p.max_depth = depth;
  p.significance_threshold = c;
  p.max_memory_bytes = 0;
  p.prune_strategy = PruneStrategy::kSmallestCountFirst;
  p.smoothing_p_min = 1e-4;
  return p;
}

CluseqOptions PinnedLearnOptions(const std::string& workload,
                                 size_t threads) {
  CluseqOptions o;
  o.similarity_threshold = 1.0005;
  o.auto_initial_threshold = true;
  o.auto_threshold_quantile = 0.5;
  o.rebuild_each_iteration = true;
  o.within_scan_updates = false;
  o.adjust_bound_window = 64.0;
  o.sample_multiplier = 5.0;
  o.adjust_threshold = true;
  o.histogram_buckets = 100;
  o.visit_order = VisitOrder::kFixed;
  o.rng_seed = 42;
  o.num_threads = threads;
  o.verbose = false;
  o.checkpoint_dir.clear();
  o.resume = false;
  o.cancellation = nullptr;
  if (workload == kProteinTuned) {
    // The ROADMAP's tuned protein row (k=10 c=5 min-members=4 depth=6
    // max-iterations=15).
    o.initial_clusters = 10;
    o.significance_threshold = 5;
    o.min_unique_members = 4;
    o.max_iterations = 15;
    o.pst = PinnedPstOptions(6, 5);
  } else {
    // synthetic-deep. Deep, weakly pruned trees: PST build, freeze and
    // assembly dominate.
    o.initial_clusters = 1;
    o.significance_threshold = 30;
    o.min_unique_members = 0;
    o.max_iterations = 4;
    o.pst = PinnedPstOptions(12, 30);
  }
  return o;
}

PstOptions K256PstOptions() { return PinnedPstOptions(5, 4); }

SyntheticDatasetOptions PinnedSynthetic(size_t clusters, size_t per_cluster,
                                        size_t avg_length, uint64_t seed) {
  SyntheticDatasetOptions o;
  o.num_clusters = clusters;
  o.sequences_per_cluster = per_cluster;
  o.alphabet_size = 20;
  o.avg_length = avg_length;
  o.min_length = 0;  // avg/2
  o.max_length = 0;  // 2·avg
  o.outlier_fraction = 0.05;
  o.markov_order = 3;
  o.overrides_per_cluster = 30;
  o.spread = 0.3;
  o.peak_symbols = 3;
  o.seed = seed;
  return o;
}

std::string OptionsEcho(const CluseqOptions& o) {
  return StringPrintf(
      "{\"initial_clusters\": %zu, \"similarity_threshold\": %.17g, "
      "\"auto_initial_threshold\": %d, \"auto_threshold_quantile\": %.17g, "
      "\"rebuild_each_iteration\": %d, \"within_scan_updates\": %d, "
      "\"batched_scan\": %d, \"prefilter\": %d, "
      "\"adjust_bound_window\": %.17g, \"signature_budget_bytes\": %zu, "
      "\"prefilter_prefix\": %zu, \"significance_threshold\": %" PRIu64
      ", \"sample_multiplier\": %.17g, \"adjust_threshold\": %d, "
      "\"histogram_buckets\": %zu, \"min_unique_members\": %zu, "
      "\"max_iterations\": %zu, \"visit_order\": %d, \"num_threads\": %zu, "
      "\"rng_seed\": %" PRIu64
      ", \"pst\": {\"max_depth\": %zu, \"significance_threshold\": %" PRIu64
      ", \"max_memory_bytes\": %zu, \"prune_strategy\": %d, "
      "\"smoothing_p_min\": %.17g}}",
      o.initial_clusters, o.similarity_threshold, o.auto_initial_threshold,
      o.auto_threshold_quantile, o.rebuild_each_iteration,
      o.within_scan_updates, o.batched_scan, o.prefilter,
      o.adjust_bound_window, o.signature_budget_bytes, o.prefilter_prefix,
      o.significance_threshold, o.sample_multiplier, o.adjust_threshold,
      o.histogram_buckets, o.min_unique_members, o.max_iterations,
      static_cast<int>(o.visit_order), o.num_threads, o.rng_seed,
      o.pst.max_depth, o.pst.significance_threshold, o.pst.max_memory_bytes,
      static_cast<int>(o.pst.prune_strategy), o.pst.smoothing_p_min);
}

std::string CorpusEcho(const char* role, const SequenceStore& store) {
  return StringPrintf(
      "\"%s\": {\"records\": %zu, \"symbols\": %zu, \"labels\": %zu, "
      "\"alphabet\": %zu, \"fingerprint\": \"%016" PRIx64 "\"}",
      role, store.size(), store.TotalSymbols(), store.NumLabels(),
      store.alphabet().size(), store.ContentFingerprint());
}

// ---------------------------------------------------------------------------
// prepare: input generation (never timed).

// The learn workloads' corpora are generated from this fixed seed: the
// loop's trajectory, and with it its work, changes with the corpus (over
// five corpus seeds learn_s spread 17% on protein-tuned and 65% on
// synthetic-deep), far past any regression bound. --seed draws their query
// sample instead. Seed 7 gives the ROADMAP's baseline corpora.
constexpr uint64_t kLearnCorpusSeed = 7;

// Writes a --seed-drawn half of `corpus`, in drawn order, as the queries
// the learn workloads classify and stream.
Status WriteQuerySample(const SequenceDatabase& corpus, uint64_t seed,
                        const std::string& path) {
  Rng rng(seed);
  SequenceDatabase queries(corpus.alphabet());
  for (size_t i : rng.SampleWithoutReplacement(corpus.size(),
                                               corpus.size() / 2)) {
    queries.Add(corpus[i]);
  }
  return WriteSeqDb(queries, path);
}

Status Prepare(const Args& args) {
  if (args.workload != kClassifyK256) {
    SequenceDatabase corpus;
    if (args.workload == kProteinTuned) {
      ProteinLikeOptions o;
      o.num_families = 30;
      o.scale = 1.0;
      o.avg_length = 200;
      o.motifs_per_family = 3;
      o.motif_length = 10;
      o.motif_rate = 3.5;
      o.seed = kLearnCorpusSeed;
      corpus = MakeProteinLikeDataset(o).db;
    } else {
      // The CLI's `generate --kind=synthetic --scale=1` corpus.
      corpus = MakeSyntheticDataset(
          PinnedSynthetic(10, 105, 300, kLearnCorpusSeed));
    }
    CLUSEQ_RETURN_NOT_OK(WriteSeqDb(corpus, args.dir + "/corpus.sqdb"));
    return WriteQuerySample(corpus, args.seed, args.dir + "/queries.sqdb");
  }
  const SequenceDatabase all = MakeSyntheticDataset(PinnedSynthetic(
      kK256Sources, kK256TrainPerSource + kK256QueriesPerSource, 120,
      args.seed));
  SequenceDatabase train(all.alphabet());
  SequenceDatabase queries(all.alphabet());
  std::vector<size_t> taken(kK256Sources, 0);
  for (size_t i = 0; i < all.size(); ++i) {
    const Label label = all.LabelOf(i);
    if (label != kNoLabel &&
        taken[static_cast<size_t>(label)]++ < kK256TrainPerSource) {
      train.Add(all[i]);
    } else {
      queries.Add(all[i]);  // Held-out members and every outlier.
    }
  }
  CLUSEQ_RETURN_NOT_OK(WriteSeqDb(train, args.dir + "/train.sqdb"));
  return WriteSeqDb(queries, args.dir + "/queries.sqdb");
}

// ---------------------------------------------------------------------------
// run: shared state and phases.

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args), threads_(BenchThreads()), rec_(args.trace) {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
      }
    }
  }

  int Run();

 private:
  // --- learn workloads (protein-tuned, synthetic-deep) ---
  Status LearnWorkload();
  Status OpenCorpus(const std::string& path, SeqDbReader* reader) const;
  // One learn repetition, recorded as a span called `span`, on a fresh
  // reader and clusterer; the previous ones are torn down first.
  Status LearnOnce(const char* span, std::unique_ptr<SeqDbReader>* reader,
                   std::unique_ptr<CluseqClusterer>* clusterer,
                   ClusteringResult* result, double* wall, double* cpu);
  void SplitRunSpan(const ClusteringResult& result, double wall);
  void LoopLayerMetrics(const CluseqClusterer& clusterer,
                        const ClusteringResult& result, double wall);
  void NoLoopMetrics();
  void SelectSeedsMetric(
      const SequenceStore& db,
      const std::vector<std::shared_ptr<const FrozenPst>>& models,
      const BackgroundModel& bg, const PstOptions& pst);
  void LearnLayerMetrics(const SequenceStore& db,
                         const CluseqClusterer& clusterer,
                         const ClusteringResult& result);

  // --- classify-k256 ---
  Status ClassifyWorkload();
  struct TrainedBank {
    std::vector<Pst> psts;
    std::vector<std::shared_ptr<const FrozenPst>> models;
    FrozenBank bank;
  };
  void TrainK256(const SequenceStore& train, const BackgroundModel& bg,
                 TrainedBank* out);

  // --- phases shared by every workload ---
  // setup_s samples until `until`: batches of `once` calls covering at
  // least kMinSetupSampleSeconds each, calibrated by a first call that took
  // `first_seconds`. `once` reports its time to ready, teardown excluded.
  template <typename Once>
  Status SetupSamples(Once once, double first_seconds, double until,
                      std::vector<double>* samples);
  // Times classify passes and streaming passes over `queries` against
  // `bank` (loaded from .fbank) and `scorer` (built from the same models)
  // until the serve phase ends, and checks both against the exhaustive
  // ScanAll oracle.
  void ServePhases(const FrozenBank& bank, OnlineScorer* scorer,
                   const SequenceStore& queries,
                   std::vector<int32_t>* assignment);
  void ClassifyPass(const FrozenBank& bank, const SequenceStore& queries,
                    size_t sweeps, std::vector<int32_t>* best,
                    std::vector<double>* value) const;
  void StreamSweep(OnlineScorer* scorer, const SequenceStore& queries);
  void CheckClassify(const FrozenBank& bank, const SequenceStore& queries,
                     const std::vector<int32_t>& best,
                     const std::vector<double>& value);
  void CheckStream(const FrozenBank& bank, OnlineScorer* scorer,
                   const SequenceStore& queries);
  void ServeLayerMetrics(const FrozenBank& bank, const SequenceStore& queries,
                         double prefilter_log_t);

  void Fail(const std::string& what, uint64_t count = 1) {
    failed_ += count;
    std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", what.c_str());
  }
  void E2e(const char* name, const char* unit, double value) {
    e2e_.push_back({name, unit, value});
  }
  // Reports the median of `samples` and lists them on stderr.
  void E2e(const char* name, const char* unit,
           const std::vector<double>& samples) {
    std::string list;
    for (double v : samples) list += StringPrintf(" %.6g", v);
    std::fprintf(stderr, "perfbench: %s samples:%s\n", name, list.c_str());
    E2e(name, unit, Median(samples));
  }
  void Layer(const char* name, const char* unit, double value) {
    layer_.push_back({name, unit, value});
  }
  // Seconds since the start of the run at which a phase ending at `share`
  // of --seconds ends.
  double Until(double share) const { return share * args_.seconds; }
  template <typename Body>
  void Repeat(double until_share, size_t min_reps, Body body) {
    RepeatUntil(clock_, Until(until_share), min_reps, body);
  }

  const Args& args_;
  const size_t threads_;
  const Stopwatch clock_;  // The run's start.
  SpanRecorder rec_;
  // The CPUs the process may run on, which the streaming thread visits.
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::string echo_;

  // Samples gathered along the way for the traced run's metrics.
  std::vector<double> untraced_rep_walls_;
  std::vector<double> traced_rep_walls_;
  std::vector<double> learn_cpu_;
  std::vector<double> learn_wall_;
  double stream_symbols_per_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Learn workloads.

Status Bench::OpenCorpus(const std::string& path,
                         SeqDbReader* reader) const {
  SeqDbReaderOptions options;
  options.prefer_mmap = true;
  options.verify_data = true;
  return SeqDbReader::Open(path, reader, options);
}

uint64_t ClusteringFingerprint(const ClusteringResult& r) {
  uint64_t h = Mix(0, r.iterations);
  h = Mix(h, r.num_unclustered);
  h = Mix(h, DoubleBits(r.final_log_threshold));
  for (int32_t b : r.best_cluster) h = Mix(h, static_cast<uint64_t>(b));
  for (const auto& members : r.clusters) {
    h = Mix(h, members.size());
    for (size_t m : members) h = Mix(h, m);
  }
  return h;
}

Status Bench::LearnOnce(const char* span,
                        std::unique_ptr<SeqDbReader>* reader,
                        std::unique_ptr<CluseqClusterer>* clusterer,
                        ClusteringResult* result, double* wall,
                        double* cpu) {
  Scope rep(rec_, span, true);
  {
    Scope s(rec_, "teardown");
    *clusterer = nullptr;
    *reader = nullptr;
  }
  *reader = std::make_unique<SeqDbReader>();
  {
    Scope s(rec_, "seq.open");
    CLUSEQ_RETURN_NOT_OK(
        OpenCorpus(args_.dir + "/corpus.sqdb", reader->get()));
  }
  {
    Scope s(rec_, "core.construct");
    *clusterer = std::make_unique<CluseqClusterer>(
        **reader, PinnedLearnOptions(args_.workload, threads_));
  }
  *result = ClusteringResult();
  Scope run(rec_, "core.Run");
  const double cpu0 = CpuSeconds();
  Stopwatch watch;
  const Status st = (*clusterer)->Run(result);
  *wall = watch.ElapsedSeconds();
  *cpu = CpuSeconds() - cpu0;
  SplitRunSpan(*result, *wall);
  ++attempted_;
  return st;
}

// Run()'s phase timers summed over its iterations. They overlap the PST
// work: seed includes the PST rebuild and scan the re-freeze and Assemble.
// What they do not cover (threshold adjustment, background estimation,
// bookkeeping) is `other`.
struct PhaseSums {
  double seed = 0.0, scan = 0.0, join = 0.0, consolidate = 0.0, other = 0.0;
  size_t refrozen = 0;
};

PhaseSums SumPhases(const ClusteringResult& result, double wall) {
  PhaseSums p;
  for (const IterationStats& s : result.iteration_stats) {
    p.seed += s.seed_seconds;
    p.scan += s.scan_seconds;
    p.join += s.join_seconds;
    p.consolidate += s.consolidate_seconds;
    p.refrozen += s.refrozen_clusters;
  }
  p.other = wall - p.seed - p.scan - p.join - p.consolidate;
  return p;
}

// Run() is one leaf, split only by the phase timers it reports.
void Bench::SplitRunSpan(const ClusteringResult& result, double wall) {
  const PhaseSums p = SumPhases(result, wall);
  rec_.AddChild("core.seed", p.seed);
  rec_.AddChild("core.scan", p.scan);
  rec_.AddChild("core.join", p.join);
  rec_.AddChild("core.consolidate", p.consolidate);
  rec_.AddChild("core.run_other", p.other);
}

void Bench::LoopLayerMetrics(const CluseqClusterer& clusterer,
                             const ClusteringResult& result, double wall) {
  const PhaseSums p = SumPhases(result, wall);
  Layer("core.iterations", "count", static_cast<double>(result.iterations));
  Layer("core.clusters", "count", static_cast<double>(result.num_clusters()));
  Layer("core.refrozen_clusters", "count", static_cast<double>(p.refrozen));
  Layer("core.seed_s", "s", p.seed);
  Layer("core.scan_s", "s", p.scan);
  Layer("core.join_s", "s", p.join);
  Layer("core.consolidate_s", "s", p.consolidate);
  Layer("core.run_other_s", "s", p.other);
  const obs::RunReport* report = clusterer.report();
  Layer("core.loop_skip_ratio", "1",
        report != nullptr ? report->prefilter_skip_ratio : 0.0);
}

// classify-k256 runs no clustering loop, so it has no loop metrics. They
// read 0 there because the result line carries every per-layer metric.
void Bench::NoLoopMetrics() {
  for (const char* name :
       {"core.iterations", "core.clusters", "core.refrozen_clusters"}) {
    Layer(name, "count", 0.0);
  }
  for (const char* name : {"core.seed_s", "core.scan_s", "core.join_s",
                           "core.consolidate_s", "core.run_other_s"}) {
    Layer(name, "s", 0.0);
  }
  Layer("core.loop_skip_ratio", "1", 0.0);
}

template <typename Once>
Status Bench::SetupSamples(Once once, double first_seconds, double until,
                           std::vector<double>* samples) {
  const size_t calls = CallsPerSample(first_seconds, kMinSetupSampleSeconds);
  Status failure = Status::OK();
  Repeat(until, 5, [&](size_t) {
    double total = 0.0;
    for (size_t i = 0; i < calls; ++i) {
      double seconds = 0.0;
      failure = once(&seconds);
      if (!failure.ok()) return false;
      total += seconds;
    }
    samples->push_back(total / static_cast<double>(calls));
    return true;
  });
  return failure;
}

// One SelectSeeds call: 10 seeds from a 50-sequence sample of `db`, against
// `models`, with a fixed rng.
void Bench::SelectSeedsMetric(
    const SequenceStore& db,
    const std::vector<std::shared_ptr<const FrozenPst>>& models,
    const BackgroundModel& bg, const PstOptions& pst) {
  Scope s(rec_, "core.select_seeds", true);
  std::vector<size_t> pool(db.size());
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  Rng rng(42);
  Stopwatch watch;
  const std::vector<size_t> seeds =
      SelectSeeds(db, pool, 10, 50, models, bg, pst, threads_, &rng);
  Layer("core.select_seeds_s", "s", watch.ElapsedSeconds());
  if (seeds.size() != 10) Fail("SelectSeeds returned too few seeds");
}

Status Bench::LearnWorkload() {
  const std::string corpus_path = args_.dir + "/corpus.sqdb";
  const CluseqOptions options = PinnedLearnOptions(args_.workload, threads_);

  // setup_s: open the corpus with data verification and construct the
  // clusterer; teardown is outside the clock. The first call warms up.
  auto setup_once = [&](double* seconds) -> Status {
    auto r = std::make_unique<SeqDbReader>();
    std::unique_ptr<CluseqClusterer> c;
    {
      Scope setup(rec_, "setup", true);
      Stopwatch watch;
      {
        Scope open(rec_, "seq.open");
        CLUSEQ_RETURN_NOT_OK(OpenCorpus(corpus_path, r.get()));
      }
      {
        Scope construct(rec_, "core.construct");
        c = std::make_unique<CluseqClusterer>(*r, options);
      }
      *seconds = watch.ElapsedSeconds();
    }
    Scope teardown(rec_, "teardown", true);
    c = nullptr;
    r = nullptr;
    return Status::OK();
  };
  std::vector<double> setup_samples;
  double first = 0.0;
  CLUSEQ_RETURN_NOT_OK(setup_once(&first));
  CLUSEQ_RETURN_NOT_OK(
      SetupSamples(setup_once, first, kLearnSetupUntil, &setup_samples));

  // Untimed warm-up: one full learn, which also fixes the reference
  // clustering every timed repetition must reproduce.
  std::unique_ptr<SeqDbReader> reader;
  std::unique_ptr<CluseqClusterer> clusterer;
  ClusteringResult result;
  double wall = 0.0, cpu = 0.0;
  CLUSEQ_RETURN_NOT_OK(
      LearnOnce("warmup", &reader, &clusterer, &result, &wall, &cpu));
  if (result.interrupted) Fail("warm-up learn was interrupted");
  const uint64_t reference = ClusteringFingerprint(result);
  echo_ = StringPrintf("\"options\": %s, %s", OptionsEcho(options).c_str(),
                       CorpusEcho("corpus", *reader).c_str());

  // learn_s: whole Run() repetitions. In the traced run untraced and traced
  // repetitions alternate, which gives obs.trace_overhead; the untraced
  // ones pause the recorder and are not traced wall time.
  std::vector<double> walls;
  Status failure = Status::OK();
  Repeat(kLearnUntil, args_.trace ? 1 : 3, [&](size_t n) {
    const size_t pairs = args_.trace ? 2 : 1;
    for (size_t k = 0; k < pairs; ++k) {
      const bool traced = args_.trace && (n + k) % 2 == 1;
      std::optional<SpanRecorder::Pause> pause;
      if (!traced) pause.emplace(rec_);
      ClusteringResult r;
      double w = 0.0, c = 0.0;
      failure = LearnOnce("learn", &reader, &clusterer, &r, &w, &c);
      if (!failure.ok()) return false;
      if (r.interrupted) {
        Fail("learn repetition was interrupted");
      } else if (ClusteringFingerprint(r) != reference) {
        Fail("learn repetition produced a different clustering");
      }
      (traced ? traced_rep_walls_ : untraced_rep_walls_).push_back(w);
      if (!traced) walls.push_back(w);
      learn_wall_.push_back(w);
      learn_cpu_.push_back(c);
      result = std::move(r);
    }
    return true;
  });
  CLUSEQ_RETURN_NOT_OK(failure);

  EvaluationSummary eval;
  {
    Scope s(rec_, "eval.evaluate", true);
    eval = Evaluate(*reader, result.best_cluster);
  }

  // The served artifact: the final clusters' snapshots as one .fbank.
  std::vector<std::shared_ptr<const FrozenPst>> models;
  const std::string bank_path = args_.dir + "/bank.fbank";
  {
    Scope save(rec_, "pst.bank_save", true);
    for (const Cluster& c : clusterer->clusters()) {
      models.push_back(c.frozen() != nullptr
                           ? c.frozen()
                           : std::make_shared<const FrozenPst>(
                                 c.pst(), clusterer->background()));
    }
    if (models.empty()) return Status::Internal("learn produced no clusters");
    CLUSEQ_RETURN_NOT_OK(SaveFrozenBankToFile(FrozenBank(models), bank_path));
  }
  FrozenBank served;
  {
    Scope load(rec_, "pst.bank_load", true);
    CLUSEQ_RETURN_NOT_OK(LoadFrozenBankFromFile(bank_path, &served));
  }
  std::optional<OnlineScorer> scorer;
  {
    Scope s(rec_, "core.scorer", true);
    scorer.emplace(clusterer->background());
    for (const auto& m : models) scorer->AddModel(m);
  }
  SeqDbReader queries;
  {
    Scope s(rec_, "seq.open_queries", true);
    CLUSEQ_RETURN_NOT_OK(OpenCorpus(args_.dir + "/queries.sqdb", &queries));
  }
  echo_ += ", " + CorpusEcho("queries", queries);

  std::vector<int32_t> assignment;
  ServePhases(served, &*scorer, queries, &assignment);

  E2e("setup_s", "s", setup_samples);
  E2e("learn_s", "s", walls);
  E2e("nmi", "1", eval.nmi);
  std::fprintf(stderr,
               "perfbench: %s clusters=%zu iterations=%zu unclustered=%zu "
               "final_log_t=%.6f nmi=%.6f correct=%.4f\n",
               args_.workload.c_str(), result.num_clusters(),
               result.iterations, result.num_unclustered,
               result.final_log_threshold, eval.nmi, eval.correct_fraction);

  if (args_.trace) {
    LearnLayerMetrics(*reader, *clusterer, result);
    ServeLayerMetrics(served, queries, result.final_log_threshold);
  }
  return Status::OK();
}

void Bench::LearnLayerMetrics(const SequenceStore& db,
                              const CluseqClusterer& clusterer,
                              const ClusteringResult& result) {
  {
    std::vector<double> samples;
    for (int i = 0; i < 5; ++i) {
      Scope s(rec_, "seq.background", true);
      Stopwatch watch;
      const BackgroundModel bg = BackgroundModel::FromDatabase(db);
      samples.push_back(watch.ElapsedSeconds());
    }
    Layer("seq.background_s", "s", Median(samples));
  }
  // Replay the final clusters' PST construction: every contributed
  // (member, segment) pair, one tree at a time, on one thread. The replayed
  // trees must have exactly the nodes of the clusterer's own.
  size_t nodes = 0, significant = 0;
  {
    Scope s(rec_, "pst.insert", true);
    double seconds = 0.0;
    size_t symbols = 0, replayed_nodes = 0;
    for (const Cluster& c : clusterer.clusters()) {
      std::vector<std::pair<size_t, Cluster::Segment>> segments(
          c.contributions().begin(), c.contributions().end());
      std::sort(segments.begin(), segments.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      Stopwatch watch;
      Pst pst(db.alphabet().size(), c.pst().options());
      for (const auto& [member, seg] : segments) {
        pst.InsertSequence(
            db.Symbols(member).subspan(seg.begin, seg.end - seg.begin));
        symbols += seg.end - seg.begin;
      }
      seconds += watch.ElapsedSeconds();
      replayed_nodes += pst.NumNodes();
      const PstStats stats = c.pst().Stats();
      nodes += stats.num_nodes;
      significant += stats.num_significant_nodes;
    }
    if (replayed_nodes != nodes) Fail("replayed PSTs differ from the loop's");
    Layer("pst.insert_s", "s", seconds);
    Layer("pst.insert_symbols", "count", static_cast<double>(symbols));
  }
  Layer("pst.nodes_total", "count", static_cast<double>(nodes));
  Layer("pst.nodes_significant", "count", static_cast<double>(significant));
  std::vector<std::shared_ptr<const FrozenPst>> frozen;
  {
    Scope s(rec_, "pst.freeze", true);
    Stopwatch watch;
    size_t states = 0;
    for (const Cluster& c : clusterer.clusters()) {
      frozen.push_back(
          std::make_shared<const FrozenPst>(c.pst(), clusterer.background()));
      states += frozen.back()->num_states();
    }
    Layer("pst.freeze_s", "s", watch.ElapsedSeconds());
    Layer("pst.frozen_states", "count", static_cast<double>(states));
  }
  {
    Scope s(rec_, "pst.assemble", true);
    Stopwatch watch;
    FrozenBank bank;
    bank.Assemble(frozen);
    Layer("pst.assemble_s", "s", watch.ElapsedSeconds());
    Layer("pst.bank_bytes", "B", static_cast<double>(bank.ApproxMemoryBytes()));
  }
  SelectSeedsMetric(db, frozen, clusterer.background(),
                    PinnedLearnOptions(args_.workload, threads_).pst);
  LoopLayerMetrics(clusterer, result, learn_wall_.back());
}

// ---------------------------------------------------------------------------
// classify-k256.

void Bench::TrainK256(const SequenceStore& train, const BackgroundModel& bg,
                      TrainedBank* out) {
  const PstOptions options = K256PstOptions();
  std::vector<std::vector<size_t>> members(kK256Sources);
  for (size_t i = 0; i < train.size(); ++i) {
    members[static_cast<size_t>(train.LabelOf(i)) % kK256Sources].push_back(i);
  }
  {
    // Drops the previous training's trees and models.
    Scope s(rec_, "pst.reset");
    out->psts.assign(kK256Sources, Pst(train.alphabet().size(), options));
    out->models.assign(kK256Sources, nullptr);
  }
  {
    Scope s(rec_, "pst.insert");
    ParallelFor(kK256Sources, threads_, [&](size_t m) {
      for (size_t i : members[m]) out->psts[m].InsertSequence(train.Symbols(i));
    });
  }
  {
    Scope s(rec_, "pst.freeze");
    ParallelFor(kK256Sources, threads_, [&](size_t m) {
      out->models[m] = std::make_shared<const FrozenPst>(out->psts[m], bg);
    });
  }
  {
    Scope s(rec_, "pst.assemble");
    out->bank = FrozenBank();
    out->bank.Assemble(out->models);
  }
}

Status Bench::ClassifyWorkload() {
  SeqDbReader train;
  {
    Scope s(rec_, "seq.open_train", true);
    CLUSEQ_RETURN_NOT_OK(OpenCorpus(args_.dir + "/train.sqdb", &train));
  }
  const std::string queries_path = args_.dir + "/queries.sqdb";
  const std::string bank_path = args_.dir + "/bank.fbank";

  // learn_s: train the serving bank (background, one PST per source,
  // freeze, assemble); every repetition must give the same models.
  auto bank_fingerprint = [](const TrainedBank& t) {
    uint64_t h = 0;
    for (const auto& m : t.models) {
      h = Mix(h, m->num_states());
      h = Mix(h, DoubleBits(m->max_log_ratio()));
    }
    return h;
  };
  BackgroundModel bg;
  auto train_once = [&](TrainedBank* out) {
    {
      Scope s(rec_, "seq.background");
      bg = BackgroundModel::FromDatabase(train);
    }
    TrainK256(train, bg, out);
    ++attempted_;
  };
  TrainedBank trained;
  Stopwatch one;
  {
    Scope warm(rec_, "warmup", true);
    train_once(&trained);
  }
  const uint64_t reference = bank_fingerprint(trained);
  const size_t calls = CallsPerSample(one.ElapsedSeconds(), kMinSampleSeconds);
  std::vector<double> learn_samples;
  Repeat(kK256TrainUntil, args_.trace ? 2 : 3, [&](size_t n) {
    // Traced run: untraced and traced samples alternate.
    const bool traced = args_.trace && n % 2 == 1;
    const double cpu0 = CpuSeconds();
    Stopwatch watch;
    for (size_t i = 0; i < calls; ++i) {
      if (traced) {
        Scope rep(rec_, "learn", true);
        train_once(&trained);
      } else {
        SpanRecorder::Pause untraced(rec_);
        train_once(&trained);
      }
      if (bank_fingerprint(trained) != reference) {
        Fail("bank training produced different models");
      }
    }
    const double per_call = watch.ElapsedSeconds() / static_cast<double>(calls);
    (traced ? traced_rep_walls_ : untraced_rep_walls_).push_back(per_call);
    if (!traced) learn_samples.push_back(per_call);
    learn_wall_.push_back(per_call);
    learn_cpu_.push_back((CpuSeconds() - cpu0) / static_cast<double>(calls));
    return true;
  });
  {
    Scope save(rec_, "pst.bank_save", true);
    CLUSEQ_RETURN_NOT_OK(SaveFrozenBankToFile(trained.bank, bank_path));
  }
  echo_ = StringPrintf(
      "\"options\": {\"models\": %zu, \"pst\": {\"max_depth\": %zu, "
      "\"significance_threshold\": %" PRIu64 ", \"max_memory_bytes\": %zu, "
      "\"prune_strategy\": %d, \"smoothing_p_min\": %.17g}, "
      "\"num_threads\": %zu}, %s",
      kK256Sources, K256PstOptions().max_depth,
      K256PstOptions().significance_threshold,
      K256PstOptions().max_memory_bytes,
      static_cast<int>(K256PstOptions().prune_strategy),
      K256PstOptions().smoothing_p_min, threads_,
      CorpusEcho("train", train).c_str());
  size_t nodes = 0, significant = 0;
  for (const Pst& p : trained.psts) {
    const PstStats stats = p.Stats();
    nodes += stats.num_nodes;
    significant += stats.num_significant_nodes;
  }
  size_t states = 0;
  for (const auto& m : trained.models) states += m->num_states();
  const size_t bank_bytes = trained.bank.ApproxMemoryBytes();
  const size_t train_symbols = train.TotalSymbols();
  {
    Scope s(rec_, "teardown", true);
    trained.bank = FrozenBank();  // Served from the file from here on.
    trained.psts.clear();
  }

  // setup_s: load the .fbank, open the queries, build the prefilter and the
  // streaming scorer. Forcing the scorer's bank assembly (one Push, then
  // Reset) is part of being ready to serve.
  struct Served {
    FrozenBank bank;
    SeqDbReader queries;
    std::unique_ptr<OnlineScorer> scorer;
  };
  auto setup_once = [&](Served* out, double* seconds) -> Status {
    Scope setup(rec_, "setup", true);
    Stopwatch watch;
    {
      Scope s(rec_, "pst.bank_load");
      CLUSEQ_RETURN_NOT_OK(LoadFrozenBankFromFile(bank_path, &out->bank));
    }
    {
      Scope s(rec_, "seq.open");
      CLUSEQ_RETURN_NOT_OK(OpenCorpus(queries_path, &out->queries));
    }
    Scope s(rec_, "core.construct");
    const ScanPrefilter prefilter(&out->bank);
    if (!prefilter.bound()) return Status::Internal("empty served bank");
    out->scorer = std::make_unique<OnlineScorer>(bg);
    for (const auto& m : trained.models) out->scorer->AddModel(m);
    out->scorer->Push(0);
    out->scorer->Reset();
    *seconds = watch.ElapsedSeconds();
    return Status::OK();
  };
  // The first set-up warms up and is the one that serves.
  Served served;
  std::vector<double> setup_samples;
  double first = 0.0;
  CLUSEQ_RETURN_NOT_OK(setup_once(&served, &first));
  CLUSEQ_RETURN_NOT_OK(SetupSamples(
      [&](double* seconds) -> Status {
        auto s = std::make_unique<Served>();
        const Status st = setup_once(s.get(), seconds);
        Scope teardown(rec_, "teardown", true);
        s = nullptr;
        return st;
      },
      first, kK256SetupUntil, &setup_samples));
  echo_ += ", " + CorpusEcho("queries", served.queries);

  std::vector<int32_t> assignment;
  ServePhases(served.bank, served.scorer.get(), served.queries, &assignment);
  const FrozenBank& bank = served.bank;
  const SeqDbReader& queries = served.queries;

  E2e("setup_s", "s", setup_samples);
  E2e("learn_s", "s", learn_samples);
  {
    Scope s(rec_, "eval.evaluate", true);
    E2e("nmi", "1", Evaluate(queries, assignment).nmi);
  }

  if (args_.trace) {
    Layer("seq.background_s", "s", Median(rec_.Durations("seq.background")));
    Layer("pst.insert_s", "s", Median(rec_.Durations("pst.insert")));
    Layer("pst.insert_symbols", "count", static_cast<double>(train_symbols));
    Layer("pst.nodes_total", "count", static_cast<double>(nodes));
    Layer("pst.nodes_significant", "count", static_cast<double>(significant));
    Layer("pst.freeze_s", "s", Median(rec_.Durations("pst.freeze")));
    Layer("pst.frozen_states", "count", static_cast<double>(states));
    Layer("pst.assemble_s", "s", Median(rec_.Durations("pst.assemble")));
    Layer("pst.bank_bytes", "B", static_cast<double>(bank_bytes));
    SelectSeedsMetric(queries, trained.models, bg, K256PstOptions());
    // The prefilter replay runs at the median per-query best score, the
    // micro_prefilter threshold.
    std::vector<double> best(queries.size());
    {
      Scope s(rec_, "core.best_model_threshold", true);
      const ScanPrefilter prefilter(&bank);
      for (size_t i = 0; i < queries.size(); ++i) {
        prefilter.BestModel(queries.Symbols(i), &best[i]);
      }
    }
    ServeLayerMetrics(bank, queries, std::max(0.0, Median(best)));
    NoLoopMetrics();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Serving phases.

void Bench::ClassifyPass(const FrozenBank& bank, const SequenceStore& queries,
                         size_t sweeps, std::vector<int32_t>* best,
                         std::vector<double>* value) const {
  // The CLI classify path: pruned argmax per query under
  // ParallelForWeighted, weighted by sequence length. `sweeps` copies of the
  // query set go through one parallel loop, so a pass of small sweeps does
  // not time the pool's start and join once per sweep.
  const size_t n = queries.size();
  const ScanPrefilter prefilter(&bank);
  best->assign(sweeps * n, -1);
  value->assign(sweeps * n, 0.0);
  ParallelForWeighted(
      sweeps * n, threads_,
      [&](size_t j) -> uint64_t { return queries.Length(j % n); },
      [&](size_t j) {
        (*best)[j] = prefilter.BestModel(queries.Symbols(j % n), &(*value)[j]);
      });
}

void Bench::StreamSweep(OnlineScorer* scorer, const SequenceStore& queries) {
  // Each query is one stream: exhaustive StepAll over every model per
  // symbol, on the calling thread. The thread runs an equal share of the
  // queries on each allowed CPU, so a sample averages the CPUs' current
  // speeds. Left to the scheduler it stays on one CPU, and on a shared
  // host one CPU can run it at 0.7x for ten seconds at a time.
  const size_t n = queries.size();
  const size_t parts = std::max<size_t>(1, cpus_.size());
  for (size_t k = 0; k < parts; ++k) {
    if (!cpus_.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[k], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    for (size_t i = k * n / parts; i < (k + 1) * n / parts; ++i) {
      scorer->Reset();
      for (SymbolId s : queries.Symbols(i)) scorer->Push(s);
    }
  }
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

// Deterministic subset: about `target` evenly strided indices.
std::vector<size_t> Subset(size_t n, size_t target) {
  std::vector<size_t> out;
  const size_t stride = std::max<size_t>(1, n / std::max<size_t>(1, target));
  for (size_t i = 0; i < n && out.size() < target; i += stride) {
    out.push_back(i);
  }
  return out;
}

void Bench::CheckClassify(const FrozenBank& bank, const SequenceStore& queries,
                          const std::vector<int32_t>& best,
                          const std::vector<double>& value) {
  Scope s(rec_, "check.classify", true);
  std::vector<SimilarityResult> row(bank.num_models());
  for (size_t i : Subset(queries.size(), 256)) {
    bank.ScanAll(queries.Symbols(i), row.data());
    double ex_best = -std::numeric_limits<double>::infinity();
    int32_t ex_pos = -1;
    for (size_t m = 0; m < row.size(); ++m) {
      if (row[m].log_sim > ex_best) {
        ex_best = row[m].log_sim;
        ex_pos = static_cast<int32_t>(m);
      }
    }
    if (best[i] != ex_pos || (ex_pos >= 0 && value[i] != ex_best)) {
      Fail(StringPrintf("BestModel disagrees with ScanAll on query %zu", i));
    }
  }
}

void Bench::CheckStream(const FrozenBank& bank, OnlineScorer* scorer,
                        const SequenceStore& queries) {
  Scope s(rec_, "check.stream", true);
  std::vector<SimilarityResult> row(bank.num_models());
  for (size_t i : Subset(queries.size(), 64)) {
    const auto symbols = queries.Symbols(i);
    bank.ScanAll(symbols, row.data());
    scorer->Reset();
    for (SymbolId sym : symbols) scorer->Push(sym);
    for (size_t m = 0; m < row.size(); ++m) {
      if (scorer->ScoreOf(m).log_sim != row[m].log_sim) {
        Fail(StringPrintf("Push score differs from ScanAll on query %zu", i));
        break;
      }
    }
  }
  scorer->Reset();
}

void Bench::ServePhases(const FrozenBank& bank, OnlineScorer* scorer,
                        const SequenceStore& queries,
                        std::vector<int32_t>* assignment) {
  const size_t n = queries.size();
  const size_t symbols = queries.TotalSymbols();

  // Untimed warm-ups; the classify warm-up is the reference assignment and
  // both calibrate how many sweeps make a sample of >= 1 s.
  std::vector<int32_t> best;
  std::vector<double> value;
  Stopwatch one;
  {
    Scope warm(rec_, "warmup", true);
    ClassifyPass(bank, queries, 1, &best, &value);
  }
  const size_t sweeps = CallsPerSample(one.ElapsedSeconds(), kMinSampleSeconds);
  Stopwatch first;
  {
    Scope warm(rec_, "warmup", true);
    StreamSweep(scorer, queries);
  }
  const size_t stream_sweeps =
      CallsPerSample(first.ElapsedSeconds(), kMinSampleSeconds);
  attempted_ += 2 * n;
  CheckClassify(bank, queries, best, value);
  CheckStream(bank, scorer, queries);

  // Classify and stream passes alternate, so both sample the whole phase
  // rather than one stretch of the host's weather each.
  std::vector<double> rates;
  std::vector<double> stream_rates;
  std::vector<int32_t> b;
  std::vector<double> v;
  Repeat(args_.trace ? kTracedServeUntil : kServeUntil, 3, [&](size_t) {
    {
      Scope pass(rec_, "core.best_model_pass", true);
      Stopwatch watch;
      ClassifyPass(bank, queries, sweeps, &b, &v);
      rates.push_back(static_cast<double>(sweeps * n) / watch.ElapsedSeconds());
    }
    attempted_ += sweeps * n;
    {
      Scope check(rec_, "check.classify_pass", true);
      size_t mismatches = 0;
      for (size_t j = 0; j < b.size(); ++j) {
        mismatches += b[j] != best[j % n] || v[j] != value[j % n];
      }
      if (mismatches > 0) {
        Fail(StringPrintf("%zu classify results differ from the reference "
                          "pass",
                          mismatches),
             mismatches);
      }
    }
    {
      Scope pass(rec_, "pst.stepall_pass", true);
      Stopwatch watch;
      for (size_t k = 0; k < stream_sweeps; ++k) StreamSweep(scorer, queries);
      stream_rates.push_back(static_cast<double>(stream_sweeps * symbols) /
                             watch.ElapsedSeconds());
    }
    attempted_ += stream_sweeps * n;
    return true;
  });
  *assignment = best;
  stream_symbols_per_s_ = Median(stream_rates);
  E2e("classify_seqs_per_s", "1/s", rates);
  E2e("stream_symbols_per_s", "1/s", stream_rates);
}

void Bench::ServeLayerMetrics(const FrozenBank& bank,
                              const SequenceStore& queries,
                              double prefilter_log_t) {
  const size_t n = queries.size();
  const size_t k = bank.num_models();
  const auto cost = [&](size_t i) -> uint64_t { return queries.Length(i); };
  Layer("seq.open_s", "s", Median(rec_.Durations("seq.open")));
  Layer("pst.bank_load_s", "s", Median(rec_.Durations("pst.bank_load")));
  {
    Scope s(rec_, "pst.scanall", true);
    Stopwatch watch;
    ParallelForWeighted(n, threads_, cost, [&](size_t i) {
      thread_local std::vector<SimilarityResult> row;
      if (row.size() < k) row.resize(k);
      bank.ScanAll(queries.Symbols(i), row.data());
    });
    const double seconds = watch.ElapsedSeconds();
    Layer("pst.scanall_s", "s", seconds);
    Layer("pst.scanall_symbols_per_s", "1/s",
          static_cast<double>(queries.TotalSymbols()) / seconds);
  }
  Layer("pst.stepall_ns_per_symbol", "ns",
        stream_symbols_per_s_ > 0.0 ? 1e9 / stream_symbols_per_s_ : 0.0);
  {
    Scope s(rec_, "core.prefilter_scan", true);
    const ScanPrefilter prefilter(&bank);
    std::atomic<uint64_t> skipped{0};
    Stopwatch watch;
    ParallelForWeighted(n, threads_, cost, [&](size_t i) {
      thread_local std::vector<SimilarityResult> row;
      if (row.size() < k) row.resize(k);
      PrefilterScanStats stats;
      prefilter.ScanAllWithThreshold(queries.Symbols(i), prefilter_log_t,
                                     row.data(), &stats);
      skipped.fetch_add(stats.candidates_skipped, std::memory_order_relaxed);
    });
    const double pairs = static_cast<double>(n) * static_cast<double>(k);
    Layer("core.prefilter_scan_s", "s", watch.ElapsedSeconds());
    Layer("core.prefilter_pairs", "count", pairs);
    Layer("core.prefilter_skip_ratio", "1",
          static_cast<double>(skipped.load()) / pairs);
  }
  {
    // Per-call BestModel latency on one thread.
    Scope s(rec_, "core.best_model_latency", true);
    const ScanPrefilter prefilter(&bank);
    std::vector<double> us;
    size_t skipped = 0, total = 0;
    for (size_t i : Subset(n, 2000)) {
      PrefilterScanStats stats;
      double v = 0.0;
      Stopwatch watch;
      prefilter.BestModel(queries.Symbols(i), &v, &stats);
      us.push_back(watch.ElapsedSeconds() * 1e6);
      skipped += stats.candidates_skipped;
      total += stats.models_total;
    }
    Layer("core.best_model_p50_us", "us", Percentile(us, 0.5));
    Layer("core.best_model_p99_us", "us", Percentile(us, 0.99));
    Layer("core.best_model_calls", "count", static_cast<double>(us.size()));
    Layer("core.best_model_skip_ratio", "1",
          total > 0 ? static_cast<double>(skipped) / static_cast<double>(total)
                    : 0.0);
  }
}

// ---------------------------------------------------------------------------

int Bench::Run() {
  std::vector<double> probes;
  {
    Scope s(rec_, "host.probe", true);
    for (int i = 0; i < 3; ++i) probes.push_back(HostProbeSeconds());
  }
  const Status st = args_.workload == kClassifyK256 ? ClassifyWorkload()
                                                    : LearnWorkload();
  {
    Scope s(rec_, "host.probe", true);
    for (int i = 0; i < 3; ++i) probes.push_back(HostProbeSeconds());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  E2e("peak_rss_mb", "MiB", PeakRssMb());

  if (args_.trace) {
    const double cpu = Median(learn_cpu_);
    const double wall = Median(learn_wall_);
    Layer("util.threads", "count", static_cast<double>(threads_));
    Layer("util.learn_cpu_s", "s", cpu);
    Layer("util.pool_utilization", "1",
          wall > 0.0 ? cpu / (wall * static_cast<double>(threads_)) : 0.0);
    const double untraced = Median(untraced_rep_walls_);
    Layer("obs.trace_overhead", "1",
          untraced > 0.0 ? Median(traced_rep_walls_) / untraced - 1.0 : 0.0);
    Layer("obs.leaf_coverage", "1", rec_.LeafCoverage());
    Layer("host.probe_s", "s", Median(probes));
    if (!args_.trace_out.empty() && !rec_.WriteJson(args_.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args_.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: self time by span (s)\n");
    for (const auto& [name, seconds] : rec_.SelfSecondsByName()) {
      std::fprintf(stderr, "  %-28s %12.6f\n", name.c_str(), seconds);
    }
  }
  std::fprintf(stderr, "perfbench: host.probe_s start %.6f end %.6f\n",
               Median({probes[0], probes[1], probes[2]}),
               Median({probes[3], probes[4], probes[5]}));
  std::fprintf(stderr, "perfbench: run took %.2f s for --seconds=%g\n",
               clock_.ElapsedSeconds(), args_.seconds);

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"threads\": %zu, %s}\n",
              args_.workload.c_str(), args_.seed, threads_, echo_.c_str());
  const std::vector<Metric>& metrics = args_.trace ? layer_ : e2e_;
  std::string body;
  for (const Metric& m : metrics) {
    if (!body.empty()) body += ", ";
    body += StringPrintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              failed_ == 0 ? "true" : "false", attempted_, failed_,
              body.c_str());
  std::fflush(stdout);
  return failed_ == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench prepare|run --workload=protein-tuned|"
                 "synthetic-deep|classify-k256 --seed=N --dir=D "
                 "[--seconds=S --trace=0|1 --trace-out=PATH]\n");
    return 2;
  }
  if (args.command == "prepare") {
    const Status st = Prepare(args);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench prepare: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  return Bench(args).Run();
}
