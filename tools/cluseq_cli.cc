// cluseq_cli — command-line front end for the CLUSEQ library.
//
// Subcommands:
//   generate  synthesize a labeled dataset and write it to a file
//   import    convert a FASTA/TSV corpus to the indexed .sqdb store
//   export    convert a .sqdb store back to FASTA/TSV
//   cluster   cluster a dataset and write per-sequence assignments
//   classify  score sequences against a previously saved bank.fbank
//
// Examples:
//   cluseq_cli generate --kind=protein --out=prot.fasta --scale=0.05
//   cluseq_cli import --input=prot.fasta --out=prot.sqdb
//   cluseq_cli cluster --input=prot.sqdb --assignments=out.tsv
//       --model-dir=models --c=5 --min-members=4
//   cluseq_cli classify --input=more.fasta --model-dir=models
//
// Input format is chosen by extension: .sqdb → the indexed binary store
// (mmap-backed, no parsing, corpus stays out of process RSS);
// .fa/.fasta → FASTA; else TSV ("id<TAB>label<TAB>text"; label -1 =
// unlabeled). generate/import/export pick the output format the same way,
// so `generate --out=corpus.sqdb` writes the binary store directly.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluseq/cluseq.h"

namespace {

using namespace cluseq;

// Cooperative cancellation for the cluster subcommand. The first
// SIGINT/SIGTERM requests a clean stop: the clusterer finishes its current
// phase, flushes a final checkpoint, the CLI writes whatever outputs were
// requested, and exits 3. A second signal restores the default disposition
// and re-raises, i.e. dies immediately. Everything in the handler is
// async-signal-safe: one relaxed atomic store, signal(), raise(), write().
CancellationToken g_cancel;
volatile sig_atomic_t g_signal_seen = 0;

void HandleStopSignal(int sig) {
  if (g_signal_seen) {
    std::signal(sig, SIG_DFL);
    std::raise(sig);
    return;
  }
  g_signal_seen = 1;
  g_cancel.RequestCancel();
  static const char kMsg[] =
      "\ncluseq: stop requested; finishing current phase and saving state "
      "(signal again to abort now)\n";
  [[maybe_unused]] ssize_t n = write(2, kMsg, sizeof(kMsg) - 1);
}

void InstallStopHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = &HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // No SA_RESTART: let blocking calls see EINTR.
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsFastaPath(const std::string& path) {
  return HasSuffix(path, ".fa") || HasSuffix(path, ".fasta");
}

uint64_t FileSizeBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  const auto pos = in.tellg();
  return pos < 0 ? 0 : static_cast<uint64_t>(pos);
}

// One loaded input corpus behind the SequenceStore interface: either a
// parsed in-RAM SequenceDatabase (FASTA/TSV) or the mmap-backed SeqDbReader
// (.sqdb), chosen by extension. Also carries the provenance that the
// --verbose corpus line and the RunReport record.
struct LoadedCorpus {
  SequenceDatabase db;
  SeqDbReader reader;
  bool is_sqdb = false;
  std::string format;  // "fasta" / "tsv" / "sqdb"
  uint64_t bytes = 0;  // On-disk size (data + index for .sqdb).

  const SequenceStore& store() const {
    return is_sqdb ? static_cast<const SequenceStore&>(reader)
                   : static_cast<const SequenceStore&>(db);
  }
  bool mmap() const { return is_sqdb && reader.is_mmap(); }
};

Status LoadCorpus(const std::string& path, LoadedCorpus* corpus) {
  if (IsSeqDbPath(path)) {
    corpus->is_sqdb = true;
    corpus->format = "sqdb";
    CLUSEQ_RETURN_NOT_OK(SeqDbReader::Open(path, &corpus->reader));
    corpus->bytes =
        corpus->reader.data_bytes() + corpus->reader.index_bytes();
    return Status::OK();
  }
  corpus->is_sqdb = false;
  if (IsFastaPath(path)) {
    corpus->format = "fasta";
    CLUSEQ_RETURN_NOT_OK(ReadFastaFile(path, &corpus->db));
  } else {
    corpus->format = "tsv";
    CLUSEQ_RETURN_NOT_OK(ReadTsvFile(path, &corpus->db));
  }
  corpus->bytes = FileSizeBytes(path);
  return Status::OK();
}

void PrintCorpusLine(const std::string& path, const LoadedCorpus& corpus) {
  std::printf("corpus: %s format=%s records=%zu bytes=%llu %s\n",
              path.c_str(), corpus.format.c_str(), corpus.store().size(),
              static_cast<unsigned long long>(corpus.bytes),
              corpus.is_sqdb ? (corpus.mmap() ? "(mmap)" : "(buffered)")
                             : "(in-ram)");
}

Status WriteStore(const SequenceStore& store, const std::string& path,
                  SeqDbWriteStats* sqdb_stats = nullptr) {
  if (IsSeqDbPath(path)) return WriteSeqDb(store, path, sqdb_stats);
  if (IsFastaPath(path)) return WriteFastaFile(store, path);
  return WriteTsvFile(store, path);
}

int Fail(const Status& st, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  return 1;
}

// Dumps the current registry state in Prometheus text format when the flag
// was given. Returns 0, or Fail()'s exit code on a write error.
int MaybeWritePrometheus(const std::string& path) {
  if (path.empty()) return 0;
  Status st = obs::WritePrometheusTextFile(
      obs::MetricsRegistry::Get().Snapshot(), path);
  if (!st.ok()) return Fail(st, "metrics_prom");
  std::printf("prometheus metrics -> %s\n", path.c_str());
  return 0;
}

struct CommonFlags {
  std::string input;
  std::string output;
  std::string assignments;
  std::string model_dir;
  std::string metrics_json;
  std::string metrics_prom;
  std::string trace_json;
  obs::SamplingPolicy trace_sample;  // Default: keep every span.
  std::string kind = "synthetic";
  double scale = 0.05;
  uint64_t seed = 42;
  bool strict = false;
  double max_seconds = 0.0;  // 0 = no deadline.
  // The first checkpoint or deadline flag given (they only apply to
  // cluster), as typed up to any '='; empty if none.
  std::string cluster_only_flag;
  CluseqOptions options;

  // Returns false (after printing) on an unknown flag.
  bool Parse(int argc, char** argv) {
    std::string v;
    for (int i = 2; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (cluster_only_flag.empty() &&
          (ParseFlag(arg, "checkpoint_dir", &v) ||
           ParseFlag(arg, "checkpoint-dir", &v) ||
           ParseFlag(arg, "checkpoint_every", &v) ||
           ParseFlag(arg, "checkpoint-every", &v) ||
           ParseFlag(arg, "max_seconds", &v) ||
           ParseFlag(arg, "max-seconds", &v) || arg == "--resume" ||
           arg == "--strict")) {
        cluster_only_flag = arg.substr(0, arg.find('='));
      }
      if (ParseFlag(arg, "input", &v)) {
        input = v;
      } else if (ParseFlag(arg, "out", &v) || ParseFlag(arg, "output", &v)) {
        output = v;
      } else if (ParseFlag(arg, "assignments", &v)) {
        assignments = v;
      } else if (ParseFlag(arg, "model-dir", &v)) {
        model_dir = v;
      } else if (ParseFlag(arg, "metrics_json", &v) ||
                 ParseFlag(arg, "metrics-json", &v)) {
        metrics_json = v;
      } else if (ParseFlag(arg, "metrics_prom", &v) ||
                 ParseFlag(arg, "metrics-prom", &v)) {
        metrics_prom = v;
      } else if (ParseFlag(arg, "trace_json", &v) ||
                 ParseFlag(arg, "trace-json", &v)) {
        trace_json = v;
      } else if (ParseFlag(arg, "trace_sample", &v) ||
                 ParseFlag(arg, "trace-sample", &v)) {
        Status st = obs::SamplingPolicy::Parse(v, &trace_sample);
        if (!st.ok()) {
          std::fprintf(stderr, "--trace_sample: %s\n",
                       st.ToString().c_str());
          return false;
        }
      } else if (ParseFlag(arg, "kind", &v)) {
        kind = v;
      } else if (ParseFlag(arg, "scale", &v)) {
        scale = std::strtod(v.c_str(), nullptr);
      } else if (ParseFlag(arg, "seed", &v)) {
        seed = std::strtoull(v.c_str(), nullptr, 10);
        options.rng_seed = seed;
      } else if (ParseFlag(arg, "k", &v)) {
        options.initial_clusters = std::strtoul(v.c_str(), nullptr, 10);
      } else if (ParseFlag(arg, "c", &v)) {
        options.significance_threshold =
            std::strtoull(v.c_str(), nullptr, 10);
      } else if (ParseFlag(arg, "t", &v)) {
        options.similarity_threshold = std::strtod(v.c_str(), nullptr);
        options.auto_initial_threshold = false;
      } else if (ParseFlag(arg, "depth", &v)) {
        options.pst.max_depth = std::strtoul(v.c_str(), nullptr, 10);
      } else if (ParseFlag(arg, "min-members", &v)) {
        options.min_unique_members = std::strtoul(v.c_str(), nullptr, 10);
      } else if (ParseFlag(arg, "max-iterations", &v)) {
        options.max_iterations = std::strtoul(v.c_str(), nullptr, 10);
      } else if (ParseFlag(arg, "threads", &v)) {
        options.num_threads = std::strtoul(v.c_str(), nullptr, 10);
      } else if (ParseFlag(arg, "pst-memory", &v)) {
        options.pst.max_memory_bytes = std::strtoul(v.c_str(), nullptr, 10);
      } else if (ParseFlag(arg, "batched_scan", &v) ||
                 ParseFlag(arg, "batched-scan", &v)) {
        if (v == "on") {
          options.batched_scan = true;
        } else if (v == "off") {
          options.batched_scan = false;
        } else {
          std::fprintf(stderr, "--batched_scan takes 'on' or 'off', got %s\n",
                       v.c_str());
          return false;
        }
      } else if (ParseFlag(arg, "prefilter", &v)) {
        if (v == "on") {
          options.prefilter = true;
        } else if (v == "off") {
          options.prefilter = false;
        } else {
          std::fprintf(stderr, "--prefilter takes 'on' or 'off', got %s\n",
                       v.c_str());
          return false;
        }
      } else if (ParseFlag(arg, "adjust_window", &v) ||
                 ParseFlag(arg, "adjust-window", &v)) {
        options.adjust_bound_window = std::strtod(v.c_str(), nullptr);
      } else if (ParseFlag(arg, "checkpoint_dir", &v) ||
                 ParseFlag(arg, "checkpoint-dir", &v)) {
        options.checkpoint_dir = v;
      } else if (ParseFlag(arg, "checkpoint_every", &v) ||
                 ParseFlag(arg, "checkpoint-every", &v)) {
        options.checkpoint_every = std::strtoull(v.c_str(), nullptr, 10);
      } else if (arg == "--resume") {
        options.resume = true;
      } else if (ParseFlag(arg, "max_seconds", &v) ||
                 ParseFlag(arg, "max-seconds", &v)) {
        max_seconds = std::strtod(v.c_str(), nullptr);
      } else if (arg == "--strict") {
        strict = true;
      } else if (arg == "--verbose") {
        options.verbose = true;
        SetLogLevel(LogLevel::kInfo);
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
        return false;
      }
    }
    return true;
  }
};

int RunGenerate(const CommonFlags& flags) {
  if (flags.output.empty()) {
    std::fprintf(stderr, "generate: --out=<path> is required\n");
    return 2;
  }
  SequenceDatabase db;
  if (flags.kind == "protein") {
    ProteinLikeOptions o;
    o.scale = flags.scale;
    o.seed = flags.seed;
    db = MakeProteinLikeDataset(o).db;
  } else if (flags.kind == "language") {
    LanguageLikeOptions o;
    o.sentences_per_language =
        static_cast<size_t>(600 * flags.scale) + 10;
    o.noise_sentences = static_cast<size_t>(100 * flags.scale) + 2;
    o.seed = flags.seed;
    db = MakeLanguageLikeDataset(o).db;
  } else if (flags.kind == "synthetic") {
    SyntheticDatasetOptions o;
    o.num_clusters = 10;
    o.sequences_per_cluster =
        static_cast<size_t>(100 * flags.scale) + 5;
    o.avg_length = 300;
    o.seed = flags.seed;
    db = MakeSyntheticDataset(o);
  } else {
    std::fprintf(stderr,
                 "generate: unknown --kind '%s' "
                 "(expected synthetic|protein|language)\n",
                 flags.kind.c_str());
    return 2;
  }
  Status st = WriteStore(db, flags.output);
  if (!st.ok()) return Fail(st, "write");
  std::printf("wrote %zu sequences (%zu labels) to %s\n", db.size(),
              db.NumLabels(), flags.output.c_str());
  return 0;
}

int RunImport(const CommonFlags& flags) {
  if (flags.input.empty() || flags.output.empty()) {
    std::fprintf(stderr, "import: --input=<path> and --out=<path.sqdb> are "
                         "required\n");
    return 2;
  }
  if (!IsSeqDbPath(flags.output)) {
    std::fprintf(stderr, "import: --out must end in .sqdb (got %s)\n",
                 flags.output.c_str());
    return 2;
  }
  LoadedCorpus corpus;
  Status st = LoadCorpus(flags.input, &corpus);
  if (!st.ok()) return Fail(st, "read");
  SeqDbWriteStats stats;
  st = WriteSeqDb(corpus.store(), flags.output, &stats);
  if (!st.ok()) return Fail(st, "write");
  std::printf("imported %llu records (%llu symbols) -> %s "
              "(%llu data + %llu index bytes)\n",
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.total_symbols),
              flags.output.c_str(),
              static_cast<unsigned long long>(stats.data_bytes),
              static_cast<unsigned long long>(stats.index_bytes));
  return MaybeWritePrometheus(flags.metrics_prom);
}

int RunExport(const CommonFlags& flags) {
  if (flags.input.empty() || flags.output.empty()) {
    std::fprintf(stderr,
                 "export: --input=<path.sqdb> and --out=<path> are "
                 "required\n");
    return 2;
  }
  LoadedCorpus corpus;
  Status st = LoadCorpus(flags.input, &corpus);
  if (!st.ok()) return Fail(st, "read");
  st = WriteStore(corpus.store(), flags.output);
  if (!st.ok()) return Fail(st, "write");
  std::printf("exported %zu records -> %s\n", corpus.store().size(),
              flags.output.c_str());
  return 0;
}

int RunCluster(CommonFlags& flags) {
  if (flags.input.empty()) {
    std::fprintf(stderr, "cluster: --input=<path> is required\n");
    return 2;
  }
  LoadedCorpus corpus;
  Status st = LoadCorpus(flags.input, &corpus);
  if (!st.ok()) return Fail(st, "read");
  const SequenceStore& db = corpus.store();
  std::printf("read %zu sequences over %zu symbols\n", db.size(),
              db.alphabet().size());
  if (flags.options.verbose) PrintCorpusLine(flags.input, corpus);

  if (!flags.trace_json.empty()) {
    obs::TraceRecorder::Get().Start(flags.trace_sample);
  }
  flags.options.cancellation = &g_cancel;
  flags.options.checkpoint_strict = flags.strict;
  if (flags.max_seconds > 0.0) g_cancel.SetTimeout(flags.max_seconds);
  InstallStopHandlers();
  CluseqClusterer clusterer(db, flags.options);
  ClusteringResult result;
  st = clusterer.Run(&result);
  if (!flags.trace_json.empty()) obs::TraceRecorder::Get().Stop();
  if (!st.ok()) return Fail(st, "cluster");
  if (result.resumed_from_checkpoint) {
    std::printf("resumed from checkpoint in %s\n",
                flags.options.checkpoint_dir.c_str());
  }
  if (result.interrupted) {
    std::fprintf(stderr,
                 "cluseq: interrupted after %zu iterations; reporting the "
                 "last completed iteration boundary%s\n",
                 result.iterations,
                 flags.options.checkpoint_dir.empty()
                     ? ""
                     : " (checkpoint saved; rerun with --resume)");
  }
  std::printf("clusters: %zu   unclustered: %zu   iterations: %zu   "
              "final log t: %.3f\n",
              result.num_clusters(), result.num_unclustered,
              result.iterations, result.final_log_threshold);
  std::printf("stopped: %s\n", StopReasonName(result.stop_reason));
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    std::printf("  cluster %zu: %zu members\n", c,
                result.clusters[c].size());
  }
  bool have_eval = false;
  EvaluationSummary eval;
  if (db.NumLabels() > 0) {
    eval = Evaluate(db, result.best_cluster);
    have_eval = true;
    std::printf("vs labels: %.1f%% correct, purity %.2f, NMI %.2f\n",
                eval.correct_fraction * 100.0, eval.purity, eval.nmi);
  }

  if (!flags.metrics_json.empty()) {
    obs::RunReport report = *clusterer.report();
    report.corpus_format = corpus.format;
    report.corpus_records = db.size();
    report.corpus_bytes = corpus.bytes;
    report.corpus_mmap = corpus.mmap();
    if (have_eval) {
      report.has_eval = true;
      report.eval_correct_fraction = eval.correct_fraction;
      report.eval_macro_f1 = eval.macro.f1;
      report.eval_purity = eval.purity;
      report.eval_nmi = eval.nmi;
      report.eval_found_clusters = eval.num_found_clusters;
      report.eval_unassigned = eval.num_unassigned;
    }
    st = obs::WriteRunReportJsonFile(report, flags.metrics_json);
    if (!st.ok()) return Fail(st, "metrics_json");
    std::printf("run report -> %s\n", flags.metrics_json.c_str());
  }
  if (int rc = MaybeWritePrometheus(flags.metrics_prom); rc != 0) return rc;
  if (!flags.trace_json.empty()) {
    st = obs::TraceRecorder::Get().WriteJsonFile(flags.trace_json);
    if (!st.ok()) return Fail(st, "trace_json");
    std::printf("trace -> %s\n", flags.trace_json.c_str());
  }

  if (!flags.assignments.empty()) {
    st = WriteAssignmentsFile(result, db, flags.assignments);
    if (!st.ok()) return Fail(st, "assignments");
    std::printf("assignments -> %s\n", flags.assignments.c_str());
  }
  if (!flags.model_dir.empty() && result.interrupted) {
    // The live trees may be mid-iteration after a cancellation; only
    // boundary-consistent state (the checkpoint) is safe to persist.
    std::fprintf(stderr,
                 "cluseq: skipping --model-dir export on interrupted run "
                 "(resume and finish to export models)\n");
  } else if (!flags.model_dir.empty()) {
    st = EnsureDirectory(flags.model_dir);
    if (!st.ok()) return Fail(st, "model-dir");
    // One mmap-able .fbank of compiled snapshots (training background
    // baked in): the only served model artifact, and what classify reads.
    // Snapshots of one run share its alphabet and are never empty, so any
    // run with at least one cluster is bankable.
    // Run() leaves every cluster's snapshot current.
    std::vector<std::shared_ptr<const FrozenPst>> snapshots;
    for (const Cluster& cluster : clusterer.clusters()) {
      snapshots.push_back(cluster.frozen());
    }
    if (snapshots.empty()) {
      std::fprintf(stderr, "cluseq: no clusters; --model-dir left empty\n");
    } else {
      FrozenBank bank(std::move(snapshots));
      st = SaveFrozenBankToFile(bank, flags.model_dir + "/bank.fbank");
      if (!st.ok()) return Fail(st, "save bank");
      std::printf("bank -> %s/bank.fbank\n", flags.model_dir.c_str());
    }
  }
  return result.interrupted ? 3 : 0;
}

int RunClassify(const CommonFlags& flags) {
  if (!flags.cluster_only_flag.empty()) {
    std::fprintf(stderr, "classify: %s applies to cluster only\n",
                 flags.cluster_only_flag.c_str());
    return 2;
  }
  if (flags.input.empty() || flags.model_dir.empty()) {
    std::fprintf(stderr,
                 "classify: --input=<path> and --model-dir=<dir> are "
                 "required\n");
    return 2;
  }
  LoadedCorpus corpus;
  Status st = LoadCorpus(flags.input, &corpus);
  if (!st.ok()) return Fail(st, "read");
  const SequenceStore& db = corpus.store();
  if (flags.options.verbose) PrintCorpusLine(flags.input, corpus);

  if (!DirectoryExists(flags.model_dir)) {
    return Fail(Status::NotFound("model directory does not exist: " +
                                 flags.model_dir),
                "classify");
  }

  FrozenBank bank;
  FbankLoadInfo info;
  const std::string bank_path = flags.model_dir + "/bank.fbank";
  st = LoadFrozenBankFromFile(bank_path, &bank, {}, &info);
  if (!st.ok()) return Fail(st, "load bank");
  std::printf("loaded %zu models from %s (%s)\n", bank.num_models(),
              bank_path.c_str(), info.mmap ? "mmap" : "buffered");

  // Score in parallel (each sequence writes only its own slot, so output is
  // identical at any thread count), then print serially in input order.
  std::vector<double> best_sim(db.size(), -1e300);
  std::vector<size_t> best_model(db.size(), 0);
  ParallelForWeighted(
      db.size(), flags.options.num_threads,
      [&](size_t i) -> uint64_t { return db.Length(i); },
      [&](size_t i) {
        double best = -1e300;
        size_t best_c = 0;
        if (flags.options.prefilter) {
          // Pruned argmax scan; exact value and the same smallest-index
          // tie-break as the exhaustive loop below.
          const ScanPrefilter prefilter(&bank);
          double value = 0.0;
          const int32_t m = prefilter.BestModel(db.Symbols(i), &value);
          if (m >= 0 && value > best) {
            best = value;
            best_c = static_cast<size_t>(m);
          }
        } else {
          std::vector<SimilarityResult> sims(bank.num_models());
          bank.ScanAll(db.Symbols(i), sims.data());
          for (size_t c = 0; c < sims.size(); ++c) {
            if (sims[c].log_sim > best) {
              best = sims[c].log_sim;
              best_c = c;
            }
          }
        }
        best_sim[i] = best;
        best_model[i] = best_c;
      });
  for (size_t i = 0; i < db.size(); ++i) {
    const std::string id = db.Id(i).empty() ? "seq" + std::to_string(i)
                                            : std::string(db.Id(i));
    std::printf("%s\t%zu\t%.4f\n", id.c_str(), best_model[i], best_sim[i]);
  }
  return MaybeWritePrometheus(flags.metrics_prom);
}

// `report-diff A.json B.json [--fail-on metric:tol,...]` — structural
// comparison of two cluseq.run_report.v1 / cluseq.bench.v1 files, or
// `report-diff --validate FILE` to parse-check a single report.
// Exit codes: 0 = ok, 1 = a --fail-on threshold breached, 2 = usage /
// unreadable file / schema mismatch.
int RunReportDiff(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<obs::FailRule> rules;
  std::string validate_path;
  auto add_rules = [&rules](const std::string& specs) -> bool {
    size_t begin = 0;
    while (begin <= specs.size()) {
      size_t end = specs.find(',', begin);
      if (end == std::string::npos) end = specs.size();
      const std::string spec = specs.substr(begin, end - begin);
      if (!spec.empty()) {
        obs::FailRule rule;
        Status st = obs::FailRule::Parse(spec, &rule);
        if (!st.ok()) {
          std::fprintf(stderr, "--fail-on: %s\n", st.ToString().c_str());
          return false;
        }
        rules.push_back(std::move(rule));
      }
      begin = end + 1;
    }
    return true;
  };
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "fail-on", &v) || ParseFlag(arg, "fail_on", &v)) {
      if (!add_rules(v)) return 2;
    } else if (arg == "--fail-on" || arg == "--fail_on") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--fail-on needs a metric:tolerance value\n");
        return 2;
      }
      if (!add_rules(argv[++i])) return 2;
    } else if (ParseFlag(arg, "validate", &v)) {
      validate_path = v;
    } else if (arg == "--validate") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--validate needs a file path\n");
        return 2;
      }
      validate_path = argv[++i];
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "report-diff: unknown flag %s\n", argv[i]);
      return 2;
    } else {
      files.emplace_back(arg);
    }
  }

  if (!validate_path.empty()) {
    if (!files.empty() || !rules.empty()) {
      std::fprintf(stderr,
                   "report-diff: --validate takes no other arguments\n");
      return 2;
    }
    obs::JsonValue root;
    Status st = obs::ParseJsonFile(validate_path, &root);
    obs::ReportMetrics metrics;
    if (st.ok()) st = obs::ExtractReportMetrics(root, &metrics);
    if (!st.ok()) {
      std::fprintf(stderr, "report-diff: %s: %s\n", validate_path.c_str(),
                   st.ToString().c_str());
      return 2;
    }
    std::printf("ok: %s (%s, %zu metrics)\n", validate_path.c_str(),
                metrics.schema.c_str(), metrics.values.size());
    return 0;
  }

  if (files.size() != 2) {
    std::fprintf(stderr,
                 "report-diff: expected exactly two report files "
                 "(got %zu); or --validate FILE\n",
                 files.size());
    return 2;
  }
  obs::ReportDiff diff;
  Status st = obs::DiffReportFiles(files[0], files[1], rules, &diff);
  if (!st.ok()) {
    std::fprintf(stderr, "report-diff: %s\n", st.ToString().c_str());
    return 2;
  }
  obs::PrintReportDiff(diff, std::cout);
  return diff.ok() ? 0 : 1;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: cluseq_cli "
               "<generate|import|export|cluster|classify|report-diff|"
               "version> [flags]\n"
               "  generate --kind=synthetic|protein|language --out=PATH "
               "[--scale=F] [--seed=N]\n"
               "  import   --input=PATH --out=PATH.sqdb   (FASTA/TSV -> "
               "indexed binary store)\n"
               "  export   --input=PATH.sqdb --out=PATH   (back to "
               "FASTA/TSV)\n"
               "  cluster  --input=PATH [--assignments=PATH] "
               "[--model-dir=DIR]\n"
               "           [--k=N] [--c=N] [--t=F] [--depth=N] "
               "[--min-members=N]\n"
               "           [--max-iterations=N] [--threads=N] "
               "[--pst-memory=BYTES]\n"
               "           [--batched_scan=on|off] [--prefilter=on|off] "
               "[--verbose]\n"
               "           [--adjust_window=F]\n"
               "           --adjust_window: censor window W of the "
               "threshold adjuster's\n"
               "           histogram: scores below log t - W are left out "
               "(algorithmic,\n"
               "           default 64)\n"
               "           [--metrics_json=PATH] [--metrics_prom=PATH] "
               "[--trace_json=PATH]\n"
               "           [--trace_sample=always|never|prob:P[,seed=N]|"
               "every:N|rate:R]\n"
               "           [--checkpoint_dir=DIR] [--checkpoint_every=N] "
               "[--resume]\n"
               "           [--max_seconds=F] [--strict]\n"
               "           --checkpoint_dir enables crash-safe saves at "
               "iteration boundaries\n"
               "           (every N iterations, default 1; 0 = only the "
               "initial + final state);\n"
               "           --resume continues from the newest loadable "
               "checkpoint, bit-for-bit;\n"
               "           SIGINT/SIGTERM or --max_seconds stop cleanly "
               "after the current phase\n"
               "           and save state: exit 0 = done, 3 = interrupted "
               "with state saved\n"
               "           (--strict: treat a corrupt newest checkpoint as "
               "an error instead of\n"
               "           falling back to the previous one)\n"
               "  version  print the build version (matches the bench "
               "envelope's build field)\n"
               "  report-diff A.json B.json [--fail-on=metric:[+|-]TOL%%,...]"
               "\n"
               "  report-diff --validate FILE     (parse-check one report)\n"
               "           exit 0 = ok, 1 = threshold breached, 2 = usage/"
               "schema error\n"
               "  classify --input=PATH --model-dir=DIR [--prefilter=on|off]\n"
               "           [--threads=N] [--metrics_prom=PATH]\n"
               "           reads DIR/bank.fbank (written by cluster "
               "--model-dir); a missing\n"
               "           or corrupt bank is an error\n"
               "  --prefilter=on skips models via admissible score bounds; "
               "outputs are\n"
               "  bit-for-bit identical to --prefilter=off (the exhaustive "
               "oracle). It speeds\n"
               "  up classify and cluster's seeding screens; the cluster "
               "loop's scan is\n"
               "  exhaustive\n"
               "  --input/--out ending in .sqdb selects the indexed binary "
               "store (mmap-backed)\n"
               "  --threads=0 auto-detects the hardware thread count\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  std::string command = argv[1];
  if (command == "version" || command == "--version") {
    std::printf("%s\n", BuildVersionString().c_str());
    return 0;
  }
  // report-diff has positional arguments; parse its own argv slice.
  if (command == "report-diff" || command == "report_diff") {
    return RunReportDiff(argc, argv);
  }
  CommonFlags flags;
  if (!flags.Parse(argc, argv)) {
    PrintUsage();
    return 2;
  }
  if (command == "generate") return RunGenerate(flags);
  if (command == "import") return RunImport(flags);
  if (command == "export") return RunExport(flags);
  if (command == "cluster") return RunCluster(flags);
  if (command == "classify") return RunClassify(flags);
  PrintUsage();
  return 2;
}
