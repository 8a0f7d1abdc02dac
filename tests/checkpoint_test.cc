// Checkpoint format and resume correctness (core/checkpoint.h):
// round-trips, the full corruption sweeps (every single-bit flip, every
// truncation offset), torn writes mid-save, retention, the fall-back /
// --strict policy, read-path fault injection, and identity rejection
// (wrong corpus, wrong algorithmic options). The chaos kill sweep lives in
// chaos_resume_test.cc; cancellation in cancellation_test.cc.

#include "core/checkpoint.h"

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluseq.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "seq/sequence_database.h"
#include "synth/dataset.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace cluseq {
namespace {

SequenceDatabase PlantedDb(uint64_t seed = 11) {
  SyntheticDatasetOptions opts;
  opts.num_clusters = 3;
  opts.sequences_per_cluster = 10;
  opts.alphabet_size = 8;
  opts.avg_length = 60;
  opts.outlier_fraction = 0.1;
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
  o.max_iterations = 10;
  o.pst.max_depth = 4;
  o.pst.smoothing_p_min = 1e-4;
  o.rng_seed = 7;
  return o;
}

std::string MakeTempDir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + tag + "_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return made;
}

/// A small but fully-populated checkpoint. Contributions are in insertion
/// order, which need not be seq_index order.
ClustererCheckpoint SampleCheckpoint() {
  ClustererCheckpoint ckpt;
  ckpt.options_fingerprint = 0x1234;
  ckpt.corpus_fingerprint = 0x5678;
  ckpt.num_sequences = 6;
  ckpt.total_symbols = 300;
  ckpt.build = "test-build";
  ckpt.iteration = 3;
  ckpt.log_t = 1.75;
  ckpt.next_cluster_id = 5;
  ckpt.prev_new = 2;
  ckpt.prev_consolidated = 1;
  ckpt.adjuster_frozen = true;
  ckpt.have_prev_fingerprint = true;
  ckpt.prev_fingerprint = {9, 8, 7};
  Rng rng(99);
  (void)rng.Uniform(1000);
  ckpt.rng = rng.SaveState();
  ckpt.prev_best_cluster = {0, 1, -1, 0, 1, 1};
  ckpt.best_log_sim = {0.5,
                       1.5,
                       -std::numeric_limits<double>::infinity(),
                       0.25,
                       2.0,
                       1.0};
  ckpt.unclustered = {2};

  CheckpointClusterState a;
  a.id = 1;
  a.seed_index = 0;
  a.members = {0, 3};
  a.contributions = {{0, 0, 10}, {3, 2, 9}};
  CheckpointClusterState b;
  b.id = 4;
  b.seed_index = 4;
  b.members = {1, 4, 5};
  b.contributions = {{4, 0, 10}, {1, 0, 5}, {5, 1, 7}};
  ckpt.clusters = {a, b};
  return ckpt;
}

void ExpectEqual(const ClustererCheckpoint& x, const ClustererCheckpoint& y) {
  EXPECT_EQ(x.options_fingerprint, y.options_fingerprint);
  EXPECT_EQ(x.corpus_fingerprint, y.corpus_fingerprint);
  EXPECT_EQ(x.num_sequences, y.num_sequences);
  EXPECT_EQ(x.total_symbols, y.total_symbols);
  EXPECT_EQ(x.build, y.build);
  EXPECT_EQ(x.iteration, y.iteration);
  EXPECT_EQ(x.log_t, y.log_t);
  EXPECT_EQ(x.next_cluster_id, y.next_cluster_id);
  EXPECT_EQ(x.prev_new, y.prev_new);
  EXPECT_EQ(x.prev_consolidated, y.prev_consolidated);
  EXPECT_EQ(x.adjuster_frozen, y.adjuster_frozen);
  EXPECT_EQ(x.have_prev_fingerprint, y.have_prev_fingerprint);
  EXPECT_EQ(x.prev_fingerprint, y.prev_fingerprint);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(x.rng.s[i], y.rng.s[i]);
  EXPECT_EQ(x.rng.has_cached_normal, y.rng.has_cached_normal);
  EXPECT_EQ(x.prev_best_cluster, y.prev_best_cluster);
  EXPECT_EQ(x.best_log_sim, y.best_log_sim);
  EXPECT_EQ(x.unclustered, y.unclustered);
  ASSERT_EQ(x.clusters.size(), y.clusters.size());
  for (size_t c = 0; c < x.clusters.size(); ++c) {
    EXPECT_EQ(x.clusters[c].id, y.clusters[c].id);
    EXPECT_EQ(x.clusters[c].seed_index, y.clusters[c].seed_index);
    EXPECT_EQ(x.clusters[c].members, y.clusters[c].members);
    ASSERT_EQ(x.clusters[c].contributions.size(),
              y.clusters[c].contributions.size());
    for (size_t i = 0; i < x.clusters[c].contributions.size(); ++i) {
      EXPECT_EQ(x.clusters[c].contributions[i].seq_index,
                y.clusters[c].contributions[i].seq_index);
      EXPECT_EQ(x.clusters[c].contributions[i].begin,
                y.clusters[c].contributions[i].begin);
      EXPECT_EQ(x.clusters[c].contributions[i].end,
                y.clusters[c].contributions[i].end);
    }
  }
}

/// Exact equality across every algorithm-visible result field: the
/// bit-for-bit contract the checkpoint/resume machinery promises.
void ExpectIdenticalResults(const ClusteringResult& a,
                            const ClusteringResult& b) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c], b.clusters[c]) << "cluster " << c;
  }
  EXPECT_EQ(a.best_cluster, b.best_cluster);
  ASSERT_EQ(a.best_log_sim.size(), b.best_log_sim.size());
  for (size_t i = 0; i < a.best_log_sim.size(); ++i) {
    EXPECT_EQ(a.best_log_sim[i], b.best_log_sim[i]) << "sequence " << i;
  }
  EXPECT_EQ(a.final_log_threshold, b.final_log_threshold);
  EXPECT_EQ(a.num_unclustered, b.num_unclustered);
}

// --- format round-trip and corruption sweeps ----------------------------

TEST(CheckpointFormatTest, EncodeDecodeRoundTrip) {
  const ClustererCheckpoint ckpt = SampleCheckpoint();
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(ckpt, &bytes).ok());
  ClustererCheckpoint back;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &back).ok());
  ExpectEqual(ckpt, back);

  // Canonical bytes: encoding the decoded state reproduces the file.
  std::string again;
  ASSERT_TRUE(EncodeCheckpoint(back, &again).ok());
  EXPECT_EQ(bytes, again);
}

TEST(CheckpointFormatTest, EmptyStateRoundTrips) {
  // Boundary 0 of a run that has not clustered anything yet.
  ClustererCheckpoint ckpt;
  ckpt.num_sequences = 4;
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(ckpt, &bytes).ok());
  ClustererCheckpoint back;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &back).ok());
  ExpectEqual(ckpt, back);
}

TEST(CheckpointFormatTest, TruncationAtEveryOffsetIsRejected) {
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    ClustererCheckpoint out;
    Status st = DecodeCheckpoint(std::string_view(bytes).substr(0, len), &out);
    EXPECT_TRUE(st.IsCorruption())
        << "truncated to " << len << ": " << st.ToString();
  }
}

TEST(CheckpointFormatTest, AppendedGarbageIsRejected) {
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ClustererCheckpoint out;
  EXPECT_TRUE(DecodeCheckpoint(bytes + std::string(5, '\0'), &out)
                  .IsCorruption());
}

TEST(CheckpointFormatTest, EverySingleBitFlipIsRejected) {
  std::string clean;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &clean).ok());
  ASSERT_LT(clean.size(), 16384u) << "fixture too big, this sweep will crawl";
  std::string bytes = clean;
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      ClustererCheckpoint out;
      Status st = DecodeCheckpoint(bytes, &out);
      EXPECT_TRUE(st.IsCorruption())
          << "byte " << byte << " bit " << bit << ": " << st.ToString();
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(bytes, clean);
}

TEST(CheckpointFormatTest, CorruptionBumpsTheDetectionCounter) {
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x40;
  obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "persistence.corruption_detected");
  const uint64_t before = counter.Value();
  ClustererCheckpoint out;
  EXPECT_TRUE(DecodeCheckpoint(bytes, &out).IsCorruption());
  EXPECT_GT(counter.Value(), before);
}

TEST(CheckpointFormatTest, FingerprintIgnoresPerfSwitchesOnly) {
  const CluseqOptions base = FastOptions();
  const uint64_t fp = FingerprintOptions(base);

  // Pure performance switches must not change the fingerprint: resuming at
  // a different thread count or prefilter setting is legal.
  CluseqOptions perf = base;
  perf.num_threads = 7;
  perf.batched_scan = !perf.batched_scan;
  perf.prefilter = !perf.prefilter;
  perf.verbose = !perf.verbose;
  perf.checkpoint_every = 5;
  perf.checkpoint_strict = true;
  EXPECT_EQ(FingerprintOptions(perf), fp);

  // Every algorithmic knob must.
  CluseqOptions o = base;
  o.rng_seed += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.similarity_threshold += 0.01;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.initial_clusters += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.significance_threshold += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.visit_order = VisitOrder::kRandom;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.pst.max_depth += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.max_iterations += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
}

// --- directory-level behavior -------------------------------------------

TEST(CheckpointDirTest, RetentionKeepsOnlyTheNewestTwo) {
  const std::string dir = MakeTempDir("cluseq_ckpt_retain");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  for (uint64_t iter = 1; iter <= 5; ++iter) {
    ASSERT_TRUE(WriteCheckpointRetainTwo(dir, iter, bytes).ok());
  }
  std::vector<std::string> files;
  ASSERT_TRUE(ListCheckpointFiles(dir, &files).ok());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], CheckpointFilePath(dir, 5));
  EXPECT_EQ(files[1], CheckpointFilePath(dir, 4));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, ListIgnoresForeignFilesAndReportsNotFound) {
  const std::string dir = MakeTempDir("cluseq_ckpt_list");
  ASSERT_TRUE(WriteFileAtomic(dir + "/notes.txt", "hi").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/ckpt_junk.ckpt", "hi").ok());
  std::vector<std::string> files;
  EXPECT_TRUE(ListCheckpointFiles(dir, &files).IsNotFound());
  EXPECT_TRUE(ListCheckpointFiles(dir + "/missing", &files).IsNotFound());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, SaveHookFiresAfterEachSuccessfulWrite) {
  static uint64_t last_iteration;
  static int fired;
  last_iteration = 0;
  fired = 0;
  SetCheckpointSaveHookForTest(+[](uint64_t iteration, const std::string&) {
    last_iteration = iteration;
    ++fired;
  });
  const std::string dir = MakeTempDir("cluseq_ckpt_hook");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 9, bytes).ok());
  SetCheckpointSaveHookForTest(nullptr);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(last_iteration, 9u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, TornSaveAtEveryCutLeavesThePreviousLoadable) {
  const std::string dir = MakeTempDir("cluseq_ckpt_torn");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 1, bytes).ok());

  // A save killed at any point of its write must fail cleanly and leave
  // the iteration-1 file the newest loadable checkpoint (offset spread:
  // every offset would be minutes of fsync traffic).
  for (size_t cut = 0; cut < bytes.size(); cut += 37) {
    FaultPlan plan;
    plan.write_limit = cut;
    {
      ScopedFaultPlan guard(plan);
      EXPECT_TRUE(WriteCheckpointRetainTwo(dir, 2, bytes).IsIOError())
          << "cut " << cut;
    }
    ClustererCheckpoint out;
    std::string loaded_path;
    ASSERT_TRUE(LoadLatestCheckpoint(dir, /*strict=*/true, &out, &loaded_path)
                    .ok())
        << "cut " << cut;
    EXPECT_EQ(loaded_path, CheckpointFilePath(dir, 1));
  }
  {
    FaultPlan plan;
    plan.fail_rename = true;
    ScopedFaultPlan guard(plan);
    EXPECT_TRUE(WriteCheckpointRetainTwo(dir, 2, bytes).IsIOError());
  }
  ClustererCheckpoint out;
  EXPECT_TRUE(LoadLatestCheckpoint(dir, /*strict=*/true, &out).ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, CorruptNewestFallsBackAndIsUnlinked) {
  const std::string dir = MakeTempDir("cluseq_ckpt_fallback");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 1, bytes).ok());
  std::string rotten = bytes;
  rotten[rotten.size() / 3] ^= 0x08;
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 2, rotten).ok());

  // strict: the corruption surfaces; the file stays for forensics.
  ClustererCheckpoint out;
  EXPECT_TRUE(LoadLatestCheckpoint(dir, /*strict=*/true, &out).IsCorruption());
  EXPECT_TRUE(FileExists(CheckpointFilePath(dir, 2)));

  // default: fall back to the previous file and unlink the corrupt newest
  // so it cannot outrank later saves of a resumed run.
  std::string loaded_path;
  ASSERT_TRUE(
      LoadLatestCheckpoint(dir, /*strict=*/false, &out, &loaded_path).ok());
  EXPECT_EQ(loaded_path, CheckpointFilePath(dir, 1));
  EXPECT_FALSE(FileExists(CheckpointFilePath(dir, 2)));

  // Only one file and it is corrupt: nothing to fall back to.
  ASSERT_TRUE(WriteFileAtomic(CheckpointFilePath(dir, 3), rotten).ok());
  ::unlink(CheckpointFilePath(dir, 1).c_str());
  EXPECT_TRUE(
      LoadLatestCheckpoint(dir, /*strict=*/false, &out).IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, ReadFaultsSurfaceAsErrorsNotGarbage) {
  const std::string dir = MakeTempDir("cluseq_ckpt_read");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 1, bytes).ok());
  const std::string path = CheckpointFilePath(dir, 1);

  {
    // An EINTR storm is absorbed by the bounded-retry read loop.
    FaultPlan plan;
    plan.transient_eintr_reads = 3;
    ScopedFaultPlan guard(plan);
    ClustererCheckpoint out;
    EXPECT_TRUE(LoadCheckpointFile(path, &out).ok());
  }
  {
    // A file that goes unreadable mid-load is an IO error, not corruption.
    FaultPlan plan;
    plan.read_limit = bytes.size() / 2;
    ScopedFaultPlan guard(plan);
    ClustererCheckpoint out;
    EXPECT_TRUE(LoadCheckpointFile(path, &out).IsIOError());
  }
  {
    // Bit rot between platter and read buffer is caught by the checksums.
    FaultPlan plan;
    plan.read_flip_offset = bytes.size() / 2;
    plan.read_flip_mask = 0x20;
    ScopedFaultPlan guard(plan);
    ClustererCheckpoint out;
    EXPECT_TRUE(LoadCheckpointFile(path, &out).IsCorruption());
  }
  std::filesystem::remove_all(dir);
}

// --- clusterer integration ----------------------------------------------

TEST(CheckpointResumeTest, CheckpointedRunMatchesPlainRunExactly) {
  SequenceDatabase db = PlantedDb();
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &plain).ok());
  ASSERT_GT(plain.iterations, 1u);

  const std::string dir = MakeTempDir("cluseq_ckpt_run");
  CluseqOptions with_ckpt = FastOptions();
  with_ckpt.checkpoint_dir = dir;
  with_ckpt.checkpoint_every = 1;
  CluseqClusterer clusterer(db, with_ckpt);
  ClusteringResult checkpointed;
  ASSERT_TRUE(clusterer.Run(&checkpointed).ok());
  ExpectIdenticalResults(plain, checkpointed);
  EXPECT_FALSE(checkpointed.interrupted);
  EXPECT_FALSE(checkpointed.resumed_from_checkpoint);

  // The report records the saves. This fixture converges before
  // max_iterations, and the fixed-point iteration breaks out before its
  // boundary is captured, so with checkpoint_every=1 the saved boundaries
  // are 0 .. iterations-1: `iterations` saves, newest = iterations - 1.
  ASSERT_LT(checkpointed.iterations, with_ckpt.max_iterations);
  const obs::RunReport* report = clusterer.report();
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->checkpoint_enabled);
  EXPECT_EQ(report->checkpoint_saves, checkpointed.iterations);
  EXPECT_EQ(report->checkpoint_last_iteration, checkpointed.iterations - 1);

  std::vector<std::string> files;
  ASSERT_TRUE(ListCheckpointFiles(dir, &files).ok());
  EXPECT_EQ(files.size(), 2u);

  // Resuming from the completed run's final checkpoint re-detects the
  // fixed point and lands on the identical clustering.
  CluseqOptions resume = with_ckpt;
  resume.resume = true;
  ClusteringResult resumed;
  ASSERT_TRUE(RunCluseq(db, resume, &resumed).ok());
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  ExpectIdenticalResults(plain, resumed);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, EveryZeroCadenceWritesOnlyBoundaryAndFinal) {
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cluseq_ckpt_cadence");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  o.checkpoint_every = 3;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  std::vector<std::string> files;
  ASSERT_TRUE(ListCheckpointFiles(dir, &files).ok());
  EXPECT_LE(files.size(), 2u);
  // Boundaries 1 .. iterations-1 are captured (the fixed-point iteration
  // breaks before its capture); flushes land on the cadence, so the newest
  // file is the largest multiple of 3 at or below iterations - 1.
  ASSERT_LT(result.iterations, o.max_iterations);
  ClustererCheckpoint newest;
  ASSERT_TRUE(LoadCheckpointFile(files[0], &newest).ok());
  EXPECT_EQ(newest.iteration,
            ((result.iterations - 1) / o.checkpoint_every) *
                o.checkpoint_every);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, ResumeRequiresDirAndEveryZeroDisables) {
  SequenceDatabase db = PlantedDb();
  CluseqOptions o = FastOptions();
  o.resume = true;  // Without checkpoint_dir: invalid.
  ClusteringResult result;
  EXPECT_TRUE(RunCluseq(db, o, &result).IsInvalidArgument());

  const std::string dir = MakeTempDir("cluseq_ckpt_disabled");
  o = FastOptions();
  o.checkpoint_dir = dir;
  o.checkpoint_every = 0;  // Directory set but cadence 0: fully disabled.
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  std::vector<std::string> files;
  EXPECT_TRUE(ListCheckpointFiles(dir, &files).IsNotFound());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, ResumeFromEmptyDirectoryStartsFresh) {
  SequenceDatabase db = PlantedDb();
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &plain).ok());

  const std::string dir = MakeTempDir("cluseq_ckpt_fresh");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir + "/nonexistent";
  o.resume = true;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  EXPECT_FALSE(result.resumed_from_checkpoint);
  ExpectIdenticalResults(plain, result);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, WrongCorpusIsRejected) {
  SequenceDatabase db = PlantedDb(11);
  const std::string dir = MakeTempDir("cluseq_ckpt_corpus");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());

  SequenceDatabase other = PlantedDb(12);
  o.resume = true;
  EXPECT_TRUE(RunCluseq(other, o, &result).IsFailedPrecondition());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, WrongAlgorithmicOptionsAreRejected) {
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cluseq_ckpt_opts");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());

  CluseqOptions changed = o;
  changed.resume = true;
  changed.rng_seed += 1;
  EXPECT_TRUE(RunCluseq(db, changed, &result).IsFailedPrecondition());

  // Perf switches are not identity: resuming with them flipped is fine.
  CluseqOptions perf = o;
  perf.resume = true;
  perf.num_threads = 3;
  perf.prefilter = !perf.prefilter;
  ClusteringResult resumed;
  ASSERT_TRUE(RunCluseq(db, perf, &resumed).ok());
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, StrictResumeSurfacesACorruptNewest) {
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cluseq_ckpt_strict");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());

  std::vector<std::string> files;
  ASSERT_TRUE(ListCheckpointFiles(dir, &files).ok());
  ASSERT_EQ(files.size(), 2u);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(files[0], &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(files[0], bytes).ok());

  CluseqOptions strict = o;
  strict.resume = true;
  strict.checkpoint_strict = true;
  EXPECT_TRUE(RunCluseq(db, strict, &result).IsCorruption());

  // Non-strict: falls back to the previous checkpoint and completes with
  // the exact uninterrupted clustering.
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &plain).ok());
  CluseqOptions lax = o;
  lax.resume = true;
  ClusteringResult resumed;
  ASSERT_TRUE(RunCluseq(db, lax, &resumed).ok());
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  ExpectIdenticalResults(plain, resumed);
  std::filesystem::remove_all(dir);
}

/// Replaces everything in `dir` with one checkpoint file holding `ckpt`, so
/// a resume has no older file to fall back to.
void WriteOnlyCheckpoint(const std::string& dir,
                         const ClustererCheckpoint& ckpt) {
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(ckpt, &bytes).ok());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ASSERT_TRUE(
      WriteFileAtomic(CheckpointFilePath(dir, ckpt.iteration), bytes).ok());
}

/// Loads the newest checkpoint of a completed FastOptions run into `dir`.
ClustererCheckpoint CheckpointOfARun(const SequenceDatabase& db,
                                     const std::string& dir) {
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  ClusteringResult result;
  EXPECT_TRUE(RunCluseq(db, o, &result).ok());
  ClustererCheckpoint ckpt;
  EXPECT_TRUE(LoadLatestCheckpoint(dir, /*strict=*/true, &ckpt).ok());
  return ckpt;
}

TEST(CheckpointResumeTest, ContributionPastSequenceEndIsCorruption) {
  // The CRCs are valid (EncodeCheckpoint computes them) and the decoder
  // cannot see the corpus; resume must catch the bad bound before replay
  // reads past the sequence.
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cluseq_ckpt_past_end");
  ClustererCheckpoint ckpt = CheckpointOfARun(db, dir);
  ASSERT_FALSE(ckpt.clusters.empty());
  ASSERT_FALSE(ckpt.clusters[0].contributions.empty());
  auto& contrib = ckpt.clusters[0].contributions.back();
  contrib.end = db.Length(static_cast<size_t>(contrib.seq_index)) + 1;
  WriteOnlyCheckpoint(dir, ckpt);

  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  o.resume = true;
  ClusteringResult result;
  EXPECT_TRUE(RunCluseq(db, o, &result).IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, RepeatedContributionIsCorruption) {
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cluseq_ckpt_repeat");
  ClustererCheckpoint ckpt = CheckpointOfARun(db, dir);
  ASSERT_FALSE(ckpt.clusters.empty());
  auto& contributions = ckpt.clusters[0].contributions;
  ASSERT_FALSE(contributions.empty());
  contributions.push_back(contributions.front());
  WriteOnlyCheckpoint(dir, ckpt);

  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  o.resume = true;
  ClusteringResult result;
  EXPECT_TRUE(RunCluseq(db, o, &result).IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, OtherFormatVersionIsFailedPreconditionNotCorruption) {
  std::string v2;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &v2).ok());
  // Header: magic(4) | u32 version | ... | u32 header_crc32c at byte 72,
  // covering bytes [0, 72).
  constexpr size_t kVersionOffset = 4;
  constexpr size_t kHeaderCrcOffset = 72;
  std::string v1 = v2;
  const uint32_t version = 1;
  std::memcpy(v1.data() + kVersionOffset, &version, sizeof(version));
  const uint32_t crc = Crc32c(v1.data(), kHeaderCrcOffset);
  std::memcpy(v1.data() + kHeaderCrcOffset, &crc, sizeof(crc));

  obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "persistence.corruption_detected");
  const uint64_t before = counter.Value();
  ClustererCheckpoint out;
  Status st = DecodeCheckpoint(v1, &out);
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_NE(st.message().find("version 1"), std::string::npos);
  EXPECT_NE(st.message().find("without --resume"), std::string::npos);
  EXPECT_EQ(counter.Value(), before);

  // The newest file is intact, just foreign: no fallback to the older v2
  // file, and nothing is unlinked.
  const std::string dir = MakeTempDir("cluseq_ckpt_version");
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 1, v2).ok());
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 2, v1).ok());
  EXPECT_TRUE(LoadLatestCheckpoint(dir, /*strict=*/false, &out)
                  .IsFailedPrecondition());
  EXPECT_TRUE(FileExists(CheckpointFilePath(dir, 1)));
  EXPECT_TRUE(FileExists(CheckpointFilePath(dir, 2)));
  std::filesystem::remove_all(dir);
}

// --- resume oracle across every tree-mutation mode ----------------------

/// One way the live trees can be mutated across iterations: rebuilt from
/// the members each iteration or grown cumulatively, with or without a
/// §5.1 memory budget (pruning depends on insertion order), and with or
/// without within-scan absorption.
struct ResumeMode {
  const char* name;
  bool rebuild_each_iteration;
  size_t pst_max_memory_bytes;
  bool within_scan_updates;
};

/// Names each arm in test output (and in the ctest names CMake derives).
void PrintTo(const ResumeMode& mode, std::ostream* os) { *os << mode.name; }

/// Small enough that the planted fixture prunes in some iteration, and
/// that replaying a cumulative tree's contributions in seq_index order
/// instead of the recorded one changes its scores.
constexpr size_t kPruningBudget = 12288;

class CheckpointResumeModes : public ::testing::TestWithParam<ResumeMode> {};

TEST_P(CheckpointResumeModes, ResumeFromEveryIterationMatchesExactly) {
  // The in-process half of the chaos argument: resume from the checkpoint
  // of EVERY iteration boundary (as if killed right after that save) and
  // demand the bit-for-bit final clustering. chaos_resume_test.cc does the
  // same through real SIGKILLed processes.
  const ResumeMode& mode = GetParam();
  CluseqOptions o = FastOptions();
  o.rebuild_each_iteration = mode.rebuild_each_iteration;
  o.pst.max_memory_bytes = mode.pst_max_memory_bytes;
  o.within_scan_updates = mode.within_scan_updates;
  SequenceDatabase db = PlantedDb();
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, o, &plain).ok());
  ASSERT_GT(plain.iterations, 2u);
  if (mode.pst_max_memory_bytes > 0) {
    size_t pruned = 0;
    for (const auto& stats : plain.iteration_stats) {
      pruned += stats.pst_pruned_total;
    }
    EXPECT_GT(pruned, 0u) << "the budget never prunes";
  }

  // Record the exact file a run killed after each save would leave.
  static std::vector<std::pair<uint64_t, std::string>> saved;
  saved.clear();
  SetCheckpointSaveHookForTest(
      +[](uint64_t iteration, const std::string& path) {
        std::string bytes;
        EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
        saved.emplace_back(iteration, std::move(bytes));
      });
  const std::string dir = MakeTempDir("cluseq_ckpt_every");
  o.checkpoint_dir = dir;
  ClusteringResult full;
  ASSERT_TRUE(RunCluseq(db, o, &full).ok());
  SetCheckpointSaveHookForTest(nullptr);
  ExpectIdenticalResults(plain, full);
  // Every boundary from 0 on is saved (a converged run's fixed-point
  // iteration breaks out before its own capture).
  ASSERT_GE(saved.size(), plain.iterations);
  for (size_t i = 0; i < saved.size(); ++i) ASSERT_EQ(saved[i].first, i);

  for (const auto& [boundary, bytes] : saved) {
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(EnsureDirectory(dir).ok());
    ASSERT_TRUE(WriteFileAtomic(CheckpointFilePath(dir, boundary), bytes).ok());
    CluseqOptions resume = o;
    resume.resume = true;
    ClusteringResult resumed;
    ASSERT_TRUE(RunCluseq(db, resume, &resumed).ok()) << "boundary "
                                                      << boundary;
    EXPECT_TRUE(resumed.resumed_from_checkpoint);
    ExpectIdenticalResults(plain, resumed);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CheckpointResumeModes,
    ::testing::Values(ResumeMode{"Default", true, 0, false},
                      ResumeMode{"Budget", true, kPruningBudget, false},
                      ResumeMode{"Cumulative", false, 0, false},
                      ResumeMode{"CumulativeBudget", false, kPruningBudget,
                                 false},
                      ResumeMode{"WithinScanUpdates", true, 0, true}));

}  // namespace
}  // namespace cluseq
