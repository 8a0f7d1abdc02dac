// Property tests for ScanPrefilter (core/prefilter.h): every skip must be
// justified by an admissible bound, so prefiltered scans are bit-for-bit
// equivalent to exhaustive ones. Covered here:
//
//   * recorded values are true upper bounds on the exact scores, and the
//     per-sequence maximum is restored exactly even when nothing joins;
//   * join decisions and joined-pair results match ScanAll at any
//     threshold, over diverse banks (pruned, merged, sub-alphabet and
//     smoothing-off models; k > 64 so multiple level-0 blocks run; wide
//     alphabets and every signature tier the byte budget can select),
//     with both the scalar and dispatched kernels;
//   * the sparse bank primitive (ScanCandidates) matches ScanAll on its
//     candidate sets;
//   * BestModel equals the exhaustive first-strict-max argmax, including
//     the exclude-one form seeding uses;
//   * whole-clusterer runs with the prefilter on equal prefilter-off runs
//     bit-for-bit at 1, 2 and 7 threads, and Classify / BatchClassify
//     agree on/off.

#include "core/prefilter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluseq.h"
#include "core/online_scorer.h"
#include "core/similarity.h"
#include "pst/frozen_bank.h"
#include "seq/background_model.h"
#include "synth/dataset.h"
#include "util/rng.h"

namespace cluseq {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

using Symbols = std::vector<SymbolId>;
using ModelPtr = std::shared_ptr<const FrozenPst>;

Symbols RandomText(size_t len, size_t alphabet, Rng* rng) {
  Symbols text(len);
  for (auto& s : text) s = static_cast<SymbolId>(rng->Uniform(alphabet));
  return text;
}

BackgroundModel SkewedBackground(size_t alphabet, Rng* rng) {
  std::vector<uint64_t> counts(alphabet);
  for (auto& c : counts) c = 1 + rng->Uniform(500);
  return BackgroundModel::FromCounts(counts);
}

// A deliberately heterogeneous bank: plain, pruned (closure states),
// merged, and sub-alphabet-trained models, optionally with smoothing off
// (unseen symbols score -inf).
std::vector<ModelPtr> DiverseModels(size_t k, size_t alphabet, size_t depth,
                                    const BackgroundModel& background,
                                    Rng* rng, bool smoothing_off = false) {
  std::vector<ModelPtr> models;
  models.reserve(k);
  for (size_t m = 0; m < k; ++m) {
    PstOptions options;
    options.max_depth = depth;
    options.significance_threshold = 1 + rng->Uniform(6);
    options.smoothing_p_min = smoothing_off ? 0.0 : 1e-4;
    switch (m % 4) {
      case 0: {
        Pst pst(alphabet, options);
        pst.InsertSequence(RandomText(200 + rng->Uniform(300), alphabet, rng));
        models.push_back(std::make_shared<const FrozenPst>(pst, background));
        break;
      }
      case 1: {  // Pruned: closure states in the automaton.
        Pst pst(alphabet, options);
        pst.InsertSequence(RandomText(500, alphabet, rng));
        pst.PruneToBudget(pst.ApproxMemoryBytes() / 3);
        models.push_back(std::make_shared<const FrozenPst>(pst, background));
        break;
      }
      case 2: {  // Merged counts from two trees.
        Pst a(alphabet, options), b(alphabet, options);
        a.InsertSequence(RandomText(250, alphabet, rng));
        b.InsertSequence(RandomText(250, alphabet, rng));
        EXPECT_TRUE(a.MergeFrom(b).ok());
        models.push_back(std::make_shared<const FrozenPst>(a, background));
        break;
      }
      default: {  // Sub-alphabet training: unseen symbols at query time.
        Pst pst(alphabet, options);
        pst.InsertSequence(
            RandomText(300, std::max<size_t>(2, alphabet / 2), rng));
        models.push_back(std::make_shared<const FrozenPst>(pst, background));
        break;
      }
    }
  }
  return models;
}

// The observable prefilter contract at one threshold: identical join set,
// bit-identical results on joined pairs, admissible bounds on the rest,
// and an exactly restored per-sequence maximum.
void ExpectThresholdScanMatches(
    const FrozenBank& bank, const Symbols& query, double log_t,
    size_t l15_prefix = ScanPrefilter::kDefaultL15Prefix) {
  const size_t k = bank.num_models();
  const std::vector<SimilarityResult> off = bank.ScanAll(query);
  const ScanPrefilter prefilter(&bank, l15_prefix);
  std::vector<SimilarityResult> on(k);
  PrefilterScanStats stats;
  prefilter.ScanAllWithThreshold(query, log_t, on.data(), &stats);
  EXPECT_EQ(stats.models_total, k);

  double off_best = kNegInf;
  double on_best = kNegInf;
  for (size_t m = 0; m < k; ++m) {
    const bool joins = off[m].log_sim >= log_t;
    EXPECT_EQ(joins, on[m].log_sim >= log_t) << "model " << m;
    if (joins) {
      // Joined pairs are exact, bit-for-bit.
      EXPECT_EQ(off[m].log_sim, on[m].log_sim) << "model " << m;
      EXPECT_EQ(off[m].best_begin, on[m].best_begin) << "model " << m;
      EXPECT_EQ(off[m].best_end, on[m].best_end) << "model " << m;
    } else {
      // Skipped slots hold admissible upper bounds.
      EXPECT_GE(on[m].log_sim, off[m].log_sim) << "model " << m;
    }
    off_best = std::max(off_best, off[m].log_sim);
    on_best = std::max(on_best, on[m].log_sim);
  }
  // The reported per-sequence max is exact even when nothing joined.
  EXPECT_EQ(off_best, on_best);
}

void ExpectBestModelMatches(const FrozenBank& bank, const Symbols& query,
                            size_t exclude = ScanPrefilter::kNoExclude) {
  const size_t k = bank.num_models();
  const std::vector<SimilarityResult> off = bank.ScanAll(query);
  double expect_best = kNegInf;
  int32_t expect_pos = -1;
  for (size_t m = 0; m < k; ++m) {
    if (m == exclude) continue;
    if (off[m].log_sim > expect_best) {
      expect_best = off[m].log_sim;
      expect_pos = static_cast<int32_t>(m);
    }
  }
  const ScanPrefilter prefilter(&bank);
  double best = 0.0;
  EXPECT_EQ(prefilter.BestModel(query, &best, nullptr, exclude), expect_pos);
  EXPECT_EQ(best, expect_pos >= 0 ? expect_best : kNegInf);
}

TEST(PrefilterScanTest, MatchesOracleAcrossThresholdsAndBanks) {
  Rng rng(20260809);
  // k = 70 forces multiple level-0 blocks; alphabet 70 exercises wide
  // trigram code spaces (all these shapes fit the trigram tier under the
  // default budget — the budget-sweep test pins the other tiers).
  struct Shape {
    size_t k, alphabet, depth;
  };
  for (const Shape& shape : {Shape{6, 6, 3}, Shape{24, 16, 5},
                             Shape{70, 8, 4}, Shape{8, 70, 3}}) {
    const BackgroundModel background = SkewedBackground(shape.alphabet, &rng);
    FrozenBank bank(
        DiverseModels(shape.k, shape.alphabet, shape.depth, background, &rng));
    for (bool force_scalar : {false, true}) {
      bank.set_force_scalar(force_scalar);
      for (size_t len : {size_t{0}, size_t{1}, size_t{40}, size_t{500}}) {
        const Symbols query = RandomText(len, shape.alphabet, &rng);
        const std::vector<SimilarityResult> off = bank.ScanAll(query);
        double median = 0.0;
        {
          std::vector<double> scores;
          for (const SimilarityResult& r : off) scores.push_back(r.log_sim);
          std::sort(scores.begin(), scores.end());
          median = scores[scores.size() / 2];
        }
        for (double log_t : {kNegInf, 0.0, median, 1e300}) {
          ExpectThresholdScanMatches(bank, query, log_t);
        }
        ExpectBestModelMatches(bank, query);
        ExpectBestModelMatches(bank, query, /*exclude=*/0);
        ExpectBestModelMatches(bank, query, /*exclude=*/shape.k / 2);
      }
    }
  }
}

TEST(PrefilterScanTest, SmoothingOffNegInfScores) {
  Rng rng(77);
  const size_t alphabet = 10;
  const BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(12, alphabet, 4, background, &rng,
                                /*smoothing_off=*/true));
  for (size_t len : {size_t{0}, size_t{60}, size_t{300}}) {
    const Symbols query = RandomText(len, alphabet, &rng);
    for (double log_t : {kNegInf, 0.5, 1e300}) {
      ExpectThresholdScanMatches(bank, query, log_t);
    }
    ExpectBestModelMatches(bank, query);
  }
}

TEST(PrefilterScanTest, EmptyAndTrivialBanks) {
  Rng rng(5);
  const size_t alphabet = 6;
  const BackgroundModel background = SkewedBackground(alphabet, &rng);
  const Symbols query = RandomText(50, alphabet, &rng);

  FrozenBank empty_bank;
  const ScanPrefilter empty_prefilter(&empty_bank);
  double best = 0.0;
  EXPECT_EQ(empty_prefilter.BestModel(query, &best), -1);
  EXPECT_EQ(best, kNegInf);

  FrozenBank one(DiverseModels(1, alphabet, 3, background, &rng));
  ExpectBestModelMatches(one, query);
  // Excluding the only model must report "no model", not scan it anyway.
  const ScanPrefilter one_prefilter(&one);
  EXPECT_EQ(one_prefilter.BestModel(query, &best, nullptr, /*exclude=*/0), -1);
  EXPECT_EQ(best, kNegInf);
}

// The byte budget must pick exactly the documented tier and every tier
// must uphold the full oracle contract — including alphabets past the old
// 64-symbol bigram cliff, which the budget heuristic replaced.
TEST(PrefilterSignatureTierTest, BudgetSelectsTierAndEveryTierMatchesOracle) {
  Rng rng(606);
  struct Shape {
    size_t k, alphabet, depth;
  };
  for (const Shape& shape : {Shape{12, 10, 4}, Shape{70, 8, 4},
                             Shape{8, 70, 3}}) {
    const BackgroundModel background = SkewedBackground(shape.alphabet, &rng);
    const std::vector<ModelPtr> models =
        DiverseModels(shape.k, shape.alphabet, shape.depth, background, &rng);
    // The selector's cost model is shared via SignatureTierCostBytes; a
    // budget halfway between the bigram and trigram costs must land on
    // bigram, and zero can afford nothing beyond the always-built unigram.
    const double cost2 =
        FrozenBank::SignatureTierCostBytes(shape.k, shape.alphabet, 2);
    const double cost3 =
        FrozenBank::SignatureTierCostBytes(shape.k, shape.alphabet, 3);
    const struct {
      size_t budget;
      FrozenBank::SignatureTier tier;
    } cases[] = {
        {0, FrozenBank::SignatureTier::kUnigram},
        {static_cast<size_t>((cost2 + cost3) / 2),
         FrozenBank::SignatureTier::kBigram},
        {size_t{1} << 30, FrozenBank::SignatureTier::kTrigram},
    };
    for (const auto& c : cases) {
      FrozenBank bank;
      bank.set_signature_budget_bytes(c.budget);
      bank.Assemble(models);
      ASSERT_EQ(bank.signature_tier(), c.tier)
          << "k=" << shape.k << " A=" << shape.alphabet
          << " budget=" << c.budget;
      for (bool force_scalar : {false, true}) {
        bank.set_force_scalar(force_scalar);
        const Symbols query = RandomText(250, shape.alphabet, &rng);
        const std::vector<SimilarityResult> off = bank.ScanAll(query);
        std::vector<double> scores;
        for (const SimilarityResult& r : off) scores.push_back(r.log_sim);
        std::sort(scores.begin(), scores.end());
        for (double log_t : {0.5, scores[scores.size() / 2], 1e300}) {
          ExpectThresholdScanMatches(bank, query, log_t);
        }
        ExpectBestModelMatches(bank, query);
      }
    }
  }
}

// Changing the budget across Assemble calls re-tiers the signatures in
// place (slot reuse must not leave a stale tier's tables behind).
TEST(PrefilterSignatureTierTest, ReassemblyAcrossBudgetsRebuildsSignatures) {
  Rng rng(607);
  const size_t alphabet = 12;
  const BackgroundModel background = SkewedBackground(alphabet, &rng);
  const std::vector<ModelPtr> models =
      DiverseModels(20, alphabet, 4, background, &rng);
  FrozenBank bank;
  const Symbols query = RandomText(300, alphabet, &rng);
  const size_t bigram_budget = static_cast<size_t>(
      (FrozenBank::SignatureTierCostBytes(20, alphabet, 2) +
       FrozenBank::SignatureTierCostBytes(20, alphabet, 3)) /
      2);
  for (size_t budget :
       {size_t{1} << 30, size_t{0}, bigram_budget, size_t{1} << 30}) {
    bank.set_signature_budget_bytes(budget);
    bank.Assemble(models);  // Unchanged models: exercises slot reuse.
    ExpectThresholdScanMatches(bank, query, 1.0);
    ExpectBestModelMatches(bank, query);
  }
}

// The level-1.5 truncated-prefix bound must stay admissible at any prefix
// length, including degenerate ones (0 disables the level, 1 covers a
// single symbol, 7 splits windows mid-sequence).
TEST(PrefilterScanTest, L15PrefixSweepMatchesOracle) {
  Rng rng(608);
  const size_t alphabet = 14;
  const BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(70, alphabet, 4, background, &rng));
  for (size_t prefix : {size_t{0}, size_t{1}, size_t{7}, size_t{96}}) {
    for (size_t len : {size_t{1}, size_t{40}, size_t{400}}) {
      const Symbols query = RandomText(len, alphabet, &rng);
      const std::vector<SimilarityResult> off = bank.ScanAll(query);
      std::vector<double> scores;
      for (const SimilarityResult& r : off) scores.push_back(r.log_sim);
      std::sort(scores.begin(), scores.end());
      for (double log_t : {0.5, scores[scores.size() / 2], 1e300}) {
        ExpectThresholdScanMatches(bank, query, log_t, prefix);
      }
    }
  }
}

// Steady-state scans must reuse the per-thread workspace: repeated calls
// with same-shape input may not reallocate any of its buffers (a
// per-sequence allocation here once cost ~15% of scan time at high k).
TEST(PrefilterWorkspaceTest, ScratchNotReallocatedAcrossCalls) {
  Rng rng(609);
  const size_t alphabet = 10;
  const BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(70, alphabet, 4, background, &rng));
  const ScanPrefilter prefilter(&bank);
  std::vector<SimilarityResult> sims(bank.num_models());
  const Symbols warm = RandomText(300, alphabet, &rng);
  prefilter.ScanAllWithThreshold(warm, 1.0, sims.data());
  double best = 0.0;
  prefilter.BestModel(warm, &best);
  const PrefilterWorkspaceProbe before =
      ScanPrefilter::ProbeThreadWorkspaceForTesting();
  for (int i = 0; i < 10; ++i) {
    const Symbols query = RandomText(300, alphabet, &rng);
    prefilter.ScanAllWithThreshold(query, 1.0, sims.data());
    prefilter.BestModel(query, &best);
  }
  const PrefilterWorkspaceProbe after =
      ScanPrefilter::ProbeThreadWorkspaceForTesting();
  EXPECT_EQ(before.stamp, after.stamp);
  EXPECT_EQ(before.count, after.count);
  EXPECT_EQ(before.cols, after.cols);
  EXPECT_EQ(before.acc, after.acc);
  EXPECT_EQ(before.tmp, after.tmp);
}

TEST(PrefilterBankPrimitivesTest, SparseCandidateScansMatchScanAll) {
  Rng rng(404);
  const size_t alphabet = 12;
  const size_t k = 70;
  const BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(k, alphabet, 4, background, &rng));
  for (bool force_scalar : {false, true}) {
    bank.set_force_scalar(force_scalar);
    for (size_t trial = 0; trial < 4; ++trial) {
      const Symbols query = RandomText(30 + rng.Uniform(400), alphabet, &rng);
      const std::vector<SimilarityResult> off = bank.ScanAll(query);

      std::vector<uint32_t> candidates;
      for (size_t m = 0; m < k; ++m) {
        if (rng.Uniform(3) != 0) candidates.push_back(
            static_cast<uint32_t>(m));
      }
      std::vector<SimilarityResult> sparse(candidates.size());
      bank.ScanCandidates(query, candidates, sparse.data());
      for (size_t j = 0; j < candidates.size(); ++j) {
        EXPECT_EQ(off[candidates[j]].log_sim, sparse[j].log_sim);
        EXPECT_EQ(off[candidates[j]].best_begin, sparse[j].best_begin);
        EXPECT_EQ(off[candidates[j]].best_end, sparse[j].best_end);
      }
    }
  }
}

TEST(PrefilterBankPrimitivesTest, Avx2KadaneKernelsMatchScalar) {
#ifndef CLUSEQ_HAVE_AVX2
  GTEST_SKIP() << "AVX2 kernels not compiled in";
#else
  if (!FrozenBank::SimdAvailable()) GTEST_SKIP() << "CPU lacks AVX2";
  // Both loop shapes are called directly: SignatureKadaneDense picks the
  // position-outer kernel only for tables past 4 MiB, which no test bank
  // reaches. len spans the int16 → int32 state switch (len · 191 fits
  // int16 through len = 171), and no n is a multiple of 16, so every
  // vector width leaves a scalar remainder.
  Rng rng(505);
  for (const size_t len : {size_t{1}, size_t{170}, size_t{171}, size_t{172},
                           size_t{600}}) {
    for (const size_t n : {size_t{5}, size_t{37}, size_t{203}}) {
      // Columns: uniform codes, codes around the zero point (windows keep
      // breaking), all-max (the largest possible sums), all-min.
      for (int fill = 0; fill < 4; ++fill) {
        std::vector<std::vector<uint8_t>> storage(len,
                                                  std::vector<uint8_t>(n));
        std::vector<const uint8_t*> cols(len);
        for (size_t i = 0; i < len; ++i) {
          for (uint8_t& v : storage[i]) {
            v = fill == 0   ? static_cast<uint8_t>(rng.Uniform(256))
                : fill == 1 ? static_cast<uint8_t>(rng.Uniform(129))
                : fill == 2 ? uint8_t{255}
                            : uint8_t{0};
          }
          cols[i] = storage[i].data();
        }
        std::vector<int32_t> want(n);
        std::vector<int32_t> outer(n, -1);
        std::vector<int32_t> striped(n, -1);
        internal::KadaneColumnsScalar(cols.data(), len, n, want.data());
        internal::KadaneColumnsAvx2(cols.data(), len, n, outer.data());
        internal::KadaneColumnsAvx2Striped(cols.data(), len, n,
                                           striped.data());
        EXPECT_EQ(want, outer) << "len " << len << " n " << n << " fill "
                               << fill;
        EXPECT_EQ(want, striped) << "len " << len << " n " << n << " fill "
                                 << fill;
      }
    }
  }
#endif
}

SequenceDatabase SkewedDb(uint64_t seed) {
  // Separable enough (wide alphabet, tight spread) that admissible bounds
  // actually prune cross-cluster pairs — the vacuousness guard below
  // depends on it — while outliers and the length skew keep the residual
  // restoration path busy.
  SyntheticDatasetOptions opts;
  opts.num_clusters = 6;
  opts.sequences_per_cluster = 12;
  opts.alphabet_size = 16;
  opts.avg_length = 100;
  opts.min_length = 20;
  opts.max_length = 400;
  opts.outlier_fraction = 0.1;
  opts.spread = 0.15;
  opts.seed = seed;
  return MakeSyntheticDataset(opts);
}

CluseqOptions BaseOptions() {
  CluseqOptions o;
  o.initial_clusters = 6;
  o.similarity_threshold = 1.05;
  o.significance_threshold = 4;
  o.min_unique_members = 3;
  o.max_iterations = 8;
  o.pst.max_depth = 5;
  o.pst.smoothing_p_min = 1e-4;
  o.rng_seed = 11;
  // Threshold adjustment off keeps the scan target at log t itself so
  // these runs exercise maximal pruning from iteration 1; the dedicated
  // adjustment test covers the live-adjuster censored-floor path. Pin a
  // high threshold (log t = 25) instead of the auto estimate: its ~log-4
  // start is below any bound a full-length sequence can fail, which would
  // leave the pruning paths untouched.
  o.adjust_threshold = false;
  o.auto_initial_threshold = false;
  o.similarity_threshold = std::exp(25.0);
  return o;
}

void ExpectRunsIdentical(const ClusteringResult& a, const ClusteringResult& b,
                         const char* what) {
  EXPECT_EQ(a.clusters, b.clusters) << what;
  EXPECT_EQ(a.best_cluster, b.best_cluster) << what;
  ASSERT_EQ(a.best_log_sim.size(), b.best_log_sim.size()) << what;
  for (size_t i = 0; i < a.best_log_sim.size(); ++i) {
    EXPECT_EQ(a.best_log_sim[i], b.best_log_sim[i])
        << what << ", sequence " << i;
  }
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.final_log_threshold, b.final_log_threshold) << what;
}

TEST(PrefilterClustererTest, OnOffBitForBitAcrossThreadCounts) {
  const SequenceDatabase db = SkewedDb(301);
  CluseqOptions off = BaseOptions();
  off.prefilter = false;
  off.num_threads = 1;
  ClusteringResult reference;
  ASSERT_TRUE(RunCluseq(db, off, &reference).ok());

  for (size_t threads : {1u, 2u, 7u}) {
    CluseqOptions on = BaseOptions();
    on.prefilter = true;
    on.num_threads = threads;
    ClusteringResult result;
    ASSERT_TRUE(RunCluseq(db, on, &result).ok());
    ExpectRunsIdentical(reference, result,
                        ("prefilter on, " + std::to_string(threads) +
                         " threads")
                            .c_str());
    // Guard against a vacuous pass: the prefilter must actually have
    // pruned something in these runs, not just been gated off.
    double total_skip = 0.0;
    for (const IterationStats& it : result.iteration_stats) {
      total_skip += it.prefilter_skip_ratio;
    }
    EXPECT_GT(total_skip, 0.0) << threads << " threads";
  }
}

TEST(PrefilterClustererTest, OnOffBitForBitWithThresholdAdjustment) {
  // With §4.6 threshold adjustment the prefilter no longer waits for the
  // adjuster to freeze: while the adjuster is live the scan targets the
  // censored floor log t − adjust_bound_window, every score at or above
  // the floor stays exact, and the adjuster censors at the same floor in
  // exhaustive runs — so prefiltered runs must stay bit-for-bit identical
  // through the adjusting iterations, at any thread count.
  const SequenceDatabase db = SkewedDb(302);
  CluseqOptions off = BaseOptions();
  off.adjust_threshold = true;
  off.prefilter = false;
  off.num_threads = 1;
  // A window narrower than the pinned log t = 25 keeps the censored floor
  // positive, so pruning is live in iteration 1 (the vacuousness guard
  // below depends on it). Algorithmic: both arms must share it.
  off.adjust_bound_window = 5.0;
  ClusteringResult reference;
  ASSERT_TRUE(RunCluseq(db, off, &reference).ok());

  for (size_t threads : {1u, 2u, 7u}) {
    CluseqOptions on = off;
    on.prefilter = true;
    on.num_threads = threads;
    ClusteringResult result;
    ASSERT_TRUE(RunCluseq(db, on, &result).ok());
    ExpectRunsIdentical(reference, result,
                        ("adjusted threshold, " + std::to_string(threads) +
                         " threads")
                            .c_str());
    // Non-vacuous: iteration 1 always runs with the adjuster live, and
    // with the floor at 25 − 5 = 20 it must actually prune there — the
    // whole point of the censored floor is pruning *during* adjustment.
    ASSERT_FALSE(result.iteration_stats.empty());
    const IterationStats& first = result.iteration_stats.front();
    EXPECT_GT(first.prefilter_skip_ratio, 0.0) << threads << " threads";
  }
}

TEST(PrefilterClustererTest, ClassifyOnOffIdentical) {
  const SequenceDatabase db = SkewedDb(303);
  CluseqOptions off = BaseOptions();
  off.prefilter = false;
  CluseqClusterer off_clusterer(db, off);
  ClusteringResult off_result;
  ASSERT_TRUE(off_clusterer.Run(&off_result).ok());

  CluseqOptions on = BaseOptions();
  on.prefilter = true;
  CluseqClusterer on_clusterer(db, on);
  ClusteringResult on_result;
  ASSERT_TRUE(on_clusterer.Run(&on_result).ok());
  ExpectRunsIdentical(off_result, on_result, "classify precondition");

  const SequenceDatabase probes = SkewedDb(304);
  for (size_t i = 0; i < probes.size(); ++i) {
    double off_sim = 0.0, on_sim = 0.0;
    const int32_t off_c = off_clusterer.Classify(probes.Symbols(i), &off_sim);
    const int32_t on_c = on_clusterer.Classify(probes.Symbols(i), &on_sim);
    EXPECT_EQ(off_c, on_c) << "probe " << i;
    EXPECT_EQ(off_sim, on_sim) << "probe " << i;
  }
}

TEST(PrefilterOnlineScorerTest, BatchClassifyOnOffIdentical) {
  Rng rng(999);
  const SequenceDatabase db = SkewedDb(305);
  const BackgroundModel background = BackgroundModel::FromDatabase(db);
  OnlineScorer scorer(background);
  const std::vector<ModelPtr> models =
      DiverseModels(9, db.alphabet().size(), 4, background, &rng);
  for (const ModelPtr& m : models) scorer.AddModel(m);

  std::vector<OnlineScorer::Score> off, on;
  scorer.BatchClassify(db, 2, &off, /*prefilter=*/false);
  scorer.BatchClassify(db, 2, &on, /*prefilter=*/true);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].model, on[i].model) << "record " << i;
    EXPECT_EQ(off[i].log_sim, on[i].log_sim) << "record " << i;
    EXPECT_EQ(off[i].current_log_sim, on[i].current_log_sim)
        << "record " << i;
  }
}

}  // namespace
}  // namespace cluseq
