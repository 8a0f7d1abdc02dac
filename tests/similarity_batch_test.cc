// Oracle for ComputeSimilarities: scoring many sequences against one
// snapshot at once must give, for every sequence, bit for bit what
// ComputeSimilarity gives for it alone — the log_sim bits, best_begin and
// best_end — whatever the batch size, the mix of lengths (so lanes refill
// at different steps) and the order of the batch.

#include "core/similarity.h"

#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "frozen_pst_equal.h"
#include "pst/frozen_pst.h"
#include "pst_digest.h"
#include "seq/alphabet.h"
#include "seq/sequence_database.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using pst_test::RandomBackground;
using pst_test::Symbols;
using pst_test::Text;

PstOptions Opts(size_t depth, double p_min = 1e-4) {
  PstOptions o;
  o.max_depth = depth;
  o.significance_threshold = 2;
  o.smoothing_p_min = p_min;
  return o;
}

// A snapshot compiled from `count` random texts of mean length `mean`.
FrozenPst Model(size_t alphabet, const PstOptions& options, size_t count,
                size_t mean, uint64_t seed) {
  std::vector<Symbols> texts;
  for (size_t k = 0; k < count; ++k) {
    texts.push_back(Text(mean / 2 + k % mean, alphabet, seed * 100 + k));
  }
  const std::vector<std::span<const SymbolId>> segments(texts.begin(),
                                                        texts.end());
  return FrozenPst::Compile(segments, alphabet, options,
                            RandomBackground(alphabet, seed), 1);
}

SequenceDatabase Db(size_t alphabet, const std::vector<size_t>& lengths,
                    uint64_t seed) {
  SequenceDatabase db(Alphabet::Synthetic(alphabet));
  for (size_t k = 0; k < lengths.size(); ++k) {
    db.Add(Sequence(Text(lengths[k], alphabet, seed * 1000 + k)));
  }
  return db;
}

// Scores `seqs` of `db` in one call and compares each result with the
// one-sequence scan.
void ExpectMatchesOneByOne(const FrozenPst& pst, const SequenceStore& db,
                           const std::vector<size_t>& seqs,
                           const std::string& what) {
  std::vector<SimilarityResult> got(seqs.size());
  ComputeSimilarities(pst, db, seqs, got.data());
  for (size_t j = 0; j < seqs.size(); ++j) {
    const SimilarityResult want = ComputeSimilarity(pst, db.Symbols(seqs[j]));
    EXPECT_EQ(std::memcmp(&got[j].log_sim, &want.log_sim, sizeof(double)), 0)
        << what << ", sequence " << seqs[j] << ": " << got[j].log_sim
        << " vs " << want.log_sim;
    EXPECT_EQ(got[j].best_begin, want.best_begin)
        << what << ", sequence " << seqs[j];
    EXPECT_EQ(got[j].best_end, want.best_end)
        << what << ", sequence " << seqs[j];
  }
}

std::vector<size_t> AllOf(const SequenceStore& db) {
  std::vector<size_t> seqs(db.size());
  for (size_t s = 0; s < seqs.size(); ++s) seqs[s] = s;
  return seqs;
}

class ComputeSimilaritiesTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t alphabet() const { return std::get<0>(GetParam()); }
  size_t depth() const { return std::get<1>(GetParam()); }
};

TEST_P(ComputeSimilaritiesTest, MatchesOneSequenceAtATime) {
  const FrozenPst pst = Model(alphabet(), Opts(depth()), 30, 80, 7);
  ASSERT_GT(pst.num_states(), 1u);
  // Lengths from 0 up, in no order, so lanes end and refill at different
  // steps, some sequences are shorter than the depth, and some are empty.
  Rng rng(alphabet() * 31 + depth());
  std::vector<size_t> lengths;
  for (size_t k = 0; k < 60; ++k) lengths.push_back(rng.Uniform(300));
  lengths[3] = 0;
  lengths[10] = 1;
  lengths[11] = 1;
  const SequenceDatabase db = Db(alphabet(), lengths, 11);
  std::vector<size_t> seqs = AllOf(db);
  ExpectMatchesOneByOne(pst, db, seqs, "in order");
  // Any subset, in any order, with repeats.
  std::vector<size_t> shuffled;
  for (size_t k = 0; k < 40; ++k) shuffled.push_back(rng.Uniform(db.size()));
  ExpectMatchesOneByOne(pst, db, shuffled, "shuffled with repeats");
}

TEST(ComputeSimilaritiesTest, BatchSizesAroundTheLaneCount) {
  // Four lanes: every batch size from none to two past a full set of lanes,
  // with lengths that differ and include empty and one-symbol sequences.
  const FrozenPst pst = Model(20, Opts(6), 20, 60, 3);
  const std::vector<size_t> lengths = {37, 0, 1, 120, 5, 64, 2, 91};
  const SequenceDatabase db = Db(20, lengths, 5);
  for (size_t size = 0; size <= 6; ++size) {
    for (size_t first = 0; first + size <= db.size(); ++first) {
      std::vector<size_t> seqs;
      for (size_t j = 0; j < size; ++j) seqs.push_back(first + j);
      ExpectMatchesOneByOne(pst, db, seqs,
                            "batch of " + std::to_string(size) + " from " +
                                std::to_string(first));
    }
  }
}

TEST(ComputeSimilaritiesTest, EmptyAndOneSymbolSequences) {
  const FrozenPst pst = Model(20, Opts(6), 20, 60, 4);
  const SequenceDatabase db = Db(20, {0, 1, 0, 1, 1, 0, 0, 1, 1, 1}, 6);
  std::vector<SimilarityResult> got(db.size());
  ComputeSimilarities(pst, db, AllOf(db), got.data());
  for (size_t s = 0; s < db.size(); ++s) {
    if (db.Length(s) == 0) {
      EXPECT_EQ(got[s].log_sim, -std::numeric_limits<double>::infinity());
      EXPECT_EQ(got[s].best_end, 0u);
    }
  }
  ExpectMatchesOneByOne(pst, db, AllOf(db), "empty and one-symbol");
}

TEST(ComputeSimilaritiesTest, SmoothingOffKeepsMinusInfinity) {
  // Without smoothing an unseen (context, symbol) has ratio -inf: the
  // restart and improvement comparisons must treat it exactly as the
  // one-sequence scan does. The model sees only symbols 0..9 of 20, so the
  // scored texts hit -inf ratios often.
  const size_t alphabet = 20;
  std::vector<Symbols> texts;
  for (size_t k = 0; k < 10; ++k) texts.push_back(Text(80, 10, 50 + k));
  const std::vector<std::span<const SymbolId>> segments(texts.begin(),
                                                        texts.end());
  const FrozenPst pst = FrozenPst::Compile(
      segments, alphabet, Opts(4, /*p_min=*/0.0),
      RandomBackground(alphabet, 9), 1);
  size_t minus_inf = 0;
  for (double ratio : pst.log_ratio_table()) {
    if (ratio == -std::numeric_limits<double>::infinity()) ++minus_inf;
  }
  ASSERT_GT(minus_inf, 0u);
  Rng rng(17);
  std::vector<size_t> lengths;
  for (size_t k = 0; k < 30; ++k) lengths.push_back(rng.Uniform(150));
  const SequenceDatabase db = Db(alphabet, lengths, 8);
  ExpectMatchesOneByOne(pst, db, AllOf(db), "smoothing off");
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsAndDepths, ComputeSimilaritiesTest,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{20}, size_t{200}),
                       ::testing::Values(size_t{3}, size_t{6}, size_t{12})),
    [](const auto& info) {
      return "A" + std::to_string(std::get<0>(info.param)) + "D" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cluseq
