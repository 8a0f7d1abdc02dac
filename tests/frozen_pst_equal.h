// Byte-for-byte equality of two FrozenPst snapshots, shared by the oracles
// that compare a compiled snapshot with the freeze of the loop's tree.

#ifndef CLUSEQ_TESTS_FROZEN_PST_EQUAL_H_
#define CLUSEQ_TESTS_FROZEN_PST_EQUAL_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pst/frozen_pst.h"
#include "seq/background_model.h"
#include "util/rng.h"

namespace cluseq {
namespace pst_test {

// A background model with random positive counts.
inline BackgroundModel RandomBackground(size_t alphabet, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> counts(alphabet);
  for (auto& c : counts) c = 1 + rng.Uniform(500);
  return BackgroundModel::FromCounts(counts);
}

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// The same states and depths, transition and log-ratio tables, derived
// maxima and byte accounting.
inline void ExpectSameSnapshot(const FrozenPst& got, const FrozenPst& want,
                               const std::string& where) {
  ASSERT_EQ(got.num_states(), want.num_states()) << where;
  EXPECT_EQ(got.alphabet_size(), want.alphabet_size()) << where;
  EXPECT_EQ(got.max_depth(), want.max_depth()) << where;
  for (FrozenPst::State u = 0; u < want.num_states(); ++u) {
    ASSERT_EQ(got.StateDepth(u), want.StateDepth(u))
        << where << ", state " << u;
  }
  EXPECT_TRUE(SameBytes(got.transition_table(), want.transition_table()))
      << where;
  EXPECT_TRUE(SameBytes(got.log_ratio_table(), want.log_ratio_table()))
      << where;
  EXPECT_TRUE(
      SameBytes(got.max_symbol_log_ratio(), want.max_symbol_log_ratio()))
      << where;
  const double got_max = got.max_log_ratio();
  const double want_max = want.max_log_ratio();
  EXPECT_EQ(std::memcmp(&got_max, &want_max, sizeof(double)), 0) << where;
  EXPECT_EQ(got.ApproxMemoryBytes(), want.ApproxMemoryBytes()) << where;
}

}  // namespace pst_test
}  // namespace cluseq

#endif  // CLUSEQ_TESTS_FROZEN_PST_EQUAL_H_
