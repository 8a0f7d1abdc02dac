#include "core/similarity.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

namespace cluseq {

namespace {

// The §4.3 single-scan recurrence in log space, shared by the live and
// frozen engines so the DP itself cannot drift between them:
//   Y_i = max(Y_{i-1} + X_i, X_i)   (best segment ending at i)
//   Z_i = max(Z_{i-1}, Y_i)         (best segment ending ≤ i)
// `ratio(i)` supplies log X_i.
template <typename RatioFn>
SimilarityResult SegmentMaxScan(size_t l, RatioFn&& ratio) {
  SimilarityResult result;
  if (l == 0) {
    result.log_sim = -std::numeric_limits<double>::infinity();
    return result;
  }
  double y = 0.0;           // log Y_i
  size_t y_begin = 0;       // Start of the segment realizing Y_i.
  double z = -std::numeric_limits<double>::infinity();  // log Z_i
  for (size_t i = 0; i < l; ++i) {
    const double x = ratio(i);
    if (i == 0 || y + x < x) {
      y = x;  // Restart: the best segment ending at i is {s_i} alone.
      y_begin = i;
    } else {
      y += x;  // Extend the running segment.
    }
    if (y > z) {
      z = y;
      result.best_begin = y_begin;
      result.best_end = i + 1;
    }
  }
  result.log_sim = z;
  return result;
}

// Sequences ComputeSimilarities keeps in flight. Each lane is one chain of
// dependent table loads, and the lanes' chains overlap. Measured on one
// thread against a protein-tuned cluster model (528 states, every sequence
// of the corpus): 4.0 ns per symbol with one lane, 2.4 with two, 1.9-2.0
// with three to six, 2.1 with eight. AdvanceLanes' unroll pragma and the
// dispatch in ComputeSimilarities are written out for four.
constexpr size_t kLanes = 4;

// One sequence's SegmentMaxScan, paused between positions.
struct Lane {
  const SymbolId* symbols;
  size_t length;
  size_t pos;   // Next position to score.
  size_t slot;  // Index into seqs/out.
  FrozenPst::State state;
  double y;
  double z;
  size_t y_begin;
  size_t best_begin;
  size_t best_end;
};

// Advances the first N lanes by `steps` positions each, with
// SegmentMaxScan's operations for i > 0 (same sums, same comparisons, so
// the same bits and tie rules).
template <size_t N>
void AdvanceLanes(Lane* lanes, size_t steps, const FrozenPst::State* next,
                  const double* ratio, size_t alphabet) {
  // Positions are kept relative to each lane's `pos` on entry (wrapping
  // arithmetic), so every lane records the shared step counter t.
  const SymbolId* symbols[N];
  FrozenPst::State state[N];
  double y[N], z[N];
  size_t y_begin[N], best_begin[N], best_end[N];
  for (size_t l = 0; l < N; ++l) {
    const size_t pos = lanes[l].pos;
    symbols[l] = lanes[l].symbols + pos;
    state[l] = lanes[l].state;
    y[l] = lanes[l].y;
    z[l] = lanes[l].z;
    y_begin[l] = lanes[l].y_begin - pos;
    best_begin[l] = lanes[l].best_begin - pos;
    best_end[l] = lanes[l].best_end - pos;
  }
  for (size_t t = 0; t < steps; ++t) {
    // Unrolled, so each lane's values stay in registers (also at -O2, the
    // default build type, where the compiler would not unroll it).
#pragma GCC unroll 4
    for (size_t l = 0; l < N; ++l) {
      const size_t cell =
          static_cast<size_t>(state[l]) * alphabet + symbols[l][t];
      const double x = ratio[cell];
      state[l] = next[cell];
      // Whether a segment restarts or improves is data-dependent: the hints
      // make the compiler select instead of branch, since a mispredict
      // would stall every lane.
      const double extended = y[l] + x;
      const bool restart =
          __builtin_expect_with_probability(extended < x, 1, 0.5);
      y[l] = extended < x ? x : extended;
      if (restart) y_begin[l] = t;
      const bool better = __builtin_expect_with_probability(y[l] > z[l], 1, 0.5);
      z[l] = y[l] > z[l] ? y[l] : z[l];
      if (better) {
        best_begin[l] = y_begin[l];
        best_end[l] = t + 1;
      }
    }
  }
  for (size_t l = 0; l < N; ++l) {
    const size_t pos = lanes[l].pos;
    lanes[l].pos = pos + steps;
    lanes[l].state = state[l];
    lanes[l].y = y[l];
    lanes[l].z = z[l];
    lanes[l].y_begin = y_begin[l] + pos;
    lanes[l].best_begin = best_begin[l] + pos;
    lanes[l].best_end = best_end[l] + pos;
  }
}

SimilarityResult LaneResult(const Lane& lane) {
  SimilarityResult result;
  result.log_sim = lane.z;
  result.best_begin = lane.best_begin;
  result.best_end = lane.best_end;
  return result;
}

}  // namespace

double ContextLogRatio(const Pst& pst, const BackgroundModel& background,
                       std::span<const SymbolId> symbols, size_t i) {
  return pst.LogConditionalProbability(symbols.subspan(0, i), symbols[i]) -
         background.LogProbability(symbols[i]);
}

SimilarityResult ComputeSimilarity(const Pst& pst,
                                   const BackgroundModel& background,
                                   std::span<const SymbolId> symbols) {
  return SegmentMaxScan(symbols.size(), [&](size_t i) {
    return ContextLogRatio(pst, background, symbols, i);
  });
}

SimilarityResult ComputeSimilarity(const FrozenPst& pst,
                                   std::span<const SymbolId> symbols) {
  FrozenPst::State state = FrozenPst::kRootState;
  return SegmentMaxScan(symbols.size(), [&](size_t i) {
    const SymbolId s = symbols[i];
    const double x = pst.LogRatio(state, s);
    state = pst.Step(state, s);
    return x;
  });
}

void ComputeSimilarities(const FrozenPst& pst, const SequenceStore& db,
                         std::span<const size_t> seqs,
                         SimilarityResult* out) {
  const FrozenPst::State* next = pst.transition_table().data();
  const double* ratio = pst.log_ratio_table().data();
  const size_t alphabet = pst.alphabet_size();
  size_t taken = 0;
  // Loads the next sequence that still has positions to scan after its
  // first into `lane`, finishing shorter ones on the way. Position 0 is
  // SegmentMaxScan's forced restart from the root state. False when no
  // sequence is left.
  const auto start = [&](Lane* lane) {
    while (taken < seqs.size()) {
      const size_t slot = taken++;
      const std::span<const SymbolId> symbols = db.Symbols(seqs[slot]);
      if (symbols.empty()) {
        out[slot] = SimilarityResult{};
        out[slot].log_sim = -std::numeric_limits<double>::infinity();
        continue;
      }
      const SymbolId first = symbols[0];
      *lane = Lane{symbols.data(), symbols.size(), 1, slot,
                   next[FrozenPst::kRootState * alphabet + first],
                   ratio[FrozenPst::kRootState * alphabet + first],
                   -std::numeric_limits<double>::infinity(), 0, 0, 0};
      if (lane->y > lane->z) {
        lane->z = lane->y;
        lane->best_end = 1;
      }
      if (lane->length > 1) return true;
      out[slot] = LaneResult(*lane);
    }
    return false;
  };
  Lane lanes[kLanes];
  size_t active = 0;
  while (active < kLanes && start(&lanes[active])) ++active;
  while (active > 0) {
    // Every lane can take the shortest remainder without a bounds check.
    size_t steps = lanes[0].length - lanes[0].pos;
    for (size_t l = 1; l < active; ++l) {
      steps = std::min(steps, lanes[l].length - lanes[l].pos);
    }
    switch (active) {
      case 4:
        AdvanceLanes<4>(lanes, steps, next, ratio, alphabet);
        break;
      case 3:
        AdvanceLanes<3>(lanes, steps, next, ratio, alphabet);
        break;
      case 2:
        AdvanceLanes<2>(lanes, steps, next, ratio, alphabet);
        break;
      default:
        AdvanceLanes<1>(lanes, steps, next, ratio, alphabet);
        break;
    }
    for (size_t l = 0; l < active;) {
      if (lanes[l].pos < lanes[l].length) {
        ++l;
        continue;
      }
      out[lanes[l].slot] = LaneResult(lanes[l]);
      if (!start(&lanes[l])) lanes[l] = lanes[--active];
    }
  }
}

SimilarityResult ComputeSimilarityBruteForce(
    const Pst& pst, const BackgroundModel& background,
    std::span<const SymbolId> symbols) {
  SimilarityResult result;
  const size_t l = symbols.size();
  if (l == 0) {
    result.log_sim = -std::numeric_limits<double>::infinity();
    return result;
  }
  // Per-position log ratios; conditional probabilities always use the full
  // preceding context, regardless of the segment boundary.
  std::vector<double> x(l);
  for (size_t i = 0; i < l; ++i) {
    x[i] = ContextLogRatio(pst, background, symbols, i);
  }
  result.log_sim = -std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < l; ++j) {
    double acc = 0.0;
    for (size_t i = j; i < l; ++i) {
      acc += x[i];
      if (acc > result.log_sim) {
        result.log_sim = acc;
        result.best_begin = j;
        result.best_end = i + 1;
      }
    }
  }
  return result;
}

}  // namespace cluseq
