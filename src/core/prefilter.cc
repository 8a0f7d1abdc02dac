#include "core/prefilter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace cluseq {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// The dense bound pass runs an exact integer Kadane over offset-u8
// columns whose per-position values reach kSignaturePosLevels, so
// lengths at or past 2^23 (where length · 191 could overflow an int32
// running sum) delegate to the exhaustive scan (exact, just not
// accelerated).
constexpr size_t kMaxBoundedLen = size_t{1} << 23;

// Per-thread scratch, reused across calls: every buffer only ever grows,
// so the steady state allocates nothing per sequence (pinned by the
// workspace-probe regression test). The stamp/count arrays are sized to
// the bank's signature code space and reset lazily via the epoch counter,
// so a scan costs O(distinct codes), not O(code space).
struct Workspace {
  std::vector<uint32_t> stamp;
  std::vector<double> count;
  std::vector<uint32_t> touched;
  uint32_t epoch = 0;

  std::vector<uint32_t> seq_codes;   // per-position codes (level 1.5)
  std::vector<const uint8_t*> cols;  // per-position dense column pointers
  std::vector<int32_t> acc;          // dense level-1 integer Kadane maxima
  std::vector<uint32_t> candidates;
  std::vector<SimilarityResult> tmp;
  std::vector<uint8_t> model_exact;
  std::vector<double> model_value;
};

Workspace& GetWorkspace() {
  static thread_local Workspace ws;
  return ws;
}

// Geometry of the bank's signature tier, captured once per scan.
struct SigShape {
  size_t k = 0;
  size_t alphabet = 0;
  size_t order = 0;       // symbols per signature code
  size_t code_space = 0;  // alphabet^order
  size_t leads = 0;       // positions capped by maxsym (min'd vs length)
};

SigShape ShapeOf(const FrozenBank& bank, size_t len) {
  SigShape s;
  s.k = bank.num_models();
  s.alphabet = bank.alphabet_size();
  s.order = bank.signature_order();
  s.code_space = bank.signature_code_space();
  s.leads = std::min(bank.signature_lead_positions(), len);
  return s;
}

// Counts the codes driving the level-1 bounds: position i ≥ leads packs
// its (order − 1) preceding symbols and s_i into one code, most
// significant first (for order 1 the code is just s_i). Lead positions
// are handled by the callers via the maxsym tables. Also records every
// position's code (lead positions record the bare symbol) for the
// level-1.5 DP — truncated to a prefix at the threshold gate, full
// length in the residual refine.
void CountCodes(std::span<const SymbolId> symbols, const SigShape& s,
                Workspace& ws) {
  if (ws.stamp.size() < s.code_space) {
    ws.stamp.assign(s.code_space, 0);
    ws.count.resize(s.code_space);
    ws.epoch = 0;
  }
  ++ws.epoch;
  if (ws.epoch == 0) {  // Wrapped: every stale stamp now looks current.
    std::fill(ws.stamp.begin(), ws.stamp.end(), 0);
    ws.epoch = 1;
  }
  ws.touched.clear();
  ws.seq_codes.clear();
  const size_t mod = s.code_space / s.alphabet;  // alphabet^(order − 1)
  size_t code = 0;
  for (size_t i = 0; i < s.leads; ++i) {
    code = code * s.alphabet + symbols[i];
    ws.seq_codes.push_back(symbols[i]);
  }
  for (size_t i = s.leads; i < symbols.size(); ++i) {
    code = (code % mod) * s.alphabet + symbols[i];
    ws.seq_codes.push_back(static_cast<uint32_t>(code));
    if (ws.stamp[code] != ws.epoch) {
      ws.stamp[code] = ws.epoch;
      ws.count[code] = 0.0;
      ws.touched.push_back(static_cast<uint32_t>(code));
    }
    ws.count[code] += 1.0;
  }
}

// Factor applied when converting an integer bound accumulator back to a
// score: the tiny relative inflation keeps the final double ≥ the exact
// real product scale · acc (the multiply itself rounds), so quantized
// bounds never undercut the true score by a last-ulp accident.
double BoundScale(const FrozenBank& bank) {
  return bank.signature_quant_scale() * (1.0 + 0x1p-40);
}

// Level 1, dense: one exact integer Kadane per model over the bank's
// code-major signed offset-u8 cap columns. Each position points at its
// column (the per-symbol maxima for the leads, the packed code's caps
// after), and SignatureKadaneDense fills ws.acc[m] with the max window
// sum of (entry − zero point) — a true best-window bound, not a
// positional sum, so a model whose good caps never chain into one
// window dies right here instead of surviving into the residual pass.
// The column walk vectorizes (AVX2 when the CPU has it) at one table
// byte per (position, model) — this is the whole per-scan O(k) front;
// everything after it is output-sized.
void ComputeAllBounds(const FrozenBank& bank, const SigShape& s,
                      Workspace& ws) {
  const size_t len = ws.seq_codes.size();
  ws.cols.resize(len);
  for (size_t i = 0; i < len; ++i) {
    ws.cols[i] =
        i < s.leads ? bank.signature_pos_max_symbol_q(ws.seq_codes[i]).data()
                    : bank.signature_pos_cap_q(ws.seq_codes[i]).data();
  }
  ws.acc.resize(s.k);
  bank.SignatureKadaneDense(ws.cols.data(), len, ws.acc.data());
}

// Converts a dense integer Kadane maximum to an admissible double
// bound. A nonpositive maximum means every window's rounded-up cap sum
// is ≤ 0, which dominates the true Z per position, so 0.0 is already a
// valid bound (the true max window can be negative; the scan kernels'
// reported score never exceeds it). A positive maximum scales onto the
// shared grid — the table entries round the true caps up at build time
// (NaN lands on the top code, which dominates everything), the
// BoundScale multiply rounds up, and the pad absorbs the scan kernels'
// own FP summation order — so no bound can undercut the true score.
inline double UbFromZ(int32_t z, double up) {
  if (z <= 0) return 0.0;
  const double base = static_cast<double>(z) * up;
  return base + 1e-9 * (1.0 + base);
}

// Smallest integer Kadane maximum whose converted bound beats `value`
// (strictly, or ties when `strict` is false). UbFromZ is monotone
// nondecreasing in z, so one integer compare against this floor replays
// the double test bit-exactly — the O(k) passes over the bounds stay in
// int32 and never touch the result slots. Values even a zero bound
// beats return INT32_MIN (everything passes); values no representable
// bound reaches return INT32_MAX (a real maximum is capped by
// len · kSignaturePosLevels ≪ 2^31, so nothing passes).
int32_t ZBoundFloor(double value, double up, bool strict) {
  const auto pass = [value, strict](double ub) {
    return strict ? ub > value : ub >= value;
  };
  if (pass(0.0)) return std::numeric_limits<int32_t>::min();
  const double approx = value / up;
  if (!(approx < 2147483000.0)) return std::numeric_limits<int32_t>::max();
  // Start safely below the crossover (the pad shifts it by at most a few
  // units even at the int32 extreme) and walk up to the first pass.
  int64_t g = static_cast<int64_t>(approx) - 8;
  if (g < 1) g = 1;
  while (!pass(UbFromZ(static_cast<int32_t>(g), up))) ++g;
  return static_cast<int32_t>(g);
}

// Fine-grid level-1 bound for one model: the same positional-cap sum as
// the dense pass, but on the model-major int16 tables — a grid 4× or more
// finer than the bank-global u8 scale, so it often retires a residual
// model the coarse bound could not, at O(leads + touched) cost. Lead
// positions sum the unquantized per-symbol maxima's positive parts;
// context positions accumulate count · cap16 exactly in int64 (|cap16| <
// 2^15 and Σcount < 2^24, so no overflow), and qsum · kSignatureQuantStep
// is exact in double. The deterministic pad absorbs the FP rounding of
// the lead sum and final add against the scan kernels' own summation
// order, keeping the bound admissible.
double OnDemandUb1(const FrozenBank& bank, size_t m,
                   std::span<const SymbolId> symbols, const SigShape& s,
                   const Workspace& ws) {
  const double* maxsym = bank.signature_max_symbol(m).data();
  double lead = 0.0;
  for (size_t i = 0; i < s.leads; ++i) {
    const double v = maxsym[symbols[i]];
    if (v > 0.0) lead += v;
  }
  const int16_t* cap = bank.signature_cap_q(m).data();
  int64_t qsum = 0;
  for (const uint32_t code : ws.touched) {
    const int16_t q = cap[code];
    if (q > 0) qsum += static_cast<int64_t>(ws.count[code]) * q;
  }
  const double raw =
      lead + static_cast<double>(qsum) * FrozenBank::kSignatureQuantStep;
  return raw + 1e-9 * (1.0 + std::fabs(raw));
}

// Level 1.5: truncated-prefix Kadane over the first `p` symbols using the
// model's unclamped caps x̂_i (maxsym for leads, the tier cap otherwise).
// The best true window either closes inside the prefix — bounded by the
// prefix DP's Ẑ, since the caps dominate per position — or crosses it,
// where its prefix part is ≤ max(Ŷ, 0) and its tail is ≤ the level-1 mass
// beyond the prefix, ub1 − Σ_{i<P} max(x̂_i, 0). This sees cap *ordering*,
// which the positional sum cannot: a model whose good caps never chain
// into one window is pruned here. With p = full length every window
// closes inside the prefix, the tail vanishes (pass ub1 = 0), and the
// result is the tightest bound the signature tier can express — the
// residual refine uses that form. The pad absorbs the FP summation-order
// difference between the tail subtraction and the level-1 sum, keeping
// the bound admissible; it is a deterministic function of the operands,
// so results stay thread-count invariant.
double L15Bound(const FrozenBank& bank, size_t m, double ub1, size_t p,
                const SigShape& s, const Workspace& ws) {
  const double* maxsym = bank.signature_max_symbol(m).data();
  const int16_t* cap = bank.signature_cap_q(m).data();
  const uint32_t* codes = ws.seq_codes.data();
  // i = 0 peeled (Ŷ_0 = X̂_0) and NaN decisions mirrored from the scan
  // kernels: an ordered compare is false on NaN, keeping `extend` (only
  // the maxsym leads can be NaN now — the quantized caps never are). The
  // int16 caps round the true caps up, so they still dominate per
  // position, and q * kSignatureQuantStep is exact in double.
  double x = maxsym[codes[0]];
  double y = x;
  double z = x;
  double posprefix = x > 0.0 ? x : 0.0;
  for (size_t i = 1; i < p; ++i) {
    x = i < s.leads ? maxsym[codes[i]]
                    : static_cast<double>(cap[codes[i]]) *
                          FrozenBank::kSignatureQuantStep;
    const double extend = y + x;
    y = extend < x ? x : extend;
    if (y > z) z = y;
    posprefix += x > 0.0 ? x : 0.0;
  }
  double tail = ub1 - posprefix;
  if (!(tail > 0.0)) tail = 0.0;
  double ub = (y > 0.0 ? y : 0.0) + tail;
  if (z > ub) ub = z;
  return ub + 1e-9 * (1.0 + std::fabs(ub1) + std::fabs(posprefix));
}

void RecordMetrics(const PrefilterScanStats& stats) {
  static obs::Counter& skipped = obs::MetricsRegistry::Get().GetCounter(
      "prefilter.candidates_skipped");
  static obs::Counter& l15 = obs::MetricsRegistry::Get().GetCounter(
      "prefilter.l15_pruned");
  if (stats.candidates_skipped > 0) skipped.Add(stats.candidates_skipped);
  if (stats.l15_pruned > 0) l15.Add(stats.l15_pruned);
}

// Slack of the level-1 bound on the best-scoring model, observed once per
// scan — cheap, and enough to judge how tight the caps are in practice.
void RecordSlack(double bound, double exact_value) {
  if (!std::isfinite(bound) || !std::isfinite(exact_value)) return;
  static constexpr double kSlackBounds[] = {0.5, 1.0, 2.0, 4.0,
                                            8.0, 16.0, 32.0, 64.0};
  static obs::Histogram& slack = obs::MetricsRegistry::Get().GetHistogram(
      "prefilter.bound_slack", kSlackBounds);
  slack.Observe(bound - exact_value);
}

}  // namespace

void ScanPrefilter::ScanAllWithThreshold(std::span<const SymbolId> symbols,
                                         double log_t,
                                         SimilarityResult* results,
                                         PrefilterScanStats* stats) const {
  const size_t k = bank_->num_models();
  PrefilterScanStats local;
  local.models_total = k;
  if (k == 0) {
    if (stats) *stats = local;
    return;
  }
  if (symbols.empty() || !(log_t > 0.0) || symbols.size() >= kMaxBoundedLen) {
    // Empty sequences score -inf everywhere, a nonpositive threshold can
    // never beat a bound (all bounds are ≥ 0), and pathological lengths
    // could overflow the int32 Kadane sums: exhaustive is exact and the
    // right call in all three cases.
    bank_->ScanAll(symbols, results);
    if (stats) *stats = local;
    return;
  }

  Workspace& ws = GetWorkspace();
  const SigShape s = ShapeOf(*bank_, symbols.size());
  const size_t prefix = std::min(l15_prefix_, symbols.size());
  CountCodes(symbols, s, ws);
  ComputeAllBounds(*bank_, s, ws);

  // Levels 1 + 1.5: drop models whose bound cannot reach the threshold,
  // recording the tightest bound known — strictly below log_t, so
  // downstream join tests behave exactly as with the true (smaller)
  // scores. Coarse-bound survivors are refined on the fine int16 grid,
  // then through the truncated-prefix DP; the pruned majority costs one
  // conversion, one double compare, and one slot write each.
  const double up = BoundScale(*bank_);
  ws.candidates.clear();
  for (size_t m = 0; m < k; ++m) {
    double val = UbFromZ(ws.acc[m], up);
    if (val < log_t) {
      results[m] = SimilarityResult{val, 0, 0};
      continue;
    }
    const double ub1f = OnDemandUb1(*bank_, m, symbols, s, ws);
    if (ub1f < val) val = ub1f;
    if (val < log_t) {
      results[m] = SimilarityResult{val, 0, 0};
      continue;
    }
    if (prefix > 0) {
      const double ub15 = L15Bound(*bank_, m, ub1f, prefix, s, ws);
      if (ub15 < val) val = ub15;
      if (val < log_t) {
        results[m] = SimilarityResult{val, 0, 0};
        ++local.l15_pruned;
        continue;
      }
    }
    ws.candidates.push_back(static_cast<uint32_t>(m));
  }
  local.candidates_skipped = k - ws.candidates.size();

  // Level 2: exact sparse DP over the survivors.
  double best_exact = kNegInf;
  size_t best_m = static_cast<size_t>(-1);
  if (!ws.candidates.empty()) {
    ws.tmp.resize(ws.candidates.size());
    bank_->ScanCandidates(symbols, ws.candidates, ws.tmp.data());
    for (size_t j = 0; j < ws.candidates.size(); ++j) {
      const size_t m = ws.candidates[j];
      results[m] = ws.tmp[j];
      if (ws.tmp[j].log_sim > best_exact) {
        best_exact = ws.tmp[j].log_sim;
        best_m = m;
      }
    }
  }

  // Residual pass: the per-sequence maximum must be exact even when it
  // falls below the threshold (best_log_sim is a reported output).
  std::vector<uint8_t>& exact = ws.model_exact;
  exact.assign(k, 0);
  for (const uint32_t m : ws.candidates) exact[m] = 1;

  // When nothing is exactly known yet (common below the threshold: every
  // model was pruned), scan the single highest-bound model exactly first.
  // It is the likeliest true max, and the score it establishes retires
  // almost every remaining bound before the sweep below even starts.
  // Ties break to the lowest index (strict >), so the choice is
  // deterministic.
  if (best_exact == kNegInf) {
    // Argmax over the raw integer maxima (4 bytes per model, not the 24
    // of a result slot); any deterministic seed rule preserves exactness,
    // this one is just the cheapest.
    size_t m0 = static_cast<size_t>(-1);
    int32_t z0 = std::numeric_limits<int32_t>::min();
    for (size_t m = 0; m < k; ++m) {
      if (!exact[m] && ws.acc[m] > z0) {
        z0 = ws.acc[m];
        m0 = m;
      }
    }
    if (m0 != static_cast<size_t>(-1)) {
      ws.candidates.assign(1, static_cast<uint32_t>(m0));
      ws.tmp.resize(1);
      bank_->ScanCandidates(symbols, ws.candidates, ws.tmp.data());
      results[m0] = ws.tmp[0];
      exact[m0] = 1;
      ++local.residual_rescans;
      if (ws.tmp[0].log_sim > best_exact) {
        best_exact = ws.tmp[0].log_sim;
        best_m = m0;
      }
    }
  }

  // Residual sweep, ascending model index: any model whose recorded
  // bound still beats the best exactly-known score is refined — the
  // full-length cap Kadane on the fine int16 grid (every window closes
  // inside the "prefix", the tightest bound the tier can express), or
  // the fine positional sum when level 1.5 is disabled — and dropped if
  // the refined bound no longer beats the best. Survivors batch into
  // growing chunks scanned exactly. The dense Kadane bound is tight
  // enough that almost nothing survives the `> best_exact` test, so
  // visiting order no longer matters the way it did for a positional-sum
  // bound: a plain index sweep replaces the old bound-ordered heap. It is
  // deterministic by construction, and best_exact only ever grows, so a
  // model passed over earlier stays correctly passed over. The true-max
  // model cannot be dropped (its bound ≥ its score ≥ best_exact), so the
  // final max is exact. Chunks grow 4 → 8 → 16 because every exact score
  // the first chunk produces tightens the filter for the rest. Sequences
  // that joined something rarely get here at all: best_exact ≥ log_t
  // then, and every non-exact bound is < log_t.
  size_t chunk_cap = 4;
  size_t sweep = 0;
  // A pruned model's slot value is at most UbFromZ(acc[m]), so the
  // "bound still beats best_exact" test collapses to one int32 compare
  // against a floor recomputed whenever best_exact grows.
  int32_t z_floor = ZBoundFloor(best_exact, up, /*strict=*/true);
  while (sweep < k) {
    ws.candidates.clear();
    for (; sweep < k && ws.candidates.size() < chunk_cap; ++sweep) {
      const size_t m = sweep;
      if (exact[m] || ws.acc[m] < z_floor) continue;
      double refined = results[m].log_sim;
      if (prefix > 0) {
        const double ubf =
            L15Bound(*bank_, m, 0.0, ws.seq_codes.size(), s, ws);
        if (ubf < refined) refined = ubf;
      } else {
        const double ub1f = OnDemandUb1(*bank_, m, symbols, s, ws);
        if (ub1f < refined) refined = ub1f;
      }
      if (!(refined > best_exact)) {
        // The refined bound is ≤ the recorded one (we only ever minimize),
        // so it stays < log_t: no join decision can change.
        results[m] = SimilarityResult{refined, 0, 0};
        continue;
      }
      ws.candidates.push_back(static_cast<uint32_t>(m));
    }
    if (ws.candidates.empty()) continue;  // everything refined away
    ws.tmp.resize(ws.candidates.size());
    bank_->ScanCandidates(symbols, ws.candidates, ws.tmp.data());
    for (size_t j = 0; j < ws.candidates.size(); ++j) {
      const size_t m = ws.candidates[j];
      // The true result is ≤ its bound < log t: no new joins.
      results[m] = ws.tmp[j];
      ++local.residual_rescans;
      if (ws.tmp[j].log_sim > best_exact) {
        best_exact = ws.tmp[j].log_sim;
        best_m = m;
      }
    }
    z_floor = ZBoundFloor(best_exact, up, /*strict=*/true);
    chunk_cap = std::min<size_t>(chunk_cap * 2, 16);
  }

  if (best_m != static_cast<size_t>(-1)) {
    RecordSlack(UbFromZ(ws.acc[best_m], up), best_exact);
  }
  RecordMetrics(local);
  if (stats) *stats = local;
}

int32_t ScanPrefilter::BestModel(std::span<const SymbolId> symbols,
                                 double* best_log_sim,
                                 PrefilterScanStats* stats,
                                 size_t exclude_model) const {
  const size_t k = bank_->num_models();
  PrefilterScanStats local;
  local.models_total = k;
  double best = kNegInf;
  int32_t best_pos = -1;
  if (k == 0 || symbols.empty() || (k == 1 && exclude_model == 0)) {
    // Empty sequences score -inf everywhere; the exhaustive first-strict-max
    // loop never fires on -inf, so the answer is "no model" either way.
    if (best_log_sim) *best_log_sim = best;
    if (stats) *stats = local;
    return best_pos;
  }
  if (symbols.size() >= kMaxBoundedLen) {
    // Pathological lengths could overflow the int32 Kadane sums: fall
    // back to the exhaustive scan plus the same first-strict-max argmax
    // loop the unfiltered path uses.
    Workspace& ws = GetWorkspace();
    ws.tmp.resize(k);
    bank_->ScanAll(symbols, ws.tmp.data());
    for (size_t m = 0; m < k; ++m) {
      if (m == exclude_model) continue;
      if (ws.tmp[m].log_sim > best) {
        best = ws.tmp[m].log_sim;
        best_pos = static_cast<int32_t>(m);
      }
    }
    if (best_log_sim) *best_log_sim = best;
    if (stats) *stats = local;
    return best_pos;
  }

  Workspace& ws = GetWorkspace();
  const SigShape s = ShapeOf(*bank_, symbols.size());
  const size_t prefix = std::min(l15_prefix_, symbols.size());
  CountCodes(symbols, s, ws);
  ComputeAllBounds(*bank_, s, ws);
  const double up = BoundScale(*bank_);

  std::vector<double>& exact_value = ws.model_value;
  std::vector<uint8_t>& have_exact = ws.model_exact;
  exact_value.assign(k, kNegInf);
  have_exact.assign(k, 0);
  double best_bound = kNegInf;

  // The highest-bound model is scanned first, alone: it is usually the
  // argmax, and its exact score is the tightest possible starting filter
  // for everything else. The argmax runs over the raw integer Kadane
  // maxima (conversion is monotone, so this is the highest bound too);
  // ties break to the lowest index (strict >), so the seed choice is
  // deterministic.
  size_t m0 = static_cast<size_t>(-1);
  int32_t z0 = std::numeric_limits<int32_t>::min();
  for (size_t m = 0; m < k; ++m) {
    if (m == exclude_model) continue;
    if (ws.acc[m] > z0) {
      z0 = ws.acc[m];
      m0 = m;
    }
  }
  ws.candidates.assign(1, static_cast<uint32_t>(m0));
  ws.tmp.resize(1);
  bank_->ScanCandidates(symbols, ws.candidates, ws.tmp.data());
  exact_value[m0] = ws.tmp[0].log_sim;
  have_exact[m0] = 1;
  if (ws.tmp[0].log_sim > best) {
    best = ws.tmp[0].log_sim;
    best_bound = UbFromZ(ws.acc[m0], up);
  }

  // Remaining models run through the same ascending-index sweep as the
  // threshold scan's residual pass, with two differences: a model whose
  // bound TIES the running best must still be scanned (it could attain
  // the best and win the ascending-index tie-break), so drops are
  // strict `<`; and every survivor is refined (the full-length cap
  // Kadane on the fine int16 grid, or the fine positional sum when
  // level 1.5 is disabled) before joining a chunk. The true argmax cannot
  // be dropped (its bound ≥ its score ≥ best), so the maximum is exact.
  size_t chunk_cap = 4;
  size_t sweep = 0;
  // Non-strict floor: a bound that TIES the running best must still be
  // refined (the tie could win the ascending-index tie-break).
  int32_t z_floor = ZBoundFloor(best, up, /*strict=*/false);
  while (sweep < k) {
    ws.candidates.clear();
    for (; sweep < k && ws.candidates.size() < chunk_cap; ++sweep) {
      const size_t m = sweep;
      if (m == exclude_model || m == m0) continue;
      if (ws.acc[m] < z_floor) continue;
      if (prefix > 0) {
        const double ubf =
            L15Bound(*bank_, m, 0.0, ws.seq_codes.size(), s, ws);
        if (ubf < best) {  // strict: a tie could still win the argmax
          ++local.l15_pruned;
          continue;
        }
      } else {
        const double ub1f = OnDemandUb1(*bank_, m, symbols, s, ws);
        if (ub1f < best) continue;
      }
      ws.candidates.push_back(static_cast<uint32_t>(m));
    }
    if (ws.candidates.empty()) continue;
    ws.tmp.resize(ws.candidates.size());
    bank_->ScanCandidates(symbols, ws.candidates, ws.tmp.data());
    for (size_t j = 0; j < ws.candidates.size(); ++j) {
      const uint32_t m = ws.candidates[j];
      exact_value[m] = ws.tmp[j].log_sim;
      have_exact[m] = 1;
      if (ws.tmp[j].log_sim > best) {
        best = ws.tmp[j].log_sim;
        best_bound = UbFromZ(ws.acc[m], up);
      }
    }
    z_floor = ZBoundFloor(best, up, /*strict=*/false);
    chunk_cap = std::min<size_t>(chunk_cap * 2, 16);
  }
  const size_t eligible = exclude_model < k ? k - 1 : k;
  local.candidates_skipped =
      eligible - static_cast<size_t>(std::count(have_exact.begin(),
                                                have_exact.end(), uint8_t{1}));

  // First model (ascending index) whose exact score equals the exact max —
  // identical to the exhaustive first-strict-max loop, which also leaves
  // best_pos at -1 when every score is -inf (or NaN).
  if (best > kNegInf) {
    for (size_t m = 0; m < k; ++m) {
      if (have_exact[m] && exact_value[m] == best) {
        best_pos = static_cast<int32_t>(m);
        break;
      }
    }
    RecordSlack(best_bound, best);
  }
  RecordMetrics(local);
  if (best_log_sim) *best_log_sim = best;
  if (stats) *stats = local;
  return best_pos;
}

PrefilterWorkspaceProbe ScanPrefilter::ProbeThreadWorkspaceForTesting() {
  Workspace& ws = GetWorkspace();
  PrefilterWorkspaceProbe p;
  p.stamp = ws.stamp.data();
  p.count = ws.count.data();
  p.cols = ws.cols.data();
  p.acc = ws.acc.data();
  p.tmp = ws.tmp.data();
  return p;
}

}  // namespace cluseq
