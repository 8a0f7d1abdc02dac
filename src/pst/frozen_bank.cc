#include "pst/frozen_bank.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "obs/metrics.h"
#include "util/logging.h"

namespace cluseq {

namespace {

/// Arenas at least this large are backed by 2 MiB-aligned storage and
/// advised as hugepage (the rounding waste is bounded by one page).
constexpr size_t kHugePageBytes = 2 * 1024 * 1024;

FrozenBank::Entry* AllocateArena(size_t* capacity_entries) {
  static obs::Gauge& hugepage_gauge =
      obs::MetricsRegistry::Get().GetGauge("frozen_bank.hugepage_arena");
  const size_t bytes = *capacity_entries * sizeof(FrozenBank::Entry);
  if (bytes >= kHugePageBytes) {
    const size_t rounded =
        (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
    void* huge = std::aligned_alloc(kHugePageBytes, rounded);
    if (huge != nullptr) {
#if defined(__linux__)
      madvise(huge, rounded, MADV_HUGEPAGE);  // Best-effort; ENOSYS is fine.
#endif
      *capacity_entries = rounded / sizeof(FrozenBank::Entry);
      hugepage_gauge.Set(1.0);
      return static_cast<FrozenBank::Entry*>(huge);
    }
  }
  void* plain = std::malloc(bytes);
  CLUSEQ_CHECK(plain != nullptr || bytes == 0,
               "FrozenBank arena allocation failed");
  hugepage_gauge.Set(0.0);
  return static_cast<FrozenBank::Entry*>(plain);
}

}  // namespace

FrozenBank::EntryArena& FrozenBank::EntryArena::operator=(
    const EntryArena& other) {
  if (this != &other) {
    resize(other.size_);
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(Entry));
  }
  return *this;
}

FrozenBank::EntryArena& FrozenBank::EntryArena::operator=(
    EntryArena&& other) noexcept {
  if (this != &other) {
    std::free(data_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

FrozenBank::EntryArena::~EntryArena() { std::free(data_); }

void FrozenBank::EntryArena::resize(size_t n) {
  if (n > capacity_) {
    size_t capacity = n;
    Entry* fresh = AllocateArena(&capacity);
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(Entry));
    std::free(data_);
    data_ = fresh;
    capacity_ = capacity;
  }
  size_ = n;
}

namespace internal {

void ScanBlockScalar(const FrozenBank::Entry* entries, const uint32_t* bases,
                     size_t num_models, const SymbolId* symbols, size_t len,
                     SimilarityResult* out) {
  // Per-model DP lanes; the inner loops carry no cross-model dependency, so
  // the m-iterations pipeline (independent gather chains) even without SIMD.
  double y[kMaxBlockModels];
  double z[kMaxBlockModels];
  uint32_t row[kMaxBlockModels];
  size_t ybegin[kMaxBlockModels];
  size_t bbegin[kMaxBlockModels];
  size_t bend[kMaxBlockModels];
  const double neg_inf = -std::numeric_limits<double>::infinity();
  for (size_t m = 0; m < num_models; ++m) {
    row[m] = bases[m];  // Root state: model-local row 0.
    z[m] = neg_inf;
    ybegin[m] = 0;
    bbegin[m] = 0;
    bend[m] = 0;
  }

  // i = 0 peeled: the reference recurrence starts Y at X_0 unconditionally
  // (and never evaluates Y_{-1} + X_0, which matters for ±inf ratios).
  {
    const uint32_t s = symbols[0];
    for (size_t m = 0; m < num_models; ++m) {
      const FrozenBank::Entry& e = entries[static_cast<size_t>(row[m]) + s];
      row[m] = bases[m] + e.next;
      y[m] = e.ratio;
      if (y[m] > z[m]) {
        z[m] = y[m];
        bend[m] = 1;  // bbegin stays 0.
      }
    }
  }
  for (size_t i = 1; i < len; ++i) {
    const uint32_t s = symbols[i];
    for (size_t m = 0; m < num_models; ++m) {
      const FrozenBank::Entry& e = entries[static_cast<size_t>(row[m]) + s];
      const double x = e.ratio;  // log X_i, background baked in.
      row[m] = bases[m] + e.next;
      const double extend = y[m] + x;
      if (extend < x) {
        y[m] = x;  // Restart: best segment ending at i is {s_i} alone.
        ybegin[m] = i;
      } else {
        y[m] = extend;
      }
      if (y[m] > z[m]) {
        z[m] = y[m];
        bbegin[m] = ybegin[m];
        bend[m] = i + 1;
      }
    }
  }
  for (size_t m = 0; m < num_models; ++m) {
    out[m].log_sim = z[m];
    out[m].best_begin = bbegin[m];
    out[m].best_end = bend[m];
  }
}

void KadaneColumnsScalar(const uint8_t* const* cols, size_t len, size_t n,
                         int32_t* z) {
  for (size_t m = 0; m < n; ++m) {
    int32_t x = static_cast<int32_t>(cols[0][m]) -
                FrozenBank::kSignatureZeroPoint;
    int32_t y = x;
    int32_t best = x;
    for (size_t i = 1; i < len; ++i) {
      x = static_cast<int32_t>(cols[i][m]) - FrozenBank::kSignatureZeroPoint;
      const int32_t extend = y + x;
      y = extend < x ? x : extend;
      if (y > best) best = y;
    }
    z[m] = best;
  }
}

}  // namespace internal

void FrozenBank::SignatureKadaneDense(const uint8_t* const* cols, size_t len,
                                      int32_t* z) const {
  const size_t k = num_models();
  if (k == 0 || len == 0) return;
#ifdef CLUSEQ_HAVE_AVX2
  if (!force_scalar_ && SimdAvailable()) {
    // Cache-resident transposed tables make the dense pass store-bound,
    // where the register-resident striped kernel wins; tables past this
    // size pay memory bandwidth per scan and want the position-outer
    // kernel's sequential column streaming instead. Both compute the
    // same exact integer recurrence.
    constexpr size_t kStripedKadaneMaxTableBytes = size_t{4} << 20;
    const size_t table_bytes = sig_maxsymt_q_.size() + sig_capt_q_.size();
    if (table_bytes <= kStripedKadaneMaxTableBytes) {
      internal::KadaneColumnsAvx2Striped(cols, len, k, z);
    } else {
      internal::KadaneColumnsAvx2(cols, len, k, z);
    }
    return;
  }
#endif
  internal::KadaneColumnsScalar(cols, len, k, z);
}

bool FrozenBank::SimdAvailable() {
#ifdef CLUSEQ_HAVE_AVX2
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

FrozenBank::AssembleStats FrozenBank::Assemble(
    std::vector<std::shared_ptr<const FrozenPst>> models) {
  AssembleStats stats;
  size_t alphabet = alphabet_size_;
  for (const auto& model : models) {
    CLUSEQ_CHECK(model != nullptr && !model->empty(),
                 "FrozenBank models must be non-empty snapshots");
    if (alphabet == 0) alphabet = model->alphabet_size();
    CLUSEQ_CHECK(model->alphabet_size() == alphabet,
                 "FrozenBank models must share one alphabet_size");
  }

  // New layout: prefix sums of each model's (states × alphabet) extent.
  std::vector<size_t> base(models.size());
  size_t total = 0;
  for (size_t m = 0; m < models.size(); ++m) {
    base[m] = total;
    total += models[m]->num_states() * alphabet;
  }
  // The SIMD transition gather addresses entry g at scaled signed 32-bit
  // index 4·g + 2 (see frozen_bank_avx2.cc), so that — not 2^31 entries —
  // bounds the arena. Still ~8.6 GiB of packed rows, far beyond any real
  // bank.
  CLUSEQ_CHECK(
      total <= static_cast<size_t>(std::numeric_limits<int32_t>::max() / 4),
      "FrozenBank arena exceeds the gather-index range");

  // A slot is reusable in place when the same snapshot object sits at the
  // same offset as in the previous layout — its rows are already correct,
  // byte for byte. (vector::resize may still relocate the storage; contents
  // are preserved either way.) A mapped bank has no snapshots, so nothing
  // reuses and the assemble below rebuilds an owned arena.
  std::vector<char> reuse(models.size(), 0);
  for (size_t m = 0; m < models.size(); ++m) {
    reuse[m] = alphabet == alphabet_size_ && m < models_.size() &&
               models_[m] == models[m] && base[m] == base_[m];
  }
  external_entries_ = nullptr;
  external_storage_.reset();

  entries_.resize(total);
  for (size_t m = 0; m < models.size(); ++m) {
    if (reuse[m]) {
      ++stats.models_reused;
      continue;
    }
    ++stats.models_written;
    const FrozenPst& model = *models[m];
    const std::span<const double> src_ratio = model.log_ratio_table();
    const std::span<const FrozenPst::State> src_next =
        model.transition_table();
    // Transitions are rebased from state ids to model-local row offsets so
    // one entry both scores the symbol and names the next row.
    Entry* dst = entries_.data() + base[m];
    for (size_t e = 0; e < src_next.size(); ++e) {
      dst[e] = Entry{src_ratio[e],
                     src_next[e] * static_cast<uint32_t>(alphabet), 0};
    }
  }

  alphabet_size_ = alphabet;
  models_ = std::move(models);
  states_.resize(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    states_[m] = static_cast<uint32_t>(models_[m]->num_states());
  }
  base_ = std::move(base);
  base32_.resize(base_.size());
  for (size_t m = 0; m < base_.size(); ++m) {
    base32_[m] = static_cast<uint32_t>(base_[m]);
  }

  // Bound signatures ride the same reuse logic: a slot whose rows were kept
  // byte-identical keeps its signature (flat per-model indexing is stable
  // because reuse implies an unchanged alphabet and slot index). A tier
  // change reshapes the per-model tables, so it forces a full signature
  // rebuild even where arena rows were reused.
  const SignatureTier tier = SelectSignatureTier(models_.size(), alphabet);
  const bool tier_changed = tier != sig_tier_;
  sig_tier_ = tier;
  sig_maxsym_.resize(models_.size() * alphabet);
  sig_cap_q_.resize(models_.size() * signature_code_space());
  for (size_t m = 0; m < models_.size(); ++m) {
    if (!reuse[m] || tier_changed) BuildSignature(m);
  }
  BuildTransposedSignatures();

  static obs::Counter& assembles =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.assembles");
  static obs::Counter& written =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.models_written");
  static obs::Counter& reused =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.models_reused");
  static obs::Gauge& arena_bytes =
      obs::MetricsRegistry::Get().GetGauge("frozen_bank.arena_bytes");
  assembles.Increment();
  written.Add(stats.models_written);
  reused.Add(stats.models_reused);
  arena_bytes.Set(static_cast<double>(entries_.size() * sizeof(Entry)));
  return stats;
}

double FrozenBank::SignatureTierCostBytes(size_t k, size_t alphabet,
                                          size_t order) {
  // Computed in doubles so huge alphabets cannot overflow the size
  // arithmetic. Per (model, code) entry: 2 bytes model-major int16 +
  // 1 byte transposed uint8; plus the A-wide per-symbol tables (double
  // model-major + uint8 transpose).
  const double kd = static_cast<double>(k);
  const double a = static_cast<double>(alphabet);
  double cs = 1.0;
  for (size_t o = 0; o < order; ++o) cs *= a;
  return kd * cs * (sizeof(int16_t) + 1) + kd * a * (sizeof(double) + 1);
}

FrozenBank::SignatureTier FrozenBank::SelectSignatureTier(
    size_t k, size_t alphabet) const {
  if (k == 0 || alphabet == 0) return SignatureTier::kUnigram;
  const double budget = static_cast<double>(signature_budget_bytes_);
  if (SignatureTierCostBytes(k, alphabet, 3) <= budget) {
    return SignatureTier::kTrigram;
  }
  if (SignatureTierCostBytes(k, alphabet, 2) <= budget) {
    return SignatureTier::kBigram;
  }
  return SignatureTier::kUnigram;
}

namespace {

// Rounds a log-ratio up onto the kSignatureQuantStep fixed-point grid.
// Round-up keeps the cap admissible; the explicit product check repairs
// the rare case where the scaled ceil still lands a hair below v (the
// multiply itself rounds). NaN maps to the fold identity — a NaN ratio
// never wins the `>` max-folds below, matching the double code it
// replaces — and -inf clamps upward to the grid floor, which only loosens
// the cap. Positive saturation is unreachable (see kSignatureQuantStep).
int16_t QuantizeCap16(double v) {
  constexpr int16_t kMin = std::numeric_limits<int16_t>::min();
  if (std::isnan(v)) return kMin;
  const double q = std::ceil(v * 256.0);
  if (q <= -32768.0) return kMin;
  if (q >= 32767.0) return std::numeric_limits<int16_t>::max();
  int32_t qi = static_cast<int32_t>(q);
  if (static_cast<double>(qi) * FrozenBank::kSignatureQuantStep < v) ++qi;
  return static_cast<int16_t>(qi);
}

}  // namespace

void FrozenBank::BuildSignature(size_t m) {
  const size_t a_size = alphabet_size_;
  const size_t ns = states_[m];
  const Entry* rows = scan_data() + base_[m];
  const double neg_inf = -std::numeric_limits<double>::infinity();
  constexpr int16_t kQMin = std::numeric_limits<int16_t>::min();

  double* maxsym = sig_maxsym_.data() + m * a_size;
  if (m < models_.size() && models_[m] != nullptr &&
      !models_[m]->max_symbol_log_ratio().empty()) {
    // Assembled bank: the per-symbol maxima were precomputed at freeze time.
    const std::span<const double> src = models_[m]->max_symbol_log_ratio();
    std::copy(src.begin(), src.end(), maxsym);
  } else {
    // Mapped bank: one pass over the packed rows.
    std::fill(maxsym, maxsym + a_size, neg_inf);
    for (size_t u = 0; u < ns; ++u) {
      const Entry* row = rows + u * a_size;
      for (size_t a = 0; a < a_size; ++a) {
        if (row[a].ratio > maxsym[a]) maxsym[a] = row[a].ratio;
      }
    }
  }

  if (sig_tier_ == SignatureTier::kUnigram) {
    // Unigram tier: the cap table is just the per-symbol maxima quantized,
    // so every consumer reads sig_cap_q_ the same way regardless of tier.
    int16_t* cap1 = sig_cap_q_.data() + m * a_size;
    for (size_t a = 0; a < a_size; ++a) cap1[a] = QuantizeCap16(maxsym[a]);
    return;
  }
  if (sig_tier_ == SignatureTier::kBigram) {
    // cap2[b·A + a] = max of ratio(v, a) over v in the image of Step(·, b).
    // That image is small — every state reached by consuming b has a label
    // ending in b (or is the root), and those sets are disjoint across b,
    // so Σ_b |image_b| ≤ states + A. Folding each distinct successor row
    // once per b (epoch-stamp dedup) keeps construction at O(states · A),
    // the same order as packing the rows in the first place.
    int16_t* cap2 = sig_cap_q_.data() + m * a_size * a_size;
    std::fill(cap2, cap2 + a_size * a_size, kQMin);
    std::vector<uint32_t> stamp(ns, 0);
    for (size_t b = 0; b < a_size; ++b) {
      const uint32_t epoch = static_cast<uint32_t>(b) + 1;
      int16_t* caps = cap2 + b * a_size;
      for (size_t u = 0; u < ns; ++u) {
        const uint32_t v = rows[u * a_size + b].next / a_size;
        if (stamp[v] == epoch) continue;
        stamp[v] = epoch;
        const Entry* vrow = rows + static_cast<size_t>(v) * a_size;
        for (size_t a = 0; a < a_size; ++a) {
          // Quantization is monotone, so folding quantized values gives
          // exactly the quantized max — still an admissible cap.
          const int16_t qv = QuantizeCap16(vrow[a].ratio);
          if (qv > caps[a]) caps[a] = qv;
        }
      }
    }
    return;
  }
  // Trigram tier: cap3[(c·A + b)·A + a] = max of ratio(w, a) over w in the
  // two-step image Step(Step(·, c), b). Admissible for any position whose
  // two preceding symbols are (c, b), whatever the state before them. The
  // one-step image of c is collected once (epoch-stamp dedup, as in cap2),
  // then stepped on b with a second stamp per (c, b) — Σ|images| stays
  // near states·A for suffix-automaton-shaped transition structure, and
  // the tier is budget-gated to small k·A³ anyway.
  int16_t* cap3 = sig_cap_q_.data() + m * a_size * a_size * a_size;
  std::fill(cap3, cap3 + a_size * a_size * a_size, kQMin);
  std::vector<uint32_t> stamp1(ns, 0);
  std::vector<uint32_t> stamp2(ns, 0);
  std::vector<uint32_t> image;
  image.reserve(std::min<size_t>(ns, 256));
  for (size_t c = 0; c < a_size; ++c) {
    image.clear();
    const uint32_t epoch1 = static_cast<uint32_t>(c) + 1;
    for (size_t u = 0; u < ns; ++u) {
      const uint32_t v = rows[u * a_size + c].next / a_size;
      if (stamp1[v] == epoch1) continue;
      stamp1[v] = epoch1;
      image.push_back(v);
    }
    for (size_t b = 0; b < a_size; ++b) {
      const uint32_t epoch2 = static_cast<uint32_t>(c * a_size + b) + 1;
      int16_t* caps = cap3 + (c * a_size + b) * a_size;
      for (const uint32_t v : image) {
        const uint32_t w = rows[static_cast<size_t>(v) * a_size + b].next /
                           a_size;
        if (stamp2[w] == epoch2) continue;
        stamp2[w] = epoch2;
        const Entry* wrow = rows + static_cast<size_t>(w) * a_size;
        for (size_t a = 0; a < a_size; ++a) {
          const int16_t qv = QuantizeCap16(wrow[a].ratio);
          if (qv > caps[a]) caps[a] = qv;
        }
      }
    }
  }
}

void FrozenBank::BuildAllSignatures() {
  const size_t k = base_.size();
  sig_tier_ = SelectSignatureTier(k, alphabet_size_);
  sig_maxsym_.resize(k * alphabet_size_);
  sig_cap_q_.resize(k * signature_code_space());
  for (size_t m = 0; m < k; ++m) BuildSignature(m);
  BuildTransposedSignatures();
}

void FrozenBank::BuildTransposedSignatures() {
  const size_t k = base_.size();
  const size_t a_size = alphabet_size_;
  const size_t cs = signature_code_space();

  // Pass 0: pick the bank-global signed 8-bit grid. The positive side
  // (191 levels above the zero point) must cover the largest positive
  // value the transposed tables will ever hold — both the raw per-symbol
  // maxima (doubles) and the already-quantized caps. The (1 + 2^-40)
  // headroom guarantees 191 * scale >= gmax even after the division
  // rounds, so the bump loop below always terminates at 191.
  double gmax = 0.0;
  for (const double v : sig_maxsym_) {
    if (std::isfinite(v) && v > gmax) gmax = v;
  }
  int16_t q16max = 0;
  for (const int16_t q : sig_cap_q_) {
    if (q > q16max) q16max = q;
  }
  if (q16max > 0) {
    gmax = std::max(gmax, static_cast<double>(q16max) * kSignatureQuantStep);
  }
  constexpr int32_t kZp = kSignatureZeroPoint;
  constexpr int32_t kPos = kSignaturePosLevels;
  sig_scale8_ = gmax > 0.0 ? gmax * (1.0 + 0x1p-40) / kPos : 1.0;
  const double scale = sig_scale8_;
  const double inv_scale = 1.0 / scale;
  // Round-up quantization onto the signed offset grid: stored byte =
  // clamp(ceil(v / scale), −64, 191) + 64, so (byte − 64) · scale ≥ v
  // always — the bump loop repairs any downward FP rounding, and the low
  // clamp only raises a value (admissible; a deep negative cap just
  // breaks windows a little less hard). NaN maps to 255: it must
  // dominate any score the scan kernels can produce, because a NaN X
  // freezes their Y lane and the best window then closed before the NaN
  // — a window our Kadane sweep also saw. −inf maps to 0.
  const auto quant_s8 = [scale, inv_scale](double v) -> uint8_t {
    if (std::isnan(v)) return 255;
    if (!(v > static_cast<double>(-kZp) * scale)) return 0;
    const double q = std::ceil(v * inv_scale);
    int32_t u = q >= static_cast<double>(kPos) ? kPos
                                               : static_cast<int32_t>(q);
    if (u < -kZp) u = -kZp;
    while (u < kPos && static_cast<double>(u) * scale < v) ++u;
    return static_cast<uint8_t>(u + kZp);
  };

  // Pass 1: per-symbol maxima, transposed to symbol-major offset-u8 so
  // the dense level-1 pass streams one contiguous k-wide column per lead
  // position.
  sig_maxsymt_q_.resize(k * a_size);
  for (size_t m = 0; m < k; ++m) {
    const double* src = sig_maxsym_.data() + m * a_size;
    for (size_t a = 0; a < a_size; ++a) {
      sig_maxsymt_q_[a * k + m] = quant_s8(src[a]);
    }
  }

  // Pass 2: cap tables, code-major offset-u8. Quantized FROM the int16
  // values — q16 * kSignatureQuantStep is exact in double (both are
  // powers of two away from an integer), so (e − 64) * scale >= q16 *
  // step >= true cap and the dominance chain the refine bounds rely on
  // holds entrywise. Unlike the positive-clamped mirror this replaces,
  // the signed grid keeps the *negative* caps too — that is what lets
  // the dense Kadane sweep see windows break.
  sig_capt_q_.resize(k * cs);
  for (size_t m = 0; m < k; ++m) {
    const int16_t* src = sig_cap_q_.data() + m * cs;
    for (size_t code = 0; code < cs; ++code) {
      sig_capt_q_[code * k + m] = quant_s8(
          static_cast<double>(src[code]) * kSignatureQuantStep);
    }
  }
}

size_t FrozenBank::BlockModels() const {
  // Every in-flight model holds one (ratio, next) row pair hot. Budget half
  // of a typical 512 KiB L2 for a handful of recently-touched rows per
  // model; depth-major state numbering keeps those rows adjacent.
  constexpr size_t kCacheBudgetBytes = 256 * 1024;
  constexpr size_t kAssumedHotRowsPerModel = 8;
  const size_t row_bytes = alphabet_size_ * sizeof(Entry);
  const size_t denom = std::max<size_t>(
      1, row_bytes * kAssumedHotRowsPerModel);
  return std::clamp<size_t>(kCacheBudgetBytes / denom, 8,
                            internal::kMaxBlockModels);
}

void FrozenBank::ScanAll(std::span<const SymbolId> symbols,
                         SimilarityResult* results) const {
  const size_t k = num_models();
  if (symbols.empty()) {
    for (size_t m = 0; m < k; ++m) {
      results[m] = SimilarityResult{};
      results[m].log_sim = -std::numeric_limits<double>::infinity();
    }
    return;
  }
#ifdef CLUSEQ_HAVE_AVX2
  const bool use_simd = !force_scalar_ && SimdAvailable();
#else
  const bool use_simd = false;
#endif
  // One shard-striped fetch_add per ScanAll call — amortized over len × k
  // scored symbols, so the hot inner loops stay untouched.
  static obs::Counter& scan_symbols =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.scan_symbols");
  static obs::Counter& scans_simd =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.scans_simd");
  static obs::Counter& scans_scalar =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.scans_scalar");
  scan_symbols.Add(symbols.size() * k);
  (use_simd ? scans_simd : scans_scalar).Increment();
  const size_t block = BlockModels();
  for (size_t m0 = 0; m0 < k; m0 += block) {
    const size_t mb = std::min(block, k - m0);
#ifdef CLUSEQ_HAVE_AVX2
    if (use_simd) {
      internal::ScanBlockAvx2(scan_data(), base32_.data() + m0, mb,
                              symbols.data(), symbols.size(), results + m0);
      continue;
    }
#else
    (void)use_simd;
#endif
    internal::ScanBlockScalar(scan_data(), base32_.data() + m0, mb,
                              symbols.data(), symbols.size(), results + m0);
  }
}

void FrozenBank::ScanCandidates(std::span<const SymbolId> symbols,
                                std::span<const uint32_t> candidates,
                                SimilarityResult* results) const {
  const size_t k = candidates.size();
  if (k == 0) return;
  if (symbols.empty()) {
    for (size_t j = 0; j < k; ++j) {
      results[j] = SimilarityResult{};
      results[j].log_sim = -std::numeric_limits<double>::infinity();
    }
    return;
  }
#ifdef CLUSEQ_HAVE_AVX2
  const bool use_simd = !force_scalar_ && SimdAvailable();
#else
  const bool use_simd = false;
#endif
  // The candidates' bases compacted into the dense array the block kernels
  // expect. thread_local because ScanCandidates runs concurrently on pool
  // workers.
  static thread_local std::vector<uint32_t> bases;
  bases.resize(k);
  for (size_t j = 0; j < k; ++j) bases[j] = base32_[candidates[j]];

  static obs::Counter& scan_symbols =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.scan_symbols");
  scan_symbols.Add(symbols.size() * k);
  const size_t block = BlockModels();
  for (size_t m0 = 0; m0 < k; m0 += block) {
    const size_t mb = std::min(block, k - m0);
#ifdef CLUSEQ_HAVE_AVX2
    if (use_simd) {
      internal::ScanBlockAvx2(scan_data(), bases.data() + m0, mb,
                              symbols.data(), symbols.size(), results + m0);
      continue;
    }
#else
    (void)use_simd;
#endif
    internal::ScanBlockScalar(scan_data(), bases.data() + m0, mb,
                              symbols.data(), symbols.size(), results + m0);
  }
}

void FrozenBank::StepAll(SymbolId symbol, uint32_t* rows, double* y,
                         double* z, uint8_t* started) const {
  const size_t k = num_models();
  const Entry* entries = scan_data();
  for (size_t m = 0; m < k; ++m) {
    const Entry& e = entries[base_[m] + rows[m] + symbol];
    const double x = e.ratio;
    rows[m] = e.next;  // Stays model-local: survives arena re-packs.
    if (!started[m] || y[m] + x < x) {
      y[m] = x;
    } else {
      y[m] += x;
    }
    started[m] = 1;
    z[m] = std::max(z[m], y[m]);
  }
}

}  // namespace cluseq
