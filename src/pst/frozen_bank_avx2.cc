// AVX2 ScanAll kernel: 4 models per vector register group, several groups
// advanced in lockstep per symbol.
//
// This TU is compiled with -mavx2 and only referenced behind the runtime
// __builtin_cpu_supports("avx2") dispatch in FrozenBank::ScanAll, so the
// rest of the library keeps the portable baseline ISA.
//
// The per-quad DP is a dependent chain — the gathered transition names the
// next row, so each symbol costs a full gather latency before the next one
// can issue. One quad alone is therefore latency-bound. Interleaving
// kQuads independent quads inside the same symbol loop overlaps their
// chains: while quad 0 waits on its transition gather, quads 1..3 issue
// theirs, turning the scan throughput-bound instead. The per-symbol
// broadcasts (symbol, i, i + 1) are hoisted and shared across quads.
//
// Bit-for-bit equivalence with the scalar DP is a hard contract here, so
// the vector code mirrors the scalar control flow rather than using maxpd:
//   * i = 0 is peeled, exactly like the scalar kernel, because the
//     reference recurrence never evaluates Y_{-1} + X_0 (which matters when
//     X_0 is ±inf and the sum would be NaN).
//   * Restart/extend and Z-update decisions use ordered-quiet compares
//     (_CMP_LT_OQ / _CMP_GT_OQ) + blends. An ordered compare is false on
//     NaN, which reproduces the scalar `if (extend < x)` / `if (y > z)`
//     branches' NaN behaviour; _mm256_max_pd would not (it returns the
//     second operand on NaN).
//   * The begin/end bookkeeping lives in int64 lanes blended through the
//     same double masks (castpd <-> castsi256 is a bitwise reinterpret).
// The per-symbol arithmetic is a single add — no FMA contraction is
// possible, so the vector sums are the same IEEE operations in the same
// order as the scalar ones. Model lanes never interact, so the group width
// cannot change results either.

#include "pst/frozen_bank.h"

#ifdef CLUSEQ_HAVE_AVX2

#include <immintrin.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace cluseq {
namespace internal {

namespace {

/// Gathers addressing the interleaved 16-byte Entry arena: entry g keeps
/// its ratio double at byte offset 16g (scaled index 2g · 8) and its next
/// word at 16g + 8 (scaled index (4g + 2) · 4); Assemble bounds g so the
/// scaled signed 32-bit indices cannot overflow. Both use a zeroed merge
/// source with an all-ones mask: identical lanes to the plain gather
/// intrinsics, but without GCC's uninitialized-__Y warning for the
/// undefined-source forms.
inline __m256d GatherRatio(const FrozenBank::Entry* entries, __m128i ventry) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), reinterpret_cast<const double*>(entries),
      _mm_slli_epi32(ventry, 1),
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

inline __m128i GatherNext(const FrozenBank::Entry* entries, __m128i ventry) {
  const __m128i vindex =
      _mm_add_epi32(_mm_slli_epi32(ventry, 2), _mm_set1_epi32(2));
  return _mm_mask_i32gather_epi32(_mm_setzero_si128(),
                                  reinterpret_cast<const int*>(entries),
                                  vindex, _mm_set1_epi32(-1), 4);
}

/// kQuads groups of 4 models advanced in lockstep over the whole stream.
template <int kQuads>
void ScanGroupAvx2(const FrozenBank::Entry* entries, const uint32_t* bases,
                   const SymbolId* symbols, size_t len,
                   SimilarityResult* out) {
  const __m256d vneg_inf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());

  __m128i vbase[kQuads];
  __m128i vrow[kQuads];
  __m256d vy[kQuads];
  __m256d vz[kQuads];
  __m256i vybegin[kQuads];
  __m256i vbbegin[kQuads];
  __m256i vbend[kQuads];
  for (int q = 0; q < kQuads; ++q) {
    vbase[q] =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bases + 4 * q));
    vrow[q] = vbase[q];  // Root state: model-local row 0.
    vz[q] = vneg_inf;
    vybegin[q] = _mm256_setzero_si256();
    vbbegin[q] = _mm256_setzero_si256();
    vbend[q] = _mm256_setzero_si256();
  }

  // i = 0 peeled: Y_0 = X_0 unconditionally.
  {
    const __m128i vs = _mm_set1_epi32(symbols[0]);
    const __m256i vone = _mm256_set1_epi64x(1);
    for (int q = 0; q < kQuads; ++q) {
      const __m128i vg = _mm_add_epi32(vrow[q], vs);
      const __m256d vx = GatherRatio(entries, vg);
      const __m128i vnext = GatherNext(entries, vg);
      vrow[q] = _mm_add_epi32(vbase[q], vnext);
      vy[q] = vx;
      const __m256d gt = _mm256_cmp_pd(vy[q], vz[q], _CMP_GT_OQ);
      vz[q] = _mm256_blendv_pd(vz[q], vy[q], gt);
      vbend[q] = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(vbend[q]), _mm256_castsi256_pd(vone), gt));
      // vbbegin stays 0: the segment starting the stream begins at 0.
    }
  }

  for (size_t i = 1; i < len; ++i) {
    const __m128i vs = _mm_set1_epi32(symbols[i]);
    const __m256i vi = _mm256_set1_epi64x(static_cast<long long>(i));
    const __m256i vend = _mm256_set1_epi64x(static_cast<long long>(i + 1));
    for (int q = 0; q < kQuads; ++q) {
      const __m128i vg = _mm_add_epi32(vrow[q], vs);
      const __m256d vx = GatherRatio(entries, vg);
      const __m128i vnext = GatherNext(entries, vg);
      vrow[q] = _mm_add_epi32(vbase[q], vnext);

      const __m256d vextend = _mm256_add_pd(vy[q], vx);
      const __m256d restart = _mm256_cmp_pd(vextend, vx, _CMP_LT_OQ);
      vy[q] = _mm256_blendv_pd(vextend, vx, restart);
      vybegin[q] = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(vybegin[q]), _mm256_castsi256_pd(vi), restart));

      const __m256d gt = _mm256_cmp_pd(vy[q], vz[q], _CMP_GT_OQ);
      vz[q] = _mm256_blendv_pd(vz[q], vy[q], gt);
      vbbegin[q] = _mm256_castpd_si256(
          _mm256_blendv_pd(_mm256_castsi256_pd(vbbegin[q]),
                           _mm256_castsi256_pd(vybegin[q]), gt));
      vbend[q] = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(vbend[q]), _mm256_castsi256_pd(vend), gt));
    }
  }

  alignas(32) double z_out[4];
  alignas(32) int64_t begin_out[4];
  alignas(32) int64_t end_out[4];
  for (int q = 0; q < kQuads; ++q) {
    _mm256_store_pd(z_out, vz[q]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(begin_out), vbbegin[q]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(end_out), vbend[q]);
    for (size_t m = 0; m < 4; ++m) {
      out[4 * q + m].log_sim = z_out[m];
      out[4 * q + m].best_begin = static_cast<size_t>(begin_out[m]);
      out[4 * q + m].best_end = static_cast<size_t>(end_out[m]);
    }
  }
}

}  // namespace

void ScanBlockAvx2(const FrozenBank::Entry* entries, const uint32_t* bases,
                   size_t num_models, const SymbolId* symbols, size_t len,
                   SimilarityResult* out) {
  // 16 models per group is the measured sweet spot on big banks: fewer
  // leaves the gather chains latency-bound (8-model groups run ~40% slower
  // at k = 64), more lets the group's recurrent row set outgrow L2 so hot
  // rows get evicted between touches (64-model groups lose ~15%).
  size_t m = 0;
  for (; m + 16 <= num_models; m += 16) {
    ScanGroupAvx2<4>(entries, bases + m, symbols, len, out + m);
  }
  for (; m + 8 <= num_models; m += 8) {
    ScanGroupAvx2<2>(entries, bases + m, symbols, len, out + m);
  }
  for (; m + 4 <= num_models; m += 4) {
    ScanGroupAvx2<1>(entries, bases + m, symbols, len, out + m);
  }
  if (m < num_models) {
    ScanBlockScalar(entries, bases + m, num_models - m, symbols, len,
                    out + m);
  }
}

void KadaneColumnsAvx2(const uint8_t* const* cols, size_t len, size_t n,
                       int32_t* z) {
  // Loop order is position-outer: each position's k-wide column is the
  // only compulsory per-scan traffic, and walking it sequentially keeps
  // the hardware prefetcher fed, while the per-model Kadane state (y =
  // best suffix sum, b = best window sum) lives in small reused buffers
  // that stay L1-resident. The transposed order — each model stripe
  // walking all positions — touches ~len scattered cache lines per
  // stripe across the whole table and stalls on DRAM latency instead.
  //
  // int16 state lanes are exact while the largest possible running sum
  // len · kSignaturePosLevels stays under 2^15 (the negative side cannot
  // underflow: the recurrence keeps y ≥ x ≥ −64). Longer sequences run
  // the int32 variant — same recurrence, same results.
  constexpr size_t kI16MaxLen =
      32767 / static_cast<size_t>(FrozenBank::kSignaturePosLevels);  // 171
  static thread_local std::vector<int16_t> y16, b16;
  static thread_local std::vector<int32_t> y32;
  size_t m = 0;
  if (len <= kI16MaxLen) {
    if (y16.size() < n) {
      y16.resize(n);
      b16.resize(n);
    }
    int16_t* y = y16.data();
    int16_t* b = b16.data();
    const __m256i zp = _mm256_set1_epi16(FrozenBank::kSignatureZeroPoint);
    for (; m + 16 <= n; m += 16) {
      const __m256i x = _mm256_sub_epi16(
          _mm256_cvtepu8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(cols[0] + m))),
          zp);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + m), x);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(b + m), x);
    }
    const size_t mv = m;
    for (size_t i = 1; i < len; ++i) {
      const uint8_t* col = cols[i];
      for (size_t j = 0; j < mv; j += 16) {
        const __m256i x = _mm256_sub_epi16(
            _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(col + j))),
            zp);
        __m256i yj =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + j));
        yj = _mm256_max_epi16(_mm256_add_epi16(yj, x), x);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j), yj);
        const __m256i bj = _mm256_max_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j)), yj);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(b + j), bj);
      }
    }
    for (size_t j = 0; j < mv; j += 16) {
      const __m256i bj =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(z + j),
          _mm256_cvtepi16_epi32(_mm256_castsi256_si128(bj)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(z + j + 8),
          _mm256_cvtepi16_epi32(_mm256_extracti128_si256(bj, 1)));
    }
  } else {
    if (y32.size() < n) y32.resize(n);
    int32_t* y = y32.data();  // b is the z output array itself here.
    const __m256i zp = _mm256_set1_epi32(FrozenBank::kSignatureZeroPoint);
    for (; m + 8 <= n; m += 8) {
      const __m256i x = _mm256_sub_epi32(
          _mm256_cvtepu8_epi32(_mm_loadl_epi64(
              reinterpret_cast<const __m128i*>(cols[0] + m))),
          zp);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + m), x);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(z + m), x);
    }
    const size_t mv = m;
    for (size_t i = 1; i < len; ++i) {
      const uint8_t* col = cols[i];
      for (size_t j = 0; j < mv; j += 8) {
        const __m256i x = _mm256_sub_epi32(
            _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i*>(col + j))),
            zp);
        __m256i yj =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + j));
        yj = _mm256_max_epi32(_mm256_add_epi32(yj, x), x);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j), yj);
        const __m256i bj = _mm256_max_epi32(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z + j)), yj);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(z + j), bj);
      }
    }
  }
  for (; m < n; ++m) {
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

void KadaneColumnsAvx2Striped(const uint8_t* const* cols, size_t len,
                              size_t n, int32_t* z) {
  // Stripe-outer: a pair of model stripes walks every position with y and
  // b pinned in registers — zero state traffic, so the cost per position
  // is the y-recurrence dependency chain (add + max), overlapped across
  // the two independent stripes. Only dispatched when the transposed
  // tables fit in cache (see SignatureKadaneDense): the strided column
  // reads then stay cache hits, and the position-outer kernel's
  // per-position state stores would be the bottleneck instead.
  constexpr size_t kI16MaxLen =
      32767 / static_cast<size_t>(FrozenBank::kSignaturePosLevels);  // 171
  size_t m = 0;
  if (len <= kI16MaxLen) {
    const __m256i zp = _mm256_set1_epi16(FrozenBank::kSignatureZeroPoint);
    for (; m + 32 <= n; m += 32) {
      __m256i y0 = _mm256_sub_epi16(
          _mm256_cvtepu8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(cols[0] + m))),
          zp);
      __m256i y1 = _mm256_sub_epi16(
          _mm256_cvtepu8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(cols[0] + m + 16))),
          zp);
      __m256i b0 = y0;
      __m256i b1 = y1;
      for (size_t i = 1; i < len; ++i) {
        const uint8_t* col = cols[i] + m;
        const __m256i x0 = _mm256_sub_epi16(
            _mm256_cvtepu8_epi16(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(col))),
            zp);
        const __m256i x1 = _mm256_sub_epi16(
            _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(col + 16))),
            zp);
        y0 = _mm256_max_epi16(_mm256_add_epi16(y0, x0), x0);
        y1 = _mm256_max_epi16(_mm256_add_epi16(y1, x1), x1);
        b0 = _mm256_max_epi16(b0, y0);
        b1 = _mm256_max_epi16(b1, y1);
      }
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(z + m),
          _mm256_cvtepi16_epi32(_mm256_castsi256_si128(b0)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(z + m + 8),
          _mm256_cvtepi16_epi32(_mm256_extracti128_si256(b0, 1)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(z + m + 16),
          _mm256_cvtepi16_epi32(_mm256_castsi256_si128(b1)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(z + m + 24),
          _mm256_cvtepi16_epi32(_mm256_extracti128_si256(b1, 1)));
    }
  } else {
    const __m256i zp = _mm256_set1_epi32(FrozenBank::kSignatureZeroPoint);
    for (; m + 16 <= n; m += 16) {
      __m256i y0 = _mm256_sub_epi32(
          _mm256_cvtepu8_epi32(_mm_loadl_epi64(
              reinterpret_cast<const __m128i*>(cols[0] + m))),
          zp);
      __m256i y1 = _mm256_sub_epi32(
          _mm256_cvtepu8_epi32(_mm_loadl_epi64(
              reinterpret_cast<const __m128i*>(cols[0] + m + 8))),
          zp);
      __m256i b0 = y0;
      __m256i b1 = y1;
      for (size_t i = 1; i < len; ++i) {
        const uint8_t* col = cols[i] + m;
        const __m256i x0 = _mm256_sub_epi32(
            _mm256_cvtepu8_epi32(
                _mm_loadl_epi64(reinterpret_cast<const __m128i*>(col))),
            zp);
        const __m256i x1 = _mm256_sub_epi32(
            _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i*>(col + 8))),
            zp);
        y0 = _mm256_max_epi32(_mm256_add_epi32(y0, x0), x0);
        y1 = _mm256_max_epi32(_mm256_add_epi32(y1, x1), x1);
        b0 = _mm256_max_epi32(b0, y0);
        b1 = _mm256_max_epi32(b1, y1);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(z + m), b0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(z + m + 8), b1);
    }
  }
  for (; m < n; ++m) {
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
}  // namespace cluseq

#endif  // CLUSEQ_HAVE_AVX2
