// FrozenBank: k FrozenPst snapshots packed into one arena, scored in one
// pass.
//
// The bank serves the consumers that score one sequence against all k
// models: Classify() and the CLI's classify, streaming (OnlineScorer),
// seeding's screens and the initial-threshold estimate, and the `.fbank`
// file. The learn loop's re-cluster scan does not use it: that scan scores
// every sequence against every cluster (paper §4.2–4.3), so it runs
// cluster-major, each snapshot against chunks of sequences straight from
// its own tables (ComputeSimilarities, core/similarity.h), where one
// model's rows stay in a core's cache. For one sequence at a time, though,
// looping k snapshots serially reads the symbol stream k times, restarts
// k cold dependency chains, and re-faults each model's transition rows
// from scratch. The finite-memory classification literature treats
// multi-model scoring as k state machines advanced in lockstep over a
// single stream — which is exactly what this engine compiles:
//
//   * The bank packs every model's transition and log-ratio tables into one
//     arena of 16-byte entries with one entry offset per model. Arena entry
//     g = base[m] + state·A + s holds both the log-ratio X term and the
//     *next row offset* (stored model-local as next_state·A so a model's
//     rows are position-independent bytes) side by side, so one symbol step
//     touches a single cache line per model instead of one line in each of
//     two split arrays — the scan is memory-bound once the bank outgrows
//     L2, and this halves its miss traffic.
//   * ScanAll runs the §4.3 X/Y/Z recurrences for all k models interleaved:
//     the symbol stream is read once per model block, and each block's
//     per-symbol inner loop is a flat gather (x = entries_[row+s].ratio) +
//     add + two maxes over independent per-model lanes — no cross-model
//     dependency, so the chains pipeline and the loop vectorizes. An AVX2
//     path (4 models per vector, compiled under CLUSEQ_HAVE_AVX2 and
//     dispatched at runtime) sits on top of an always-available scalar
//     loop; both are bit-for-bit equivalent to per-cluster FrozenPst
//     scoring (tests/frozen_bank_equivalence_test.cc).
//   * Models are processed in cache-sized blocks: a block of B models keeps
//     ~B active (ratio,next) row pairs live between symbol steps, so B is
//     chosen to fit the hot rows in L1/L2 (see BlockModels).
//
// Incremental re-freeze: Assemble() compares each slot's snapshot pointer
// and arena offset against the previous layout and rewrites only the
// models that actually changed — an untouched cluster's rows are reused
// byte-identical in place, so re-targeting a bank at a model set that
// changed in a few slots rewrites only those slots' tables.
//
// Banks come into existence two ways: *assembled* from live FrozenPst
// snapshots (above), or *mapped* from a `.fbank` file
// (pst/bank_serialization.h) — the arena's 16-byte entries are
// position-independent bytes, so a validated file section can back
// ScanAll/StepAll directly from a read-only mmap with zero copying and
// page-cache sharing across worker processes. A mapped bank has no
// snapshot objects: model(m) is unavailable, and a later Assemble() call
// simply rebuilds an owned arena from scratch.

#ifndef CLUSEQ_PST_FROZEN_BANK_H_
#define CLUSEQ_PST_FROZEN_BANK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/similarity.h"
#include "pst/frozen_pst.h"
#include "seq/alphabet.h"

namespace cluseq {

class FrozenBank {
 public:
  /// One packed arena cell: the log-ratio X term for (state, symbol) and
  /// the successor state's model-local row offset (next_state · A),
  /// interleaved so a symbol step reads exactly one cache line. 16 bytes
  /// keeps entries line-aligned (a 64-byte line holds 4, never straddled);
  /// `pad` is always zero so rows compare byte-for-byte with memcmp.
  struct Entry {
    double ratio;
    uint32_t next;
    uint32_t pad;
  };
  static_assert(sizeof(Entry) == 16);

  struct AssembleStats {
    size_t models_written = 0;  ///< Slots whose arena rows were (re)written.
    size_t models_reused = 0;   ///< Slots left byte-identical in place.
  };

  /// Empty bank; Assemble() later, or use as a container element.
  FrozenBank() = default;

  /// Builds the arena from `models`. All snapshots must be non-empty and
  /// share one alphabet size (checked fatally). Snapshots are shared, not
  /// copied; they may be reused across banks, scorers and threads.
  explicit FrozenBank(std::vector<std::shared_ptr<const FrozenPst>> models) {
    Assemble(std::move(models));
  }

  /// Re-targets the bank at `models`, rewriting only the slots whose
  /// snapshot changed: a slot is reused in place when it holds the same
  /// snapshot object at the same arena offset as before (appending models
  /// or swapping one dirty cluster leaves every other model's rows
  /// untouched). Returns how many models were written vs reused.
  AssembleStats Assemble(std::vector<std::shared_ptr<const FrozenPst>> models);

  size_t num_models() const { return base_.size(); }
  size_t alphabet_size() const { return alphabet_size_; }
  bool empty() const { return base_.empty(); }
  /// Source snapshot of model `m`. Assembled banks only — a bank mapped
  /// from a .fbank file carries packed rows but no snapshot objects
  /// (has_snapshots() is false there).
  const FrozenPst& model(size_t m) const { return *models_[m]; }
  bool has_snapshots() const { return !models_.empty(); }
  /// Automaton states of model `m` (valid for assembled and mapped banks).
  size_t model_states(size_t m) const { return states_[m]; }
  /// True when the packed rows are served from an external mapping
  /// (a loaded .fbank) rather than the bank's own arena.
  bool mapped() const { return external_entries_ != nullptr; }

  /// Bytes held by the packed arena plus per-model bookkeeping (the
  /// snapshots themselves are shared and counted by their owners; a
  /// mapped bank's rows live in the file mapping and count as zero here).
  size_t ApproxMemoryBytes() const {
    return entries_.size() * sizeof(Entry) +
           base_.size() * (sizeof(size_t) + 2 * sizeof(uint32_t)) +
           models_.size() * sizeof(models_[0]);
  }

  /// Scores `symbols` against every model in one interleaved pass.
  /// `results` must have room for num_models() entries; results[m] is
  /// bit-for-bit ComputeSimilarity(model(m), symbols) — same log_sim double,
  /// same maximizing segment, including the -inf smoothing-off paths.
  void ScanAll(std::span<const SymbolId> symbols,
               SimilarityResult* results) const;

  std::vector<SimilarityResult> ScanAll(
      std::span<const SymbolId> symbols) const {
    std::vector<SimilarityResult> results(num_models());
    ScanAll(symbols, results.data());
    return results;
  }

  /// Sparse-candidate scan: scores only the models named in `candidates`
  /// (indices into [0, num_models())). `results[j]` corresponds to
  /// `candidates[j]` and is bit-for-bit the ScanAll result for that model.
  /// The prefilter (core/prefilter.h) calls this over the models whose
  /// admissible upper bounds survived levels 1 and 1.5, and for its
  /// exactness-restoring residual scans.
  void ScanCandidates(std::span<const SymbolId> symbols,
                      std::span<const uint32_t> candidates,
                      SimilarityResult* results) const;

  /// --- Admissible-bound signatures -------------------------------------
  /// Per-model caps on the §4.3 DP's X terms, maintained by Assemble (only
  /// rewritten slots are recomputed) and by the .fbank loader, so they are
  /// valid whenever the bank is non-empty. core/prefilter.h combines them
  /// with a sequence's context-code counts into upper bounds on log SIM.
  ///
  /// The context order is tiered: caps conditioned on the previous two
  /// symbols (trigram, order 3), the previous one (bigram, order 2), or
  /// none (unigram, order 1). The per-bank signature memory budget picks
  /// the deepest tier whose k·A^order tables fit; deeper context means a
  /// smaller reachable automaton image, hence tighter caps.

  enum class SignatureTier : uint8_t { kUnigram = 1, kBigram = 2,
                                       kTrigram = 3 };

  /// Default per-bank cap on signature-table bytes (model-major +
  /// transposed mirrors); tune with set_signature_budget_bytes. Sized for
  /// cache residency, not RAM fit: the dense bound pass streams the
  /// transposed tables once per scanned sequence, so a tier that spills
  /// to DRAM pays memory bandwidth per scan and scales worse than a
  /// shallower cache-resident tier with slightly looser caps (the Kadane
  /// bound has slack to spare — measured pruning stays >99.9% a tier
  /// down). 32 MiB keeps order-3 tables through k ≈ 1.4k models on a
  /// 20-letter alphabet and drops larger banks to order 2, whose tables
  /// stay comfortably inside L2/L3 into the tens of thousands of models.
  static constexpr size_t kDefaultSignatureBudgetBytes = 32ull << 20;

  /// Model-major caps are stored as round-up fixed-point int16 with this
  /// step: value = q / 256. Admissible by construction (quantization only
  /// rounds toward +inf), and saturation is unreachable — add-one
  /// smoothing keeps -log p(s) ≤ 64·ln 2 < 45, so every positive log-ratio
  /// is < 45 ≪ 32767/256, and negatives clamp *upward* to -128, which only
  /// loosens the bound.
  static constexpr double kSignatureQuantStep = 1.0 / 256.0;

  /// Bytes of signature tables an order-`order` tier costs for a k-model
  /// bank: model-major int16 caps + uint8 transposed mirror
  /// (k·A^order·(2 + 1)), plus the A-wide per-symbol tables. Public so
  /// tests and capacity planning share the exact cost model the tier
  /// choice uses.
  static double SignatureTierCostBytes(size_t k, size_t alphabet,
                                       size_t order);

  /// Sets the signature budget. Takes effect at the next Assemble (or
  /// .fbank load) — callers that change it on a live bank re-Assemble.
  void set_signature_budget_bytes(size_t bytes) {
    signature_budget_bytes_ = bytes;
  }
  size_t signature_budget_bytes() const { return signature_budget_bytes_; }

  SignatureTier signature_tier() const { return sig_tier_; }
  const char* signature_tier_name() const {
    switch (sig_tier_) {
      case SignatureTier::kTrigram: return "trigram";
      case SignatureTier::kBigram: return "bigram";
      case SignatureTier::kUnigram: return "unigram";
    }
    return "unknown";
  }
  /// Context order of the active tier (1, 2 or 3).
  size_t signature_order() const { return static_cast<size_t>(sig_tier_); }
  /// Number of distinct context codes: A^order. A code at position i packs
  /// the (order-1) preceding symbols and s_i, most significant first.
  size_t signature_code_space() const {
    size_t cs = alphabet_size_;
    for (size_t o = 1; o < signature_order(); ++o) cs *= alphabet_size_;
    return cs;
  }
  /// Leading positions not covered by context codes (they lack enough
  /// history); the bound caps them with the per-symbol maxima instead.
  size_t signature_lead_positions() const {
    return signature_order() <= 2 ? 1 : signature_order() - 1;
  }
  /// Per-symbol maxima: A entries, [a] = max over states of LogRatio(·, a).
  std::span<const double> signature_max_symbol(size_t m) const {
    return std::span<const double>(sig_maxsym_.data() + m * alphabet_size_,
                                   alphabet_size_);
  }

  /// Context caps of the active tier, model-major, unclamped, quantized to
  /// round-up kSignatureQuantStep fixed point (value = entry / 256):
  /// signature_code_space() entries per model. At order 2,
  /// [b·A + a] = max of LogRatio(v, a) over the image of Step(·, b); at
  /// order 3, [c·A² + b·A + a] maximizes over the two-step image of
  /// Step(Step(·, c), b). Admissible because the automaton state before
  /// consuming s_i always lies in the image of stepping on the preceding
  /// symbols, whatever the earlier state was, and rounding up only loosens
  /// the cap. At order 1 the entries are the quantized per-symbol maxima.
  std::span<const int16_t> signature_cap_q(size_t m) const {
    const size_t cs = signature_code_space();
    return std::span<const int16_t>(sig_cap_q_.data() + m * cs, cs);
  }

  /// Zero point of the signed offset-u8 transposed tables below: a stored
  /// byte e encodes the value (e − kSignatureZeroPoint) ·
  /// signature_quant_scale(). 191 levels cover the positive caps, 64 the
  /// negative side (anything below −64·scale clamps up to it — admissible,
  /// a window-breaker just breaks a little less hard).
  static constexpr int32_t kSignatureZeroPoint = 64;
  static constexpr int32_t kSignaturePosLevels = 255 - kSignatureZeroPoint;

  /// Bank-global scale of the offset-u8 transposed tables below:
  /// value = (entry − kSignatureZeroPoint) · signature_quant_scale().
  /// Recomputed per build from the largest positive cap, so the positive
  /// side of the 8-bit grid always covers the bank.
  double signature_quant_scale() const { return sig_scale8_; }

  /// Transposed, offset-u8-quantized mirrors of the signatures above, laid
  /// out code-major ([code][model]) so a per-sequence bound pass streams
  /// sequentially through all k models for each position instead of
  /// gathering one cap per model. Entries round the cap *up* onto the
  /// signed signature_quant_scale() grid — from the already-quantized
  /// model-major values, so (e − 64)·scale ≥ step·q16 ≥ cap holds
  /// entrywise. A NaN per-symbol maximum stores 255 (it must dominate any
  /// score the kernels can produce); −inf stores 0.
  std::span<const uint8_t> signature_pos_max_symbol_q(size_t symbol) const {
    return std::span<const uint8_t>(
        sig_maxsymt_q_.data() + symbol * num_models(), num_models());
  }
  std::span<const uint8_t> signature_pos_cap_q(size_t code) const {
    return std::span<const uint8_t>(sig_capt_q_.data() + code * num_models(),
                                    num_models());
  }

  /// Dense integer Kadane over the signed transposed columns — the
  /// prefilter's whole O(k) front. cols[i] is the k-wide column of
  /// position i (a signature_pos_* pointer); for every model,
  /// z[m] = max over nonempty windows [i..j] of Σ_p (cols[p][m] − 64),
  /// so z[m] · signature_quant_scale() dominates the §4.3 score on the
  /// quantized grid *including cap ordering*: caps that never chain into
  /// one window stop inflating the bound. Routed through the AVX2 kernel
  /// when available; exact either way — the recurrence is pure integer
  /// arithmetic (16-bit lanes while len·191 fits, 32-bit beyond), so
  /// kernel choice can never change a bound. len must be ≥ 1.
  void SignatureKadaneDense(const uint8_t* const* cols, size_t len,
                            int32_t* z) const;

  /// Streaming variant for online scoring: advances every model by one
  /// symbol. The arrays are parallel over models: `rows` holds each model's
  /// current row offset *local to the model* (state · alphabet_size; start
  /// streams at 0 — the root row — and keep the values across Assemble
  /// calls, they survive arena re-packs), `y`/`z` are the §4.3 running
  /// best-segment terms, `started` distinguishes "no symbol yet" from a
  /// restart. Bit-for-bit the per-model scalar DP step.
  void StepAll(SymbolId symbol, uint32_t* rows, double* y, double* z,
               uint8_t* started) const;

  /// Raw packed rows of model `m` (tests, diagnostics, .fbank
  /// serialization). `Entry::next` values are model-local row offsets
  /// (next_state · alphabet_size), not FrozenPst state ids.
  std::span<const Entry> Rows(size_t m) const {
    return std::span<const Entry>(scan_data() + base_[m], ModelEntries(m));
  }

  /// True when the AVX2 kernels are compiled in and this CPU supports them.
  static bool SimdAvailable();

  /// Forces the scalar kernels even when SIMD is available (equivalence
  /// tests, benchmark baselines).
  void set_force_scalar(bool force) { force_scalar_ = force; }
  bool force_scalar() const { return force_scalar_; }

 private:
  /// Contiguous Entry storage: a minimal vector<Entry> (resize preserves
  /// contents, which the incremental Assemble reuse depends on) whose large
  /// allocations are 2 MiB-aligned and advised as transparent-hugepage. A
  /// depth-6 bank of 64 models spans tens of MB and ScanAll's gathers touch
  /// it near-randomly, so 4 KiB pages thrash the dTLB and the scan pays a
  /// page walk per miss; 2 MiB pages cover the same arena with a few dozen
  /// TLB entries. Falls back to plain allocation when THP is unavailable.
  class EntryArena {
   public:
    EntryArena() = default;
    EntryArena(const EntryArena& other) { *this = other; }
    EntryArena& operator=(const EntryArena& other);
    EntryArena(EntryArena&& other) noexcept { *this = std::move(other); }
    EntryArena& operator=(EntryArena&& other) noexcept;
    ~EntryArena();

    Entry* data() { return data_; }
    const Entry* data() const { return data_; }
    size_t size() const { return size_; }
    const Entry& operator[](size_t i) const { return data_[i]; }
    /// Grows or shrinks to `n` entries, preserving the first
    /// min(n, size()) entries byte-for-byte. New entries are uninitialized:
    /// Assemble writes every slot it does not reuse.
    void resize(size_t n);

   private:
    Entry* data_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
  };

  friend class BankSerializer;  // .fbank save/load (pst/bank_serialization).

  size_t ModelEntries(size_t m) const {
    return static_cast<size_t>(states_[m]) * alphabet_size_;
  }
  /// Packed rows to scan: the owned arena, or the external (mmap) view
  /// installed by the .fbank loader.
  const Entry* scan_data() const {
    return external_entries_ != nullptr ? external_entries_ : entries_.data();
  }
  /// Models per block: the per-symbol inner loop keeps one active
  /// (ratio, next) row pair per model between reuses, so the block size is
  /// chosen to keep a block's hot rows L2-resident.
  size_t BlockModels() const;

  /// Bytes the signature tables of `order` would occupy for a k-model bank:
  /// Deepest tier whose tables fit signature_budget_bytes_ (per
  /// SignatureTierCostBytes); a pure function of (k, A, budget), so tier
  /// choice is deterministic and thread-count-invariant.
  SignatureTier SelectSignatureTier(size_t k, size_t alphabet) const;
  /// Recomputes model m's bound signature from its packed arena rows
  /// (works identically for assembled and mapped banks). The sig_ arrays
  /// must already be sized for the current layout and tier.
  void BuildSignature(size_t m);
  /// Sizes the sig_ arrays for the current layout and rebuilds every model
  /// (the .fbank load path, where nothing is reusable).
  void BuildAllSignatures();
  /// Rebuilds the u8 transposed tables from the per-model signatures.
  /// Must run after any signature refresh — the
  /// code-major layout interleaves all models, so slot reuse cannot keep
  /// transposed columns in place.
  void BuildTransposedSignatures();

  size_t alphabet_size_ = 0;
  /// Source snapshots (assembled banks; empty for mapped banks).
  std::vector<std::shared_ptr<const FrozenPst>> models_;
  /// Per-model automaton state counts — the layout ground truth shared by
  /// assembled and mapped banks (mapped banks have no snapshots to ask).
  std::vector<uint32_t> states_;
  /// Per-model entry offset into the arena (prefix sums of states × A).
  std::vector<size_t> base_;
  /// base_ as u32 for the kernels (total entries are checked small enough
  /// that the SIMD gathers' signed 32-bit *scaled* indices — up to
  /// 4·entry + 2 for the transition word — cannot overflow).
  std::vector<uint32_t> base32_;
  /// Packed rows: entry base[m] + state·A + s scores symbol s in `state`
  /// and names the successor row (see Entry). Empty in mapped mode.
  EntryArena entries_;
  /// Mapped mode: validated rows served from `external_storage_` (the
  /// .fbank mapping or buffer the loader keeps alive).
  const Entry* external_entries_ = nullptr;
  std::shared_ptr<const void> external_storage_;
  bool force_scalar_ = false;
  /// Bound signatures, parallel to base_: flat k·A per-symbol maxima
  /// (double — the level-1.5 DP wants the unquantized lead values), and
  /// flat k·A^order context caps in round-up kSignatureQuantStep fixed
  /// point. See the signature accessors above.
  std::vector<double> sig_maxsym_;
  std::vector<int16_t> sig_cap_q_;
  /// Code-major, signed offset-u8 transposes of the signatures on the
  /// shared sig_scale8_ grid (see the signature_pos_* accessors).
  /// Rebuilt wholesale after every signature refresh — O(k·A^order)
  /// integer writes, noise next to arena packing.
  std::vector<uint8_t> sig_maxsymt_q_;
  std::vector<uint8_t> sig_capt_q_;
  double sig_scale8_ = 1.0;
  SignatureTier sig_tier_ = SignatureTier::kUnigram;
  size_t signature_budget_bytes_ = kDefaultSignatureBudgetBytes;
};

namespace internal {

/// Upper bound on models interleaved per block (bounds the kernels' stack
/// state arrays).
inline constexpr size_t kMaxBlockModels = 64;

/// Scalar reference kernel: scores `num_models` (≤ kMaxBlockModels) models
/// over `symbols` in lockstep. `bases` are the models' arena entry offsets.
void ScanBlockScalar(const FrozenBank::Entry* entries, const uint32_t* bases,
                     size_t num_models, const SymbolId* symbols, size_t len,
                     SimilarityResult* out);

/// Dense signed Kadane over offset-u8 columns: for m < n,
/// z[m] = max over nonempty windows of Σ (cols[i][m] − 64) — the
/// prefilter's level-1 bound sweep. Pure integer arithmetic, so every
/// kernel variant is exactly equivalent.
void KadaneColumnsScalar(const uint8_t* const* cols, size_t len, size_t n,
                         int32_t* z);

#ifdef CLUSEQ_HAVE_AVX2
/// AVX2 kernel: same contract and bit-identical results, 4 models per
/// vector lane group, several groups interleaved per symbol (remainder
/// models fall through to the scalar loop).
void ScanBlockAvx2(const FrozenBank::Entry* entries, const uint32_t* bases,
                   size_t num_models, const SymbolId* symbols, size_t len,
                   SimilarityResult* out);

/// AVX2 KadaneColumnsScalar: 16 int16 lanes per step while len·191 fits
/// int16 (len ≤ 171), 8 int32 lanes beyond; identical results (exact
/// integer arithmetic in both widths, remainder models fall through to
/// the scalar loop). Position-outer loop order — streams each column
/// sequentially and keeps per-model state in thread-local buffers; the
/// right shape when the transposed tables exceed cache and every scan
/// pays their memory bandwidth.
void KadaneColumnsAvx2(const uint8_t* const* cols, size_t len, size_t n,
                       int32_t* z);

/// Stripe-outer sibling of KadaneColumnsAvx2 (identical results): two
/// interleaved model stripes walk all positions with the Kadane state
/// held entirely in registers, eliminating the position-outer kernel's
/// per-position state stores. Wins when the transposed tables are
/// cache-resident (store throughput, not memory bandwidth, is then the
/// bottleneck); loses prefetch-friendliness on spilling tables, so
/// SignatureKadaneDense dispatches on table size.
void KadaneColumnsAvx2Striped(const uint8_t* const* cols, size_t len,
                              size_t n, int32_t* z);
#endif  // CLUSEQ_HAVE_AVX2

}  // namespace internal

}  // namespace cluseq

#endif  // CLUSEQ_PST_FROZEN_BANK_H_
