// Sequence-to-cluster similarity (paper §2 and §4.3).
//
// The similarity of a sequence σ = s_1…s_l to a cluster S is
//     SIM_S(σ) = max over segments s_j…s_i of
//                Π_{p=j..i} P_S(s_p | s_1…s_{p-1}) / p(s_p),
// the best likelihood ratio of any contiguous segment against the memoryless
// background model. Each position's conditional probability is looked up at
// the prediction node of its full preceding context (the CPD "carries
// through" segment boundaries, exactly as in the paper's Table 1 example).
//
// Computation is the single-scan dynamic program of §4.3:
//     X_i = P_S(s_i | s_1…s_{i-1}) / p(s_i)
//     Y_i = max(Y_{i-1} · X_i, X_i)      (best segment ending at i)
//     Z_i = max(Z_{i-1}, Y_i)            (best segment ending ≤ i)
// run in log space: the paper multiplies raw ratios, which over- or
// under-flows IEEE doubles within a few hundred positions, so we work with
// log X_i and report log SIM. Thresholds compare as log SIM ≥ log t.

#ifndef CLUSEQ_CORE_SIMILARITY_H_
#define CLUSEQ_CORE_SIMILARITY_H_

#include <cstddef>
#include <span>

#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
#include "seq/sequence.h"
#include "seq/sequence_store.h"

namespace cluseq {

struct SimilarityResult {
  /// log SIM_S(σ); -inf for an empty sequence.
  double log_sim = 0.0;
  /// Maximizing segment [begin, end) of σ.
  size_t best_begin = 0;
  size_t best_end = 0;

  bool Exceeds(double log_threshold) const { return log_sim >= log_threshold; }
};

/// log X_i = log [P̂(s_i | s_1…s_{i-1}) / p(s_i)], the per-position term of
/// the §4.3 recurrences. Shared by the DP, the brute-force reference, and
/// the threshold estimator so the paths cannot drift apart.
double ContextLogRatio(const Pst& pst, const BackgroundModel& background,
                       std::span<const SymbolId> symbols, size_t i);

/// Computes SIM between `symbols` and the cluster summarized by `pst`,
/// with `background` supplying the memoryless p(s) probabilities.
/// O(l · L) where L is the PST depth bound: every position re-walks the
/// trie from the root. Reference path; prefer the FrozenPst overload on
/// any hot loop.
SimilarityResult ComputeSimilarity(const Pst& pst,
                                   const BackgroundModel& background,
                                   std::span<const SymbolId> symbols);

inline SimilarityResult ComputeSimilarity(const Pst& pst,
                                          const BackgroundModel& background,
                                          const Sequence& seq) {
  return ComputeSimilarity(pst, background,
                           std::span<const SymbolId>(seq.symbols()));
}

/// Same DP over a compiled scoring snapshot: an O(l) automaton scan with
/// amortized O(1) per symbol (one transition + one table load), no root
/// walks. The background ratios are baked into the snapshot. Produces
/// bit-for-bit the results of the live overload on the frozen tree.
SimilarityResult ComputeSimilarity(const FrozenPst& pst,
                                   std::span<const SymbolId> symbols);

inline SimilarityResult ComputeSimilarity(const FrozenPst& pst,
                                          const Sequence& seq) {
  return ComputeSimilarity(pst, std::span<const SymbolId>(seq.symbols()));
}

/// out[j] = ComputeSimilarity(pst, db.Symbols(seqs[j])) for every j, bit
/// for bit (log_sim, best_begin, best_end). One snapshot against many
/// sequences: a few sequences advance through the snapshot's tables in
/// lockstep, so their independent load chains overlap, and a lane whose
/// sequence ends takes the next one at once. The learn loop's re-cluster
/// scan and resegment pass score each cluster this way, tile by tile
/// (core/cluseq.cc).
void ComputeSimilarities(const FrozenPst& pst, const SequenceStore& db,
                         std::span<const size_t> seqs, SimilarityResult* out);

/// Reference O(l^2) implementation that evaluates every segment explicitly.
/// Used by tests to validate the DP; not for production use.
SimilarityResult ComputeSimilarityBruteForce(
    const Pst& pst, const BackgroundModel& background,
    std::span<const SymbolId> symbols);

}  // namespace cluseq

#endif  // CLUSEQ_CORE_SIMILARITY_H_
