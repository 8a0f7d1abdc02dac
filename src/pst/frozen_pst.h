// FrozenPst: an immutable, cache-friendly compilation of a trained Pst.
//
// A live Pst is a mutable trie: querying P(s | context) walks from the root
// along the reversed context, chasing per-node heap vectors — O(L) pointer
// hops per position, repeated from scratch at every position of every
// scored sequence. Within one scoring pass, however, the tree is read-only,
// and the short-memory/context-tree literature treats such a model as a
// *finite-state automaton*: the prediction node for position i+1 is
// reachable from position i's state in amortized O(1).
//
// FrozenPst compiles exactly that automaton:
//
//   * States are the live trie's nodes whose whole suffix chain is
//     significant (count >= c) — the only nodes a prediction walk can land
//     on (paper §3) — plus, when pruning or merging has removed
//     intermediate history, a small set of *closure* states. An
//     insignificant node and its subtree would only repeat the row of
//     their deepest significant ancestor, so they get no state: the
//     automaton grows with the significant contexts, not with the trie.
//     The tracked labels are suffix-closed by construction (every trie
//     ancestor of a node is a suffix of its label), and in an unpruned tree
//     also closed under dropping the *most recent* symbol (a context's
//     count is at most its prefix's). Budget pruning can break the latter —
//     e.g. the tree may know context "ba" while "b" was pruned away. The
//     automaton needs the label set closed under both operations for its
//     transition function to be well-defined, so freezing completes the set
//     (closure states carry no counts of their own; they route transitions
//     and copy their parent's prediction row).
//   * Layout is a flat structure of arrays: states are numbered in
//     depth-major (BFS) order, and each state owns one contiguous row of
//     the transition table and one of the log-ratio table, so a scoring
//     walk reads adjacent cache lines instead of chasing per-node vectors.
//   * The transition Step(u, a) moves to the state of the longest tracked
//     suffix of `label(u)·a` — the suffix-link (failure) recurrence of
//     Aho-Corasick, specialized to reversed-context tries where the suffix
//     link of a node is simply its parent.
//   * Each state's log-ratio row is precomputed from its *prediction node*
//     (the longest suffix whose whole chain is significant — the node the
//     live walk would land on; for a live-backed state, its own node):
//     LogRatio(u, s) = log P̂(s | ctx(u)) − log p(s), with smoothing
//     applied exactly as in Pst::NodeProbability. The similarity DP's X_i
//     becomes a single table load.
//
// Scoring a sequence is then a linear automaton scan:
//
//   FrozenPst::State st = FrozenPst::kRootState;
//   for (SymbolId s : symbols) {
//     x = frozen.LogRatio(st, s);   // log [P̂(s|ctx) / p(s)]
//     st = frozen.Step(st, s);      // absorb s into the context
//   }
//
// Compiling without a tree: FrozenPst::Compile turns a list of segments
// straight into the snapshot FrozenPst(tree) would give for the tree that
// Pst::Build makes of them, byte for byte, with no live tree. It stably
// partitions the positions by their next older context symbol, one root
// subtree per worker, like Build, but descends only into ranges of at
// least c positions: a range's size is its context's count, and a longer
// context never counts more, so every other range holds no state. Each
// state's row comes from its range's next-symbol counts through
// Pst::Probability, the arithmetic of Pst::NodeProbability. Cost and
// scratch memory scale with the positions and the significant contexts,
// not with the trie: the synthetic corpus at depth 12 and c = 30 has 4 804
// states against 2.5 M tree nodes. Batch-mode clusters without a memory
// budget keep only their segments and compile their snapshots this way
// (core/cluster.h).
//
// Equivalence: for any Pst (including post-PruneToBudget and merged trees)
// the scan produces bit-for-bit the same per-position log ratios as the
// live root-walk path; tests/frozen_pst_equivalence_test.cc holds the
// property. The BackgroundModel's log p(s) is baked into the tables, so a
// frozen model is a self-contained scoring artifact; FrozenBank bundles k
// of them, and the .fbank file (pst/bank_serialization.h) persists that.

#ifndef CLUSEQ_PST_FROZEN_PST_H_
#define CLUSEQ_PST_FROZEN_PST_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "pst/pst.h"
#include "seq/background_model.h"

namespace cluseq {

class FrozenPst {
 public:
  /// Automaton state: an index into the flat state tables.
  using State = uint32_t;

  /// The root state (empty context). State numbering is depth-major, so the
  /// root is always state 0.
  static constexpr State kRootState = 0;

  /// Empty (unusable) instance; meaningful only as a move-assignment target
  /// or container element.
  FrozenPst() = default;

  /// Compiles `pst` + `background` into scoring shape. Both must share the
  /// alphabet; the inputs are only read during construction and may be
  /// destroyed or mutated afterwards.
  FrozenPst(const Pst& pst, const BackgroundModel& background);

  /// FrozenPst(tree, background) for the tree that a Pst(alphabet_size,
  /// options) gets from Build(segments), without building it: the same
  /// states, tables and derived maxima, byte for byte. Runs on up to
  /// `num_threads` workers (0 = all); the result does not depend on the
  /// count. Under a memory budget (whose §5.1 pruning depends on insertion
  /// order), for symbols outside the alphabet and for texts past uint32
  /// offsets it builds the tree and freezes it.
  static FrozenPst Compile(std::span<const std::span<const SymbolId>> segments,
                           size_t alphabet_size, const PstOptions& options,
                           const BackgroundModel& background,
                           size_t num_threads);

  FrozenPst(const FrozenPst&) = default;
  FrozenPst& operator=(const FrozenPst&) = default;
  FrozenPst(FrozenPst&&) = default;
  FrozenPst& operator=(FrozenPst&&) = default;

  /// Consumes one symbol of context: the state of the longest tracked
  /// suffix of ctx(state)·symbol. O(1): one table load.
  State Step(State state, SymbolId symbol) const {
    return next_[static_cast<size_t>(state) * alphabet_size_ + symbol];
  }

  /// log [P̂(symbol | ctx(state)) / p(symbol)], the similarity DP's X term.
  /// -inf only when smoothing is off and the empirical probability is zero.
  double LogRatio(State state, SymbolId symbol) const {
    return log_ratio_[static_cast<size_t>(state) * alphabet_size_ + symbol];
  }

  /// Context length represented by a state.
  size_t StateDepth(State state) const { return depth_[state]; }

  size_t num_states() const { return depth_.size(); }
  size_t alphabet_size() const { return alphabet_size_; }
  /// Context length bound L inherited from the source tree.
  size_t max_depth() const { return max_depth_; }
  bool empty() const { return depth_.empty(); }

  /// Bytes held by the flat tables (the dominant cost). Reports size(), not
  /// capacity(): the tables are written once at freeze time and never grow,
  /// so capacity slack from construction is transient allocator detail, not
  /// model footprint (capacity() over-reported after vector growth).
  size_t ApproxMemoryBytes() const {
    return next_.size() * sizeof(State) +
           log_ratio_.size() * sizeof(double) +
           depth_.size() * sizeof(uint32_t);
  }

  /// Raw state-major tables — one row of alphabet_size() entries per state.
  /// Read-only views for engines that repack the model (FrozenBank) or
  /// serialize it; entry [state * alphabet_size + s] corresponds to
  /// Step(state, s) / LogRatio(state, s).
  std::span<const State> transition_table() const { return next_; }
  std::span<const double> log_ratio_table() const { return log_ratio_; }

  /// max over all states u of LogRatio(u, s) — the tightest per-symbol cap
  /// on the similarity DP's X term that holds regardless of context.
  /// Precomputed at freeze time; the prefilter's admissible upper bounds
  /// (see core/prefilter.h) are built from these. -inf entries mean the
  /// model can never emit the symbol (smoothing off, zero counts).
  std::span<const double> max_symbol_log_ratio() const {
    return max_symbol_log_ratio_;
  }

  /// max over (state, symbol) of LogRatio — caps any single per-position
  /// term. Equal to max over max_symbol_log_ratio().
  double max_log_ratio() const { return max_log_ratio_; }

 private:
  // Compile's partition and emission passes (frozen_pst.cc).
  class Compiler;

  /// Fills next_ from each state's parent state and edge (the oldest symbol
  /// of its label), with depth_ set and states numbered depth-major.
  /// `child(q, e)` is the state whose label is label(q) extended by the
  /// older symbol e, or kNoState.
  template <typename ChildOf>
  void FillTransitions(std::span<const State> parent,
                       std::span<const SymbolId> edge, ChildOf child);

  /// Rebuilds max_symbol_log_ratio_/max_log_ratio_ from log_ratio_ and
  /// counts the snapshot in the metrics. Called at the end of freezing.
  void ComputeDerived();

  size_t alphabet_size_ = 0;
  size_t max_depth_ = 0;
  // Flat state-major tables, one row of `alphabet_size_` entries per state.
  std::vector<State> next_;
  std::vector<double> log_ratio_;
  // Per-state context length (suffix-link construction, diagnostics).
  std::vector<uint32_t> depth_;
  // Derived bound metadata (see accessors above).
  std::vector<double> max_symbol_log_ratio_;
  double max_log_ratio_ = -std::numeric_limits<double>::infinity();
};

}  // namespace cluseq

#endif  // CLUSEQ_PST_FROZEN_PST_H_
