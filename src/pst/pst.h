// Probabilistic suffix tree (PST), the per-cluster statistical summary of
// CLUSEQ (paper §3).
//
// The PST is a trie over *reversed* contexts: the root's children are the
// possible last symbols of a context, their children the second-to-last, and
// so on. For a node whose label (read leaf-to-root) is the segment σ', the
// node stores
//   * C(σ'): the number of positions in the cluster's training text where σ'
//     occurs immediately before some next symbol, and
//   * N(σ', s): how often symbol s is that next symbol,
// so the empirical CPD is P(s | σ') = N(σ', s) / C(σ') and Σ_s P(s|σ') = 1.
// The root's count is the total number of symbols inserted (the paper's
// "overall size of the sequence cluster").
//
// Construction counts every position of a sequence with all its contexts up
// to a bounded depth L (`max_depth`), which is exactly the short-memory
// premise of the paper: no query ever looks at more than the last L symbols.
// There are two construction paths, and both produce the same tree:
//   * InsertSequences (and Build, which is Clear() followed by it, reusing
//     the old storage) adds a batch of segments in bulk. The result is
//     exactly what InsertSequence of each segment in order would give,
//     down to the node ids, list order, NumNodes() and ApproxMemoryBytes().
//     Instead of walking pointers it stably partitions the new positions by
//     context symbol, one depth at a time, one task per root subtree (a
//     position's last context symbol). While a range's context is already
//     in the tree, its node takes the range's count and next symbols, and
//     a list that outgrows its block moves to a fresh one. Below the
//     existing tree the loop creates a node at the first position whose
//     context reaches it, and under a stable partition that is the first
//     position of the node's range, so a first pass counts the nodes each
//     position creates, a prefix sum from NumNodes() turns the counts into
//     each position's first id, and a second pass writes every node and
//     list in place. Scratch memory is O(new positions); the result does
//     not depend on the thread count. The per-iteration rebuild, the
//     join's absorbs and checkpoint resume use it.
//   * InsertSequence adds one sequence, walking each position's context
//     from the root (O(l · L) for length l). Seeding, §4.2 within-scan
//     joins and trained-once trees use it, and the bulk path falls back to
//     it under a memory budget (§5.1 pruning depends on insertion order),
//     after pruning has left reusable node ids, and for symbols outside
//     the alphabet or batches past uint32 offsets.
//
// Querying P(s_i | s_1…s_{i-1}) walks from the root along s_{i-1}, s_{i-2},…
// while the next node exists and is *significant* (count ≥ c); the node
// reached is the prediction node — the longest significant suffix of the
// context (paper §3, two-step procedure).
//
// Memory management (paper §5.1): the tree tracks an approximate byte size;
// when it exceeds `max_memory_bytes` leaves are pruned by one of the three
// strategies from the paper (smallest count first, longest label first,
// most-expected probability vector first). The size is a fixed cost model,
// not a measurement: 72 B per node, 8 B per child entry and 16 B per
// next-symbol entry, so a budget prunes the same nodes on every build.
// ArenaBytes() reports what the storage below really holds.
//
// Layout: every node is a trivially copyable record in one `nodes_` arena,
// addressed by PstNodeId. A node's two sorted association lists — children
// (symbol, child id) and next-symbol counts (symbol, count) — live in two
// pools, each carved into power-of-two blocks with one free list per block
// size. A list that fills moves to a block twice its size and returns the
// old block to its free list. Clear() keeps every buffer's capacity, so a
// tree rebuilt each iteration reuses the previous build's memory, and
// dropping a tree frees a handful of buffers whatever its size. Removed
// node ids are reused LIFO.
//
// Probability smoothing (paper §5.2): with `smoothing_p_min` > 0, queried
// probabilities are adjusted as P̂ = (1 − n·p_min)·P + p_min so no symbol is
// ever impossible. The adjustment is applied on the fly, never stored.

#ifndef CLUSEQ_PST_PST_H_
#define CLUSEQ_PST_PST_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "seq/alphabet.h"
#include "seq/sequence.h"
#include "util/status.h"

namespace cluseq {

/// Index of a node inside a Pst's arena.
using PstNodeId = uint32_t;
inline constexpr PstNodeId kNoPstNode =
    std::numeric_limits<PstNodeId>::max();
inline constexpr PstNodeId kPstRoot = 0;

/// Leaf-pruning strategies of paper §5.1.
enum class PruneStrategy {
  kSmallestCountFirst,   ///< Strategy 1: prune lowest-count leaves.
  kLongestLabelFirst,    ///< Strategy 2: prune deepest leaves.
  kExpectedVectorFirst,  ///< Strategy 3: prune insignificant leaves first,
                         ///< then significant leaves whose CPD is closest to
                         ///< their parent's (least information lost).
};

struct PstOptions {
  /// Maximum context length L retained in the tree (short-memory bound).
  size_t max_depth = 12;

  /// Significance threshold c: a node is significant iff count >= c.
  /// The paper's rule of thumb is c >= 30.
  uint64_t significance_threshold = 30;

  /// Per-tree memory budget in (approximate) bytes; 0 disables pruning.
  size_t max_memory_bytes = 0;

  /// Which leaves go first when over budget.
  PruneStrategy prune_strategy = PruneStrategy::kSmallestCountFirst;

  /// p_min of the adjusted probability estimation (§5.2); 0 disables
  /// smoothing (raw empirical probabilities, possibly zero).
  double smoothing_p_min = 1e-4;

  /// Validates parameter ranges.
  Status Validate() const;
};

/// Aggregate statistics for inspection and the bench harnesses.
struct PstStats {
  size_t num_nodes = 0;
  size_t num_significant_nodes = 0;
  size_t max_depth = 0;
  size_t approx_bytes = 0;
  uint64_t total_symbols = 0;  ///< Root count.
  /// nodes_per_depth[d] = live nodes whose context length is d.
  std::vector<size_t> nodes_per_depth;
};

/// One row of Pst::TopContexts: a context, its count, and its CPD mode.
struct PstContextInfo {
  std::vector<SymbolId> context;  ///< Natural-order label.
  uint64_t count = 0;
  SymbolId most_likely_next = kInvalidSymbol;
  double most_likely_probability = 0.0;
};

class Pst {
 public:
  /// Creates an empty tree (root only) over an alphabet of `alphabet_size`
  /// distinct symbols.
  Pst(size_t alphabet_size, PstOptions options);

  Pst(const Pst&) = default;
  Pst& operator=(const Pst&) = default;
  Pst(Pst&&) = default;
  Pst& operator=(Pst&&) = default;

  /// Inserts every position of `symbols` with all contexts up to max_depth.
  /// May trigger pruning afterwards if a memory budget is set.
  void InsertSequence(std::span<const SymbolId> symbols);
  void InsertSequence(const Sequence& seq) {
    InsertSequence(std::span<const SymbolId>(seq.symbols()));
  }

  /// Adds `segments` exactly as InsertSequence of each, in order, would:
  /// the same node ids, parents, edges, depths, counts, children and
  /// next-symbol lists, NumNodes(), ApproxMemoryBytes() and metrics
  /// counters. Runs on up to `num_threads` workers (0 = all); the result
  /// does not depend on the count.
  void InsertSequences(std::span<const std::span<const SymbolId>> segments,
                       size_t num_threads);

  /// Clear() followed by InsertSequences(segments, num_threads), reusing
  /// the tree's storage without resetting it.
  void Build(std::span<const std::span<const SymbolId>> segments,
             size_t num_threads);

  /// Finds the prediction node of `context` (the node whose label is the
  /// longest significant suffix of the context). Always succeeds; the root
  /// is the ultimate fallback.
  PstNodeId PredictionNode(std::span<const SymbolId> context) const;

  /// Like PredictionNode but walks at most the deepest *existing* suffix
  /// regardless of significance (used by tests and pruning analysis).
  PstNodeId DeepestExistingNode(std::span<const SymbolId> context) const;

  /// Conditional probability P(next | context) via the prediction node,
  /// smoothed per options. Returns a value in (0, 1] when smoothing is on.
  double ConditionalProbability(std::span<const SymbolId> context,
                                SymbolId next) const;

  /// Natural log of ConditionalProbability. -inf only when smoothing is off
  /// and the empirical probability is zero.
  double LogConditionalProbability(std::span<const SymbolId> context,
                                   SymbolId next) const;

  /// Raw (optionally smoothed) probability of `next` at a specific node.
  double NodeProbability(PstNodeId id, SymbolId next) const;

  /// log P_S(σ): sum of log conditional probabilities over the whole string
  /// (each position conditioned on its preceding context).
  double LogSequenceProbability(std::span<const SymbolId> symbols) const;

  // --- Node accessors -------------------------------------------------

  uint64_t NodeCount(PstNodeId id) const { return nodes_[id].count; }
  size_t NodeDepth(PstNodeId id) const { return nodes_[id].depth; }
  bool IsSignificant(PstNodeId id) const {
    return nodes_[id].count >= options_.significance_threshold;
  }

  /// Child of `id` along `symbol` (one more symbol of *preceding* context),
  /// or kNoPstNode.
  PstNodeId Child(PstNodeId id, SymbolId symbol) const;

  /// All (symbol, child) pairs of a node, sorted by symbol. The view is
  /// invalidated by any change to the tree.
  std::span<const std::pair<SymbolId, PstNodeId>> Children(PstNodeId id) const;

  /// The node's label in natural (un-reversed) order, i.e. the context
  /// segment the node represents. Root → empty.
  std::vector<SymbolId> NodeLabel(PstNodeId id) const;

  /// Next-symbol count N(label, s) at a node.
  uint64_t NextCount(PstNodeId id, SymbolId s) const;

  // --- Maintenance ----------------------------------------------------

  /// Prunes leaves until the approximate size is within `target_bytes`
  /// (pass 0 to use options().max_memory_bytes). No-op when under budget.
  void PruneToBudget(size_t target_bytes = 0);

  /// Adds every count of `other` into this tree (union of contexts, summed
  /// counts and CPD vectors). Both trees must share the alphabet size; the
  /// shallower max_depth wins for contexts deeper than this tree's bound.
  /// Useful for merging cluster summaries.
  Status MergeFrom(const Pst& other);

  /// The `limit` highest-count contexts of length >= 1 (ties broken by
  /// shorter context first), with their CPD mode — a human-readable view of
  /// what the tree considers the cluster's signature.
  std::vector<PstContextInfo> TopContexts(size_t limit) const;

  /// Removes all nodes except the root and resets counts.
  void Clear();

  PstStats Stats() const;
  /// The §5.1 cost model that memory budgets are checked against.
  size_t ApproxMemoryBytes() const { return approx_bytes_; }
  /// Bytes the tree's buffers actually reserve: the node arena, both list
  /// pools and the free lists, counted by capacity.
  size_t ArenaBytes() const;
  size_t alphabet_size() const { return alphabet_size_; }
  const PstOptions& options() const { return options_; }
  uint64_t total_symbols() const { return nodes_[kPstRoot].count; }

  /// Number of live (non-tombstoned) nodes, including the root.
  size_t NumNodes() const { return live_nodes_; }

 private:
  using ChildEntry = std::pair<SymbolId, PstNodeId>;
  using NextEntry = std::pair<SymbolId, uint64_t>;

  // Leaves the elements a vector grows by unconstructed (the storage's
  // elements are all trivially copyable), so resizing for the bulk path
  // does not write, and fault in, every new page on one thread: the
  // workers that fill the elements do.
  template <typename T>
  struct UninitializedAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = UninitializedAllocator<U>;
    };
    UninitializedAllocator() = default;
    template <typename U>
    UninitializedAllocator(const UninitializedAllocator<U>&) {}
    template <typename U>
    void construct(U*) {}
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  template <typename T>
  using Storage = std::vector<T, UninitializedAllocator<T>>;

  // A sorted association list in a ListPool: `size` entries from slot `at`,
  // inside a block of bit_ceil(size) slots (no block while empty).
  struct ListRef {
    uint32_t at = 0;
    uint32_t size = 0;
  };

  // Slots for one kind of association list, carved into power-of-two
  // blocks; free_[k] holds the offsets of unused blocks of 2^k slots.
  template <typename Entry>
  class ListPool {
   public:
    std::span<const Entry> View(ListRef list) const {
      return {slots_.data() + list.at, list.size};
    }
    std::span<Entry> View(ListRef list) {
      return {slots_.data() + list.at, list.size};
    }
    // Inserts `entry` at position `pos`, moving a full list to a block of
    // twice its size.
    void Insert(ListRef& list, size_t pos, Entry entry);
    // Removes the entry at `pos`; a list down to half its block hands the
    // upper half back.
    void Erase(ListRef& list, size_t pos);
    // Returns the list's block and empties it.
    void Release(ListRef& list);
    // Drops every block, keeping capacity.
    void Clear();
    // Appends `size` slots, with stale contents, for a bulk insert to carve
    // into blocks and fill itself, and returns the first. With `reset`,
    // every block is dropped first and the old slots are reused as they
    // are.
    uint32_t Extend(size_t size, bool reset);
    std::span<Entry> Slots() { return slots_; }
    // Puts a block of `capacity` slots on its free list.
    void Free(uint32_t at, uint32_t capacity);
    size_t CapacityBytes() const;

   private:
    uint32_t Allocate(uint32_t capacity);

    Storage<Entry> slots_;
    std::vector<std::vector<uint32_t>> free_;
  };

  struct Node {
    uint64_t count = 0;
    PstNodeId parent = kNoPstNode;
    SymbolId edge_symbol = kInvalidSymbol;
    uint32_t depth = 0;
    bool dead = false;
    ListRef children;  // In children_, sorted by symbol.
    ListRef next;      // In next_, sorted by symbol.
  };

  // The bulk path's two partition passes (pst.cc).
  class BulkBuilder;

  // Runs the bulk path, first clearing the tree if `replace`. False, with
  // the tree untouched, when the segments must take the insertion loop.
  bool InsertInBulk(std::span<const std::span<const SymbolId>> segments,
                    size_t num_threads, bool replace);

  std::span<const NextEntry> Next(const Node& node) const {
    return next_.View(node.next);
  }
  PstNodeId GetOrCreateChild(PstNodeId id, SymbolId symbol);
  void AddNext(PstNodeId id, SymbolId s, uint64_t n);
  void RemoveLeaf(PstNodeId id);
  double PruneScore(const Node& node) const;
  // L1 distance between a node's CPD and its parent's (strategy 3).
  double CpdDistanceToParent(const Node& node) const;

  size_t alphabet_size_;
  PstOptions options_;
  Storage<Node> nodes_;
  std::vector<PstNodeId> free_list_;
  ListPool<ChildEntry> children_;
  ListPool<NextEntry> next_;
  size_t approx_bytes_ = 0;
  size_t live_nodes_ = 1;
};

}  // namespace cluseq

#endif  // CLUSEQ_PST_PST_H_
