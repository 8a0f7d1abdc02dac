#include "pst/pst.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace cluseq {

namespace {

obs::Counter& PrunedByStrategyCounter(PruneStrategy strategy) {
  static obs::Counter& smallest = obs::MetricsRegistry::Get().GetCounter(
      "pst.pruned.smallest_count_first");
  static obs::Counter& longest = obs::MetricsRegistry::Get().GetCounter(
      "pst.pruned.longest_label_first");
  static obs::Counter& expected = obs::MetricsRegistry::Get().GetCounter(
      "pst.pruned.expected_vector_first");
  switch (strategy) {
    case PruneStrategy::kSmallestCountFirst:
      return smallest;
    case PruneStrategy::kLongestLabelFirst:
      return longest;
    case PruneStrategy::kExpectedVectorFirst:
      return expected;
  }
  return smallest;
}

// §5.1 cost model: what a node and its list entries cost with one
// heap-allocated vector per list on x86-64. Fixed, so memory budgets prune
// the same nodes whatever the storage layout.
constexpr size_t kNodeBytes = 72;
constexpr size_t kChildEntryBytes = 8;
constexpr size_t kNextEntryBytes = 16;

// Resizes `v` to `size` elements, keeping the first `keep`; the others are
// for the caller to overwrite, so stale ones are not reset. Storage that is
// too small is replaced by twice as much, as growth by insertion would.
// When nothing is kept, the old buffer is released first, so the old and
// the new buffer are never both held.
template <typename Vector>
void ResizeKeeping(Vector& v, size_t keep, size_t size) {
  if (size > v.capacity()) {
    const size_t capacity = std::max(size, 2 * v.capacity());
    if (keep == 0) {
      Vector().swap(v);
    } else {
      v.resize(keep);
    }
    v.reserve(capacity);
  }
  v.resize(size);
}

// Position of the first entry whose symbol is >= `key` in a sorted list.
template <typename Entry>
size_t LowerBound(std::span<Entry> list, SymbolId key) {
  return static_cast<size_t>(
      std::lower_bound(list.begin(), list.end(), key,
                       [](const Entry& e, SymbolId k) { return e.first < k; }) -
      list.begin());
}

// The entry with symbol `key`, or nullptr.
template <typename Entry>
Entry* FindEntry(std::span<Entry> list, SymbolId key) {
  const size_t pos = LowerBound(list, key);
  return pos < list.size() && list[pos].first == key ? &list[pos] : nullptr;
}

}  // namespace

template <typename Entry>
uint32_t Pst::ListPool<Entry>::Allocate(uint32_t capacity) {
  const size_t k = static_cast<size_t>(std::countr_zero(capacity));
  if (k < free_.size() && !free_[k].empty()) {
    const uint32_t at = free_[k].back();
    free_[k].pop_back();
    return at;
  }
  const uint32_t at = static_cast<uint32_t>(slots_.size());
  slots_.resize(slots_.size() + capacity);
  return at;
}

template <typename Entry>
void Pst::ListPool<Entry>::Free(uint32_t at, uint32_t capacity) {
  const size_t k = static_cast<size_t>(std::countr_zero(capacity));
  if (free_.size() <= k) free_.resize(k + 1);
  free_[k].push_back(at);
}

template <typename Entry>
void Pst::ListPool<Entry>::Insert(ListRef& list, size_t pos, Entry entry) {
  if (list.size == 0 || std::has_single_bit(list.size)) {
    // Full (an empty list has no block): move to a block twice the size.
    const uint32_t at = Allocate(list.size == 0 ? 1 : 2 * list.size);
    Entry* dst = slots_.data() + at;
    const Entry* src = slots_.data() + list.at;
    std::copy(src, src + pos, dst);
    std::copy(src + pos, src + list.size, dst + pos + 1);
    if (list.size > 0) Free(list.at, list.size);
    list.at = at;
  } else {
    Entry* base = slots_.data() + list.at;
    std::copy_backward(base + pos, base + list.size, base + list.size + 1);
  }
  slots_[list.at + pos] = entry;
  ++list.size;
}

template <typename Entry>
void Pst::ListPool<Entry>::Erase(ListRef& list, size_t pos) {
  Entry* base = slots_.data() + list.at;
  std::copy(base + pos + 1, base + list.size, base + pos);
  --list.size;
  // Keep the block at bit_ceil(size) slots.
  if (list.size == 0) {
    Free(list.at, 1);
  } else if (std::has_single_bit(list.size)) {
    Free(list.at + list.size, list.size);
  }
}

template <typename Entry>
void Pst::ListPool<Entry>::Release(ListRef& list) {
  if (list.size > 0) Free(list.at, std::bit_ceil(list.size));
  list = ListRef();
}

template <typename Entry>
void Pst::ListPool<Entry>::Clear() {
  slots_.clear();
  for (auto& blocks : free_) blocks.clear();
}

template <typename Entry>
uint32_t Pst::ListPool<Entry>::Extend(size_t size, bool reset) {
  if (reset) {
    for (auto& blocks : free_) blocks.clear();
  }
  const size_t at = reset ? 0 : slots_.size();
  ResizeKeeping(slots_, at, at + size);
  return static_cast<uint32_t>(at);
}

template <typename Entry>
size_t Pst::ListPool<Entry>::CapacityBytes() const {
  size_t bytes = slots_.capacity() * sizeof(Entry) +
                 free_.capacity() * sizeof(free_[0]);
  for (const auto& blocks : free_) bytes += blocks.capacity() * sizeof(uint32_t);
  return bytes;
}

Status PstOptions::Validate() const {
  if (max_depth == 0) {
    return Status::InvalidArgument("max_depth must be >= 1");
  }
  if (significance_threshold == 0) {
    return Status::InvalidArgument("significance_threshold must be >= 1");
  }
  if (smoothing_p_min < 0.0 || smoothing_p_min >= 1.0) {
    return Status::InvalidArgument("smoothing_p_min must be in [0, 1)");
  }
  return Status::OK();
}

Pst::Pst(size_t alphabet_size, PstOptions options)
    : alphabet_size_(alphabet_size), options_(options) {
  // The smoothed probabilities must satisfy n * p_min < 1; clamp so even a
  // uniform CPD keeps (1 - n*p_min) positive.
  if (alphabet_size_ > 0 && options_.smoothing_p_min > 0.0) {
    options_.smoothing_p_min = std::min(
        options_.smoothing_p_min, 0.5 / static_cast<double>(alphabet_size_));
  }
  nodes_.push_back(Node());  // Root: empty label, depth 0.
  approx_bytes_ = kNodeBytes;
}

PstNodeId Pst::GetOrCreateChild(PstNodeId id, SymbolId symbol) {
  const auto children = Children(id);
  const size_t pos = LowerBound(children, symbol);
  if (pos < children.size() && children[pos].first == symbol) {
    return children[pos].second;
  }

  PstNodeId child_id;
  if (!free_list_.empty()) {
    child_id = free_list_.back();
    free_list_.pop_back();
    nodes_[child_id] = Node();
  } else {
    child_id = static_cast<PstNodeId>(nodes_.size());
    nodes_.push_back(Node());
  }
  Node& parent = nodes_[id];
  Node& child = nodes_[child_id];
  child.parent = id;
  child.edge_symbol = symbol;
  child.depth = parent.depth + 1;
  children_.Insert(parent.children, pos, {symbol, child_id});
  approx_bytes_ += kNodeBytes + kChildEntryBytes;
  ++live_nodes_;
  static obs::Counter& created =
      obs::MetricsRegistry::Get().GetCounter("pst.nodes_created");
  created.Increment();
  return child_id;
}

void Pst::AddNext(PstNodeId id, SymbolId s, uint64_t n) {
  Node& node = nodes_[id];
  const auto next = next_.View(node.next);
  const size_t pos = LowerBound(next, s);
  if (pos < next.size() && next[pos].first == s) {
    next[pos].second += n;
  } else {
    next_.Insert(node.next, pos, {s, n});
    approx_bytes_ += kNextEntryBytes;
  }
}

void Pst::InsertSequence(std::span<const SymbolId> symbols) {
  const size_t l = symbols.size();
  static obs::Counter& insert_symbols =
      obs::MetricsRegistry::Get().GetCounter("pst.insert_symbols");
  insert_symbols.Add(l);
  for (size_t i = 0; i < l; ++i) {
    const SymbolId next = symbols[i];
    PstNodeId cur = kPstRoot;
    ++nodes_[kPstRoot].count;
    AddNext(kPstRoot, next, 1);
    const size_t max_d = std::min(i, options_.max_depth);
    for (size_t d = 1; d <= max_d; ++d) {
      cur = GetOrCreateChild(cur, symbols[i - d]);
      ++nodes_[cur].count;
      AddNext(cur, next, 1);
    }
  }
  if (options_.max_memory_bytes > 0 &&
      approx_bytes_ > options_.max_memory_bytes) {
    PruneToBudget();
  }
}

namespace {

// Separates the segments in the bulk path's text: no context reaches past
// it.
constexpr SymbolId kBoundary = kInvalidSymbol;

// Below this many new positions the bulk path runs on the calling thread
// alone.
constexpr size_t kMinParallelPositions = size_t{1} << 12;

// Slots of the fresh block a list needs to grow from `size` to `grown`
// entries: none while they fit its own block of bit_ceil(size) slots.
size_t FreshSlots(size_t size, size_t grown) {
  const size_t capacity = size == 0 ? 0 : std::bit_ceil(size);
  return grown > capacity ? std::bit_ceil(grown) : 0;
}

// Multiset of symbols over a dense alphabet: counts plus the distinct
// symbols seen, so that a reset costs the number of distinct symbols.
class SymbolTally {
 public:
  explicit SymbolTally(size_t alphabet_size) : count_(alphabet_size, 0) {}

  void Add(SymbolId s) {
    if (count_[s]++ == 0) distinct_.push_back(s);
  }
  uint32_t Count(SymbolId s) const { return count_[s]; }
  size_t NumDistinct() const { return distinct_.size(); }
  // The distinct symbols in the order first seen.
  std::span<const SymbolId> Distinct() const { return distinct_; }
  // The distinct symbols in ascending order.
  std::span<const SymbolId> Sorted() {
    std::sort(distinct_.begin(), distinct_.end());
    return distinct_;
  }
  void Reset() {
    for (SymbolId s : distinct_) count_[s] = 0;
    distinct_.clear();
  }

 private:
  std::vector<uint32_t> count_;
  std::vector<SymbolId> distinct_;
};

}  // namespace

// The bulk path's state. The text holds every new segment after a
// kBoundary, so the context symbol of position p at depth d is text[p - d],
// and a context ends at the first boundary or at max_depth. A node's
// *range* is a run of `order_` holding the new positions whose context
// reaches the node. Pass 1 partitions each range stably by the next context
// symbol into the children's ranges, so when it reaches a range the
// positions are still in insertion order. A range whose node the tree
// already has only adds to that node: its count, its next symbols and any
// new children. Otherwise the range's first position is the one at which
// the insertion loop creates the node. Pass 2 finds the same ranges as runs
// of equal keys; partitioning has moved the creator there, but it is still
// the smallest position. New blocks, for new nodes' lists and for existing
// lists that outgrow their block, are carved from slots appended to the
// pools, one share per root subtree, so the workers write disjoint slots;
// the blocks moved lists leave go back to the free lists at the end.
class Pst::BulkBuilder {
 public:
  // With `replace`, the tree is cleared first, its storage kept for the
  // passes to overwrite.
  BulkBuilder(Pst* pst, std::vector<SymbolId> text, bool replace)
      : pst_(*pst),
        depth_(pst->options_.max_depth),
        replace_(replace),
        text_(std::move(text)),
        ids_(text_.size(), 0),
        root_next_(pst->alphabet_size_) {
    if (replace_) {
      pst_.nodes_[kPstRoot] = Node();
      pst_.free_list_.clear();
      pst_.live_nodes_ = 1;
      pst_.approx_bytes_ = kNodeBytes;
    }
    // The loop appends new nodes: no node ids are free here.
    base_id_ = replace_ ? kPstRoot + 1
                        : static_cast<PstNodeId>(pst_.nodes_.size());
  }

  void Run(size_t num_threads) {
    SplitRoot();
    const size_t threads =
        num_positions_ < kMinParallelPositions ? 1 : num_threads;
    const auto weight = [&](size_t i) -> uint64_t {
      return subtrees_[i].hi - subtrees_[i].lo;
    };
    ParallelForWeighted(subtrees_.size(), threads, weight,
                        [&](size_t i) { Partition(&subtrees_[i]); });
    PlaceRoot(AssignIds());
    ParallelForWeighted(subtrees_.size(), threads, weight,
                        [&](size_t i) { Emit(i); });
    FreeMovedBlocks();
  }

  uint64_t num_positions() const { return num_positions_; }
  size_t nodes_created() const { return num_nodes_ - base_id_; }

 private:
  // A block a moved list left behind.
  struct Block {
    uint32_t at;
    uint32_t capacity;
  };
  struct Freed {
    std::vector<Block> children;
    std::vector<Block> next;
  };
  // A depth-1 node: its range, its share of the fresh list blocks, and the
  // blocks its subtree's moved lists left.
  struct Subtree {
    SymbolId symbol = 0;
    uint32_t lo = 0;
    uint32_t hi = 0;
    PstNodeId node = kNoPstNode;  // Set if the tree has the node already.
    size_t child_slots = 0;  // Sized by pass 1...
    size_t next_slots = 0;
    size_t next_entries = 0;  // Next-symbol entries the subtree adds.
    size_t child_at = 0;  // ...and placed by PlaceRoot, with the slot of
    size_t next_at = 0;   // the root's children list that names a new node.
    size_t slot = 0;
    Freed freed{};
  };
  struct Range {
    uint32_t depth;
    uint32_t lo;
    uint32_t hi;
    PstNodeId node = kNoPstNode;  // Set if the tree has the node already.
    // Pass 2, for a new node: the parent, and the slot of its children
    // list that names this node.
    PstNodeId parent = kNoPstNode;
    size_t slot = 0;
  };
  // A child's range as pass 2 finds it, with what MergeChildren gives it:
  // the node if the tree has it, else the slot that names the new node.
  struct KeyRun {
    SymbolId key;
    uint32_t lo;
    uint32_t hi;
    PstNodeId node = kNoPstNode;
    size_t slot = 0;
  };

  SymbolId Key(uint32_t p, uint32_t depth) const {
    return text_[p - depth - 1];
  }

  // The root counts every position. Its children group the positions that
  // have a context symbol by that symbol, stably.
  void SplitRoot() {
    const size_t alphabet = pst_.alphabet_size_;
    std::vector<uint32_t> start(alphabet + 1, 0);
    for (uint32_t p = 1; p < text_.size(); ++p) {
      if (text_[p] == kBoundary) continue;
      ++num_positions_;
      root_next_.Add(text_[p]);
      if (text_[p - 1] != kBoundary) ++start[text_[p - 1] + 1];
    }
    const auto old = pst_.Children(kPstRoot);
    size_t j = 0;
    for (size_t s = 0; s < alphabet; ++s) {
      if (start[s + 1] > 0) {
        while (j < old.size() && old[j].first < s) ++j;
        subtrees_.push_back(
            {.symbol = static_cast<SymbolId>(s),
             .lo = start[s],
             .hi = start[s] + start[s + 1],
             .node = j < old.size() && old[j].first == s ? old[j].second
                                                         : kNoPstNode});
      }
      start[s + 1] += start[s];
    }
    order_.resize(start[alphabet]);
    scratch_.resize(order_.size());
    for (uint32_t p = 1; p < text_.size(); ++p) {
      if (text_[p] != kBoundary && text_[p - 1] != kBoundary) {
        order_[start[text_[p - 1]]++] = p;
      }
    }
  }

  // Pass 1 over one subtree: partitions its ranges down to single
  // positions, counts the nodes each position creates into ids_, and sizes
  // the subtree's fresh list blocks. Reads the tree, writes none of it.
  void Partition(Subtree* subtree) {
    const size_t alphabet = pst_.alphabet_size_;
    SymbolTally next(alphabet);
    SymbolTally keys(alphabet);
    std::vector<uint32_t> cursor(alphabet);
    std::vector<PstNodeId> child(alphabet);
    std::vector<Range> stack = {{1, subtree->lo, subtree->hi, subtree->node}};
    while (!stack.empty()) {
      const Range r = stack.back();
      stack.pop_back();
      const uint32_t first = order_[r.lo];
      if (r.node != kNoPstNode && r.hi - r.lo == 1) {
        // One position down the existing tree, to where its context ends
        // or leaves the tree.
        PstNodeId id = r.node;
        for (uint32_t d = r.depth;; ++d) {
          const Node& node = pst_.nodes_[id];
          if (FindEntry(pst_.next_.View(node.next), text_[first]) == nullptr) {
            ++subtree->next_entries;
            subtree->next_slots +=
                FreshSlots(node.next.size, node.next.size + 1);
          }
          if (d >= depth_ || Key(first, d) == kBoundary) break;
          const auto* child =
              FindEntry(pst_.children_.View(node.children), Key(first, d));
          if (child == nullptr) {
            subtree->child_slots +=
                FreshSlots(node.children.size, node.children.size + 1);
            stack.push_back({d + 1, r.lo, r.hi});
            break;
          }
          id = child->second;
        }
        continue;
      }
      if (r.node == kNoPstNode) {
        ++ids_[first];
        if (r.hi - r.lo == 1) {
          // A unary chain down to where the context ends.
          size_t below = 0;
          while (r.depth + below < depth_ &&
                 Key(first, r.depth + static_cast<uint32_t>(below)) !=
                     kBoundary) {
            ++below;
          }
          ids_[first] += static_cast<PstNodeId>(below);
          subtree->child_slots += below;
          subtree->next_slots += below + 1;
          subtree->next_entries += below + 1;
          continue;
        }
      }
      const bool leaf = r.depth >= depth_;
      uint32_t ended = 0;
      for (uint32_t i = r.lo; i < r.hi; ++i) {
        const uint32_t p = order_[i];
        next.Add(text_[p]);
        if (leaf) continue;
        const SymbolId key = Key(p, r.depth);
        if (key == kBoundary) {
          ++ended;
        } else {
          keys.Add(key);
        }
      }
      // The node's lists as they stand (none for a new node) and what the
      // range adds to them.
      ListRef had_next;
      ListRef had_children;
      if (r.node != kNoPstNode) {
        had_next = pst_.nodes_[r.node].next;
        had_children = pst_.nodes_[r.node].children;
      }
      const auto old_next = pst_.next_.View(had_next);
      size_t added = 0;
      for (SymbolId s : next.Distinct()) {
        if (FindEntry(old_next, s) == nullptr) ++added;
      }
      subtree->next_entries += added;
      subtree->next_slots += FreshSlots(had_next.size, had_next.size + added);
      next.Reset();
      if (keys.NumDistinct() == 0) continue;
      const auto sorted = keys.Sorted();
      const auto old_children = pst_.children_.View(had_children);
      added = 0;
      for (SymbolId key : sorted) {
        const auto* entry = FindEntry(old_children, key);
        child[key] = entry != nullptr ? entry->second : kNoPstNode;
        if (entry == nullptr) ++added;
      }
      subtree->child_slots +=
          FreshSlots(had_children.size, had_children.size + added);
      if (sorted.size() == 1 && ended == 0) {
        stack.push_back({r.depth + 1, r.lo, r.hi, child[sorted[0]]});
        keys.Reset();
        continue;
      }
      // Ended positions first, then one run per key in ascending order.
      uint32_t at = r.lo + ended;
      for (SymbolId key : sorted) {
        cursor[key] = at;
        stack.push_back({r.depth + 1, at, at + keys.Count(key), child[key]});
        at += keys.Count(key);
      }
      keys.Reset();
      uint32_t ended_at = r.lo;
      for (uint32_t i = r.lo; i < r.hi; ++i) {
        const uint32_t p = order_[i];
        const SymbolId key = Key(p, r.depth);
        scratch_[key == kBoundary ? ended_at++ : cursor[key]++] = p;
      }
      std::copy(scratch_.begin() + r.lo, scratch_.begin() + r.hi,
                order_.begin() + r.lo);
    }
  }

  // Turns the created-node counts into each position's first node id (the
  // loop numbers new nodes in the order positions create them, after the
  // existing ones) and returns the node count. Pass 2 then takes a
  // position's ids in turn.
  size_t AssignIds() {
    PstNodeId next_id = base_id_;
    for (PstNodeId& id : ids_) {
      const PstNodeId created = id;
      id = next_id;
      next_id += created;
    }
    return next_id;
  }

  // Sizes the arena, appends the fresh blocks to the pools, adds the batch
  // to the root, and gives each subtree its share of the fresh blocks.
  void PlaceRoot(size_t num_nodes) {
    Pst& pst = pst_;
    num_nodes_ = num_nodes;
    const Node root_before = pst.nodes_[kPstRoot];
    ResizeKeeping(pst.nodes_, replace_ ? 0 : base_id_, num_nodes);
    Node& root = pst.nodes_[kPstRoot];
    root = root_before;

    std::vector<KeyRun> runs;
    for (const Subtree& subtree : subtrees_) {
      runs.push_back({subtree.symbol, subtree.lo, subtree.hi});
    }
    size_t new_children = 0;
    for (const Subtree& subtree : subtrees_) {
      if (subtree.node == kNoPstNode) ++new_children;
    }
    size_t added = 0;
    for (SymbolId s : root_next_.Distinct()) {
      if (FindEntry(pst.Next(root), s) == nullptr) ++added;
    }
    size_t child_total =
        FreshSlots(root.children.size, root.children.size + new_children);
    size_t next_total = FreshSlots(root.next.size, root.next.size + added);
    size_t next_entries = added;
    for (Subtree& subtree : subtrees_) {
      subtree.child_at = child_total;
      subtree.next_at = next_total;
      child_total += subtree.child_slots;
      next_total += subtree.next_slots;
      next_entries += subtree.next_entries;
    }
    const size_t child_base = pst.children_.Extend(child_total, replace_);
    const size_t next_base = pst.next_.Extend(next_total, replace_);
    children_ = pst.children_.Slots();
    next_ = pst.next_.Slots();
    for (Subtree& subtree : subtrees_) {
      subtree.child_at += child_base;
      subtree.next_at += next_base;
    }

    root.count += num_positions_;
    size_t fresh = next_base;
    std::vector<SymbolId> missing;
    MergeNext(&root.next, root_next_, &missing, &fresh, &root_freed_.next);
    fresh = child_base;
    MergeChildren(&root.children, runs, &fresh, &root_freed_.children);
    for (size_t i = 0; i < subtrees_.size(); ++i) {
      subtrees_[i].slot = runs[i].slot;
    }
    const size_t created = num_nodes - base_id_;
    pst.live_nodes_ += created;
    pst.approx_bytes_ += created * (kNodeBytes + kChildEntryBytes) +
                         next_entries * kNextEntryBytes;
  }

  // Sets `list` to hold `size` entries: in its own block while they fit,
  // else in a fresh block of bit_ceil(size) slots at *fresh, leaving the
  // old block in `freed`. Returns where the entries go; the old ones stay
  // where they were for the caller to merge from.
  static size_t Grow(ListRef* list, size_t size, size_t* fresh,
                     std::vector<Block>* freed) {
    const size_t slots = FreshSlots(list->size, size);
    if (slots > 0) {
      if (list->size > 0) {
        freed->push_back({list->at, std::bit_ceil(list->size)});
      }
      list->at = static_cast<uint32_t>(*fresh);
      *fresh += slots;
    }
    list->size = static_cast<uint32_t>(size);
    return list->at;
  }

  // Adds the tallied next symbols to the next-symbol list `list`. Counts
  // of symbols the list has are added in place; the others (`missing`,
  // scratch) are merged in from the back, so a list growing inside its own
  // block never overwrites an entry before reading it.
  void MergeNext(ListRef* list, SymbolTally& tally,
                 std::vector<SymbolId>* missing, size_t* fresh,
                 std::vector<Block>* freed) {
    const ListRef had = *list;
    const std::span<NextEntry> old = next_.subspan(had.at, had.size);
    missing->clear();
    for (SymbolId s : tally.Sorted()) {
      NextEntry* entry = FindEntry(old, s);
      if (entry != nullptr) {
        entry->second += tally.Count(s);
      } else {
        missing->push_back(s);
      }
    }
    if (missing->empty()) return;
    NextEntry* out =
        next_.data() + Grow(list, had.size + missing->size(), fresh, freed);
    size_t i = had.size;
    size_t j = missing->size();
    for (size_t k = list->size; k > 0;) {
      if (j == 0 && out == old.data()) break;  // The rest is in place.
      if (j > 0 && (i == 0 || old[i - 1].first < (*missing)[j - 1])) {
        const SymbolId s = (*missing)[--j];
        out[--k] = {s, tally.Count(s)};
      } else {
        out[--k] = old[--i];
      }
    }
  }

  // Adds the runs' keys (ascending) to the children list `list`. A run
  // whose node the list has gets that node; a new one gets the slot that
  // Place fills with the new node's entry.
  void MergeChildren(ListRef* list, std::span<KeyRun> runs, size_t* fresh,
                     std::vector<Block>* freed) {
    const ListRef had = *list;
    const std::span<ChildEntry> old = children_.subspan(had.at, had.size);
    size_t added = 0;
    for (KeyRun& run : runs) {
      const ChildEntry* entry = FindEntry(old, run.key);
      if (entry != nullptr) {
        run.node = entry->second;
      } else {
        ++added;
      }
    }
    if (added == 0) return;
    const size_t at = Grow(list, had.size + added, fresh, freed);
    ChildEntry* out = children_.data() + at;
    size_t i = had.size;
    size_t j = runs.size();
    for (size_t k = list->size; k > 0;) {
      if (j == 0 && out == old.data()) break;  // The rest is in place.
      if (j > 0 && runs[j - 1].node == kNoPstNode &&
          (i == 0 || old[i - 1].first < runs[j - 1].key)) {
        runs[--j].slot = at + --k;
      } else {
        if (j > 0 && old[i - 1].first == runs[j - 1].key) --j;
        out[--k] = old[--i];
      }
    }
  }

  // Gives the node of range `r` created at position `creator` its id, and
  // writes it into its parent's children list.
  Node& Place(const Range& r, uint32_t creator, PstNodeId* id) {
    *id = ids_[creator]++;
    const SymbolId edge = text_[creator - r.depth];
    children_[r.slot] = {edge, *id};
    Node& node = pst_.nodes_[*id];
    node = Node();
    node.parent = r.parent;
    node.edge_symbol = edge;
    node.depth = r.depth;
    node.count = r.hi - r.lo;
    return node;
  }

  // Pass 2 over one subtree (the index-th depth-1 range): every range is
  // already partitioned, so each child's range is a run of equal keys.
  // Writes the new nodes, updates the existing ones, and carves the fresh
  // list blocks from the subtree's share.
  void Emit(size_t index) {
    Subtree& subtree = subtrees_[index];
    SymbolTally next(pst_.alphabet_size_);
    std::vector<SymbolId> missing;
    std::vector<KeyRun> runs;
    size_t child_at = subtree.child_at;
    size_t next_at = subtree.next_at;
    std::vector<Range> stack = {
        {1, subtree.lo, subtree.hi, subtree.node, kPstRoot, subtree.slot}};
    while (!stack.empty()) {
      Range r = stack.back();
      stack.pop_back();
      PstNodeId id = r.node;
      if (id != kNoPstNode && r.hi - r.lo == 1) {
        // One position down the existing tree, to where its context ends
        // or leaves the tree.
        const uint32_t p = order_[r.lo];
        for (;; ++r.depth) {
          Node& node = pst_.nodes_[id];
          ++node.count;
          next.Add(text_[p]);
          MergeNext(&node.next, next, &missing, &next_at, &subtree.freed.next);
          next.Reset();
          if (r.depth >= depth_ || Key(p, r.depth) == kBoundary) break;
          runs.assign(1, {Key(p, r.depth), r.lo, r.hi});
          MergeChildren(&node.children, runs, &child_at,
                        &subtree.freed.children);
          if (runs[0].node == kNoPstNode) {
            stack.push_back(
                {r.depth + 1, r.lo, r.hi, kNoPstNode, id, runs[0].slot});
            break;
          }
          id = runs[0].node;
        }
        continue;
      }
      if (id == kNoPstNode && r.hi - r.lo == 1) {
        // A unary chain: one count and one next symbol per node.
        const uint32_t p = order_[r.lo];
        for (;;) {
          Node& node = Place(r, p, &id);
          node.next = {static_cast<uint32_t>(next_at), 1};
          next_[next_at++] = {text_[p], 1};
          if (r.depth >= depth_ || Key(p, r.depth) == kBoundary) break;
          node.children = {static_cast<uint32_t>(child_at), 1};
          r = {r.depth + 1, r.lo, r.hi, kNoPstNode, id, child_at++};
        }
        continue;
      }
      uint32_t creator = order_[r.lo];
      for (uint32_t i = r.lo; i < r.hi; ++i) {
        next.Add(text_[order_[i]]);
        creator = std::min(creator, order_[i]);
      }
      Node* node;
      if (id == kNoPstNode) {
        node = &Place(r, creator, &id);
      } else {
        node = &pst_.nodes_[id];
        node->count += r.hi - r.lo;
      }
      MergeNext(&node->next, next, &missing, &next_at, &subtree.freed.next);
      next.Reset();
      if (r.depth >= depth_) continue;
      runs.clear();
      for (uint32_t i = r.lo; i < r.hi;) {
        const SymbolId key = Key(order_[i], r.depth);
        uint32_t end = i + 1;
        while (end < r.hi && Key(order_[end], r.depth) == key) ++end;
        if (key != kBoundary) runs.push_back({key, i, end});
        i = end;
      }
      if (runs.empty()) continue;
      MergeChildren(&node->children, runs, &child_at, &subtree.freed.children);
      for (const KeyRun& run : runs) {
        stack.push_back({r.depth + 1, run.lo, run.hi, run.node, id, run.slot});
      }
    }
  }

  void FreeMovedBlocks() {
    const auto free = [&](const Freed& freed) {
      for (const Block& b : freed.children) {
        pst_.children_.Free(b.at, b.capacity);
      }
      for (const Block& b : freed.next) pst_.next_.Free(b.at, b.capacity);
    };
    free(root_freed_);
    for (const Subtree& subtree : subtrees_) free(subtree.freed);
  }

  Pst& pst_;
  const size_t depth_;
  const bool replace_;
  const std::vector<SymbolId> text_;
  PstNodeId base_id_ = kPstRoot + 1;  // The first new node's id.
  size_t num_nodes_ = 0;
  // Pass 1: nodes each position creates; then the id its next one gets.
  std::vector<PstNodeId> ids_;
  std::vector<uint32_t> order_;    // Positions, partitioned in place.
  std::vector<uint32_t> scratch_;  // Partition buffer, parallel to order_.
  SymbolTally root_next_;
  std::vector<Subtree> subtrees_;
  Freed root_freed_;
  uint64_t num_positions_ = 0;
  std::span<ChildEntry> children_;
  std::span<NextEntry> next_;
};

bool Pst::InsertInBulk(std::span<const std::span<const SymbolId>> segments,
                       size_t num_threads, bool replace) {
  // Positions are addressed by uint32_t offsets into one text, and the
  // dense tallies need every symbol inside the alphabet. Anything else, any
  // memory budget (whose pruning depends on insertion order) and free node
  // ids (which the loop hands out before new ones) take the loop.
  if (options_.max_memory_bytes > 0 || (!replace && !free_list_.empty())) {
    return false;
  }
  size_t text_size = 0;
  for (const auto segment : segments) {
    text_size += segment.size() + 1;
    if (!std::all_of(segment.begin(), segment.end(),
                     [&](SymbolId s) { return s < alphabet_size_; })) {
      return false;
    }
  }
  if (text_size >= std::numeric_limits<uint32_t>::max()) return false;
  std::vector<SymbolId> text;
  text.reserve(text_size);
  for (const auto segment : segments) {
    text.push_back(kBoundary);
    text.insert(text.end(), segment.begin(), segment.end());
  }
  BulkBuilder builder(this, std::move(text), replace);
  builder.Run(num_threads);
  static obs::Counter& insert_symbols =
      obs::MetricsRegistry::Get().GetCounter("pst.insert_symbols");
  static obs::Counter& created =
      obs::MetricsRegistry::Get().GetCounter("pst.nodes_created");
  insert_symbols.Add(builder.num_positions());
  created.Add(builder.nodes_created());
  return true;
}

void Pst::InsertSequences(std::span<const std::span<const SymbolId>> segments,
                          size_t num_threads) {
  if (InsertInBulk(segments, num_threads, /*replace=*/false)) return;
  for (const auto segment : segments) InsertSequence(segment);
}

void Pst::Build(std::span<const std::span<const SymbolId>> segments,
                size_t num_threads) {
  if (InsertInBulk(segments, num_threads, /*replace=*/true)) return;
  Clear();
  for (const auto segment : segments) InsertSequence(segment);
}

PstNodeId Pst::PredictionNode(std::span<const SymbolId> context) const {
  PstNodeId cur = kPstRoot;
  const size_t len = context.size();
  const size_t max_d = std::min(len, options_.max_depth);
  for (size_t d = 1; d <= max_d; ++d) {
    PstNodeId child = Child(cur, context[len - d]);
    if (child == kNoPstNode ||
        nodes_[child].count < options_.significance_threshold) {
      break;  // Any further advance reaches an insignificant node.
    }
    cur = child;
  }
  return cur;
}

PstNodeId Pst::DeepestExistingNode(std::span<const SymbolId> context) const {
  PstNodeId cur = kPstRoot;
  const size_t len = context.size();
  const size_t max_d = std::min(len, options_.max_depth);
  for (size_t d = 1; d <= max_d; ++d) {
    PstNodeId child = Child(cur, context[len - d]);
    if (child == kNoPstNode) break;
    cur = child;
  }
  return cur;
}

double Pst::NodeProbability(PstNodeId id, SymbolId next) const {
  const Node& node = nodes_[id];
  double raw;
  if (node.count == 0) {
    raw = alphabet_size_ > 0 ? 1.0 / static_cast<double>(alphabet_size_) : 0.0;
  } else {
    const auto* entry = FindEntry(Next(node), next);
    raw = entry == nullptr
              ? 0.0
              : static_cast<double>(entry->second) /
                    static_cast<double>(node.count);
  }
  const double p_min = options_.smoothing_p_min;
  if (p_min <= 0.0) return raw;
  // Adjusted probability estimation (paper §5.2).
  return (1.0 - static_cast<double>(alphabet_size_) * p_min) * raw + p_min;
}

double Pst::ConditionalProbability(std::span<const SymbolId> context,
                                   SymbolId next) const {
  return NodeProbability(PredictionNode(context), next);
}

double Pst::LogConditionalProbability(std::span<const SymbolId> context,
                                      SymbolId next) const {
  double p = ConditionalProbability(context, next);
  return p > 0.0 ? std::log(p) : -std::numeric_limits<double>::infinity();
}

double Pst::LogSequenceProbability(std::span<const SymbolId> symbols) const {
  double sum = 0.0;
  for (size_t i = 0; i < symbols.size(); ++i) {
    sum += LogConditionalProbability(symbols.subspan(0, i), symbols[i]);
  }
  return sum;
}

PstNodeId Pst::Child(PstNodeId id, SymbolId symbol) const {
  const auto* entry = FindEntry(Children(id), symbol);
  return entry == nullptr ? kNoPstNode : entry->second;
}

std::span<const std::pair<SymbolId, PstNodeId>> Pst::Children(
    PstNodeId id) const {
  return children_.View(nodes_[id].children);
}

std::vector<SymbolId> Pst::NodeLabel(PstNodeId id) const {
  // Walking leaf-to-root yields the context in natural order: the deepest
  // edge is the symbol furthest before the prediction point.
  std::vector<SymbolId> label;
  PstNodeId cur = id;
  while (cur != kPstRoot && cur != kNoPstNode) {
    label.push_back(nodes_[cur].edge_symbol);
    cur = nodes_[cur].parent;
  }
  return label;
}

uint64_t Pst::NextCount(PstNodeId id, SymbolId s) const {
  const auto* entry = FindEntry(Next(nodes_[id]), s);
  return entry == nullptr ? 0 : entry->second;
}

double Pst::CpdDistanceToParent(const Node& node) const {
  if (node.parent == kNoPstNode) return 0.0;
  const Node& parent = nodes_[node.parent];
  if (node.count == 0 || parent.count == 0) return 0.0;
  // L1 (variational) distance over the union of observed next symbols.
  double dist = 0.0;
  size_t i = 0, j = 0;
  const auto a = Next(node);
  const auto b = Next(parent);
  const double ca = static_cast<double>(node.count);
  const double cb = static_cast<double>(parent.count);
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].first < b[j].first)) {
      dist += static_cast<double>(a[i].second) / ca;
      ++i;
    } else if (i >= a.size() || b[j].first < a[i].first) {
      dist += static_cast<double>(b[j].second) / cb;
      ++j;
    } else {
      dist += std::abs(static_cast<double>(a[i].second) / ca -
                       static_cast<double>(b[j].second) / cb);
      ++i;
      ++j;
    }
  }
  return dist;
}

double Pst::PruneScore(const Node& node) const {
  // Lower score == pruned earlier.
  switch (options_.prune_strategy) {
    case PruneStrategy::kSmallestCountFirst:
      return static_cast<double>(node.count);
    case PruneStrategy::kLongestLabelFirst:
      // Deeper leaves first; ties broken by count so the shallow frequent
      // structure survives longest.
      return -(static_cast<double>(node.depth) * 1e12 -
               static_cast<double>(node.count));
    case PruneStrategy::kExpectedVectorFirst:
      // Insignificant leaves go first (ordered by count); significant leaves
      // follow, ordered by how little their CPD differs from the parent's.
      if (node.count < options_.significance_threshold) {
        return static_cast<double>(node.count);
      }
      return 1e15 + CpdDistanceToParent(node) * 1e12;
  }
  return 0.0;
}

void Pst::RemoveLeaf(PstNodeId id) {
  Node& node = nodes_[id];
  Node& parent = nodes_[node.parent];
  const auto siblings = Children(node.parent);
  const size_t pos = LowerBound(siblings, node.edge_symbol);
  if (pos < siblings.size() && siblings[pos].first == node.edge_symbol) {
    children_.Erase(parent.children, pos);
    approx_bytes_ -= kChildEntryBytes;
  }
  approx_bytes_ -= kNodeBytes + node.next.size * kNextEntryBytes;
  children_.Release(node.children);
  next_.Release(node.next);
  node = Node();
  node.dead = true;
  free_list_.push_back(id);
  --live_nodes_;
}

void Pst::PruneToBudget(size_t target_bytes) {
  size_t target =
      target_bytes > 0 ? target_bytes : options_.max_memory_bytes;
  if (target == 0 || approx_bytes_ <= target) return;
  // Prune slightly past the budget so insertion doesn't immediately
  // re-trigger; the slack is bounded so explicit small shaves stay small.
  const size_t slack = std::min<size_t>(target / 10, 16 * 1024);
  const size_t goal = target - std::min(slack, target);

  // Min-heap of prunable leaves; parents are pushed as they become leaves,
  // so the globally lowest-scoring leaf is always removed next. A node's
  // score is stable once it is a leaf (it depends only on its own count,
  // depth, and its parent's CPD).
  using Entry = std::pair<double, PstNodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (PstNodeId id = 1; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (!node.dead && node.children.size == 0) {
      heap.emplace(PruneScore(node), id);
    }
  }
  size_t removed = 0;
  while (approx_bytes_ > goal && !heap.empty()) {
    auto [score, id] = heap.top();
    heap.pop();
    Node& node = nodes_[id];
    if (node.dead || node.children.size > 0) continue;  // Stale entry.
    PstNodeId parent = node.parent;
    RemoveLeaf(id);
    ++removed;
    if (parent != kPstRoot && parent != kNoPstNode &&
        nodes_[parent].children.size == 0) {
      heap.emplace(PruneScore(nodes_[parent]), parent);
    }
  }
  if (removed > 0) {
    static obs::Counter& prune_events =
        obs::MetricsRegistry::Get().GetCounter("pst.prune_events");
    static obs::Counter& pruned =
        obs::MetricsRegistry::Get().GetCounter("pst.nodes_pruned");
    prune_events.Increment();
    pruned.Add(removed);
    PrunedByStrategyCounter(options_.prune_strategy).Add(removed);
  }
}

void Pst::Clear() {
  nodes_.clear();
  free_list_.clear();
  children_.Clear();
  next_.Clear();
  nodes_.push_back(Node());
  approx_bytes_ = kNodeBytes;
  live_nodes_ = 1;
}

size_t Pst::ArenaBytes() const {
  return nodes_.capacity() * sizeof(Node) +
         free_list_.capacity() * sizeof(PstNodeId) +
         children_.CapacityBytes() + next_.CapacityBytes();
}

PstStats Pst::Stats() const {
  PstStats stats;
  for (PstNodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.dead) continue;
    ++stats.num_nodes;
    if (node.count >= options_.significance_threshold) {
      ++stats.num_significant_nodes;
    }
    stats.max_depth = std::max(stats.max_depth,
                               static_cast<size_t>(node.depth));
    if (stats.nodes_per_depth.size() <= node.depth) {
      stats.nodes_per_depth.resize(node.depth + 1, 0);
    }
    ++stats.nodes_per_depth[node.depth];
  }
  stats.approx_bytes = approx_bytes_;
  stats.total_symbols = nodes_[kPstRoot].count;
  return stats;
}

Status Pst::MergeFrom(const Pst& other) {
  if (other.alphabet_size_ != alphabet_size_) {
    return Status::InvalidArgument("alphabet size mismatch in PST merge");
  }
  // Walk `other` pre-order, mirroring each live node into this tree. When
  // `other` is this tree every list entry already exists, so the views of
  // `other` are never moved by an insertion.
  struct Frame {
    PstNodeId theirs;
    PstNodeId ours;
  };
  std::vector<Frame> stack = {{kPstRoot, kPstRoot}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const Node& theirs = other.nodes_[frame.theirs];
    nodes_[frame.ours].count += theirs.count;
    for (const auto& [sym, cnt] : other.Next(theirs)) {
      AddNext(frame.ours, sym, cnt);
    }
    if (theirs.depth >= options_.max_depth) continue;
    for (const auto& [sym, their_child] : other.Children(frame.theirs)) {
      PstNodeId our_child = GetOrCreateChild(frame.ours, sym);
      stack.push_back({their_child, our_child});
    }
  }
  if (options_.max_memory_bytes > 0 &&
      approx_bytes_ > options_.max_memory_bytes) {
    PruneToBudget();
  }
  return Status::OK();
}

std::vector<PstContextInfo> Pst::TopContexts(size_t limit) const {
  std::vector<std::pair<uint64_t, PstNodeId>> ranked;
  for (PstNodeId id = 1; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.dead) continue;
    ranked.emplace_back(node.count, id);
  }
  std::sort(ranked.begin(), ranked.end(),
            [this](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return nodes_[a.second].depth < nodes_[b.second].depth;
            });
  if (ranked.size() > limit) ranked.resize(limit);
  std::vector<PstContextInfo> out;
  out.reserve(ranked.size());
  for (const auto& [count, id] : ranked) {
    PstContextInfo info;
    info.context = NodeLabel(id);
    info.count = count;
    const Node& node = nodes_[id];
    for (const auto& [sym, cnt] : Next(node)) {
      double p = node.count == 0 ? 0.0
                                 : static_cast<double>(cnt) /
                                       static_cast<double>(node.count);
      if (p > info.most_likely_probability) {
        info.most_likely_probability = p;
        info.most_likely_next = sym;
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace cluseq
