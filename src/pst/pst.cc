#include "pst/pst.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>

#include "obs/metrics.h"
#include "pst/partition_text.h"
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

// Resizes `v` to `size` elements that the caller overwrites, so elements
// it keeps are not reset. Storage that is too small is released first, so
// the old and the new buffer are never both held, and replaced by twice as
// much, as growth by insertion would.
template <typename Vector>
void ResizeForOverwrite(Vector& v, size_t size) {
  if (size > v.capacity()) {
    const size_t capacity = std::max(size, 2 * v.capacity());
    Vector().swap(v);
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
std::span<Entry> Pst::ListPool<Entry>::Carve(size_t size) {
  for (auto& blocks : free_) blocks.clear();
  ResizeForOverwrite(slots_, size);
  return slots_;
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

PstOptions Pst::EffectiveOptions(size_t alphabet_size, PstOptions options) {
  // The smoothed probabilities must satisfy n * p_min < 1; clamp so even a
  // uniform CPD keeps (1 - n*p_min) positive.
  if (alphabet_size > 0 && options.smoothing_p_min > 0.0) {
    options.smoothing_p_min = std::min(
        options.smoothing_p_min, 0.5 / static_cast<double>(alphabet_size));
  }
  return options;
}

Pst::Pst(size_t alphabet_size, PstOptions options)
    : alphabet_size_(alphabet_size),
      options_(EffectiveOptions(alphabet_size, options)) {
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

// Build's state. The text (PartitionText) holds every segment after a
// boundary, so the context symbol of position p at depth d is text[p - d],
// and a context ends at the first boundary or at max_depth. A node's
// *range* is a run of `order_` holding the positions whose context reaches
// the node. Pass 1 partitions each range stably by the next context symbol
// into the children's ranges, so when it reaches a range the positions are
// still in insertion order and the first is the one at which the insertion
// loop creates the node. Pass 2 finds the same ranges as runs of equal
// keys; partitioning has moved the creator there, but it is still the
// smallest position.
class Pst::BulkBuilder {
 public:
  BulkBuilder(Pst* pst, std::vector<SymbolId> text)
      : pst_(*pst),
        depth_(pst->options_.max_depth),
        text_(std::move(text)),
        ids_(text_.size(), 0) {}

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
  }

  uint64_t num_positions() const { return num_positions_; }

 private:
  // A depth-1 node: its range, and its share of the list pools.
  struct Subtree {
    SymbolId symbol = 0;
    uint32_t lo = 0;
    uint32_t hi = 0;
    size_t child_slots = 0;  // Sized by pass 1...
    size_t next_slots = 0;
    size_t next_entries = 0;
    size_t child_at = 0;  // ...and placed by PlaceRoot.
    size_t next_at = 0;
  };
  struct Range {
    uint32_t depth;
    uint32_t lo;
    uint32_t hi;
    // Pass 2: the parent, and the slot of its children list that names
    // this node.
    PstNodeId parent = kNoPstNode;
    size_t slot = 0;
  };

  SymbolId Key(uint32_t p, uint32_t depth) const {
    return text_[p - depth - 1];
  }

  // The root counts every position. Its children group the positions that
  // have a context symbol by that symbol, stably.
  void SplitRoot() {
    const size_t alphabet = pst_.alphabet_size_;
    root_next_.assign(alphabet, 0);
    std::vector<uint32_t> start(alphabet + 1, 0);
    for (uint32_t p = 1; p < text_.size(); ++p) {
      if (text_[p] == kTextBoundary) continue;
      ++num_positions_;
      ++root_next_[text_[p]];
      if (text_[p - 1] != kTextBoundary) ++start[text_[p - 1] + 1];
    }
    for (size_t s = 0; s < alphabet; ++s) {
      if (start[s + 1] > 0) {
        subtrees_.push_back({.symbol = static_cast<SymbolId>(s),
                             .lo = start[s],
                             .hi = start[s] + start[s + 1]});
      }
      start[s + 1] += start[s];
    }
    order_.resize(start[alphabet]);
    scratch_.resize(order_.size());
    for (uint32_t p = 1; p < text_.size(); ++p) {
      if (text_[p] != kTextBoundary && text_[p - 1] != kTextBoundary) {
        order_[start[text_[p - 1]]++] = p;
      }
    }
  }

  // Pass 1 over one subtree: partitions its ranges down to single
  // positions, counts the nodes each position creates into ids_, and sizes
  // the subtree's list blocks.
  void Partition(Subtree* subtree) {
    SymbolTally next(pst_.alphabet_size_);
    SymbolTally keys(pst_.alphabet_size_);
    std::vector<uint32_t> cursor(pst_.alphabet_size_);
    std::vector<Range> stack = {{1, subtree->lo, subtree->hi}};
    while (!stack.empty()) {
      const Range r = stack.back();
      stack.pop_back();
      const uint32_t first = order_[r.lo];
      ++ids_[first];
      if (r.hi - r.lo == 1) {
        // A unary chain down to where the context ends.
        size_t below = 0;
        while (r.depth + below < depth_ &&
               Key(first, r.depth + static_cast<uint32_t>(below)) !=
                   kTextBoundary) {
          ++below;
        }
        ids_[first] += static_cast<PstNodeId>(below);
        subtree->child_slots += below;
        subtree->next_slots += below + 1;
        subtree->next_entries += below + 1;
        continue;
      }
      const bool leaf = r.depth >= depth_;
      uint32_t ended = 0;
      for (uint32_t i = r.lo; i < r.hi; ++i) {
        const uint32_t p = order_[i];
        next.Add(text_[p]);
        if (leaf) continue;
        const SymbolId key = Key(p, r.depth);
        if (key == kTextBoundary) {
          ++ended;
        } else {
          keys.Add(key);
        }
      }
      subtree->next_slots += std::bit_ceil(next.NumDistinct());
      subtree->next_entries += next.NumDistinct();
      next.Reset();
      if (keys.NumDistinct() == 0) continue;
      subtree->child_slots += std::bit_ceil(keys.NumDistinct());
      if (keys.NumDistinct() == 1 && ended == 0) {
        stack.push_back({r.depth + 1, r.lo, r.hi});
        keys.Reset();
        continue;
      }
      // Ended positions first, then one run per key in ascending order.
      uint32_t at = r.lo + ended;
      for (SymbolId key : keys.Sorted()) {
        cursor[key] = at;
        stack.push_back({r.depth + 1, at, at + keys.Count(key)});
        at += keys.Count(key);
      }
      keys.Reset();
      uint32_t ended_at = r.lo;
      for (uint32_t i = r.lo; i < r.hi; ++i) {
        const uint32_t p = order_[i];
        const SymbolId key = Key(p, r.depth);
        scratch_[key == kTextBoundary ? ended_at++ : cursor[key]++] = p;
      }
      std::copy(scratch_.begin() + r.lo, scratch_.begin() + r.hi,
                order_.begin() + r.lo);
    }
  }

  // Turns the created-node counts into each position's first node id (the
  // loop numbers nodes in the order positions create them) and returns the
  // node count. Pass 2 then takes a position's ids in turn.
  size_t AssignIds() {
    PstNodeId next_id = kPstRoot + 1;
    for (PstNodeId& id : ids_) {
      const PstNodeId created = id;
      id = next_id;
      next_id += created;
    }
    return next_id;
  }

  // Sizes the arena and the pools, writes the root, and gives each subtree
  // its block range in both pools.
  void PlaceRoot(size_t num_nodes) {
    Pst& pst = pst_;
    ResizeForOverwrite(pst.nodes_, num_nodes);
    pst.free_list_.clear();
    size_t root_next = 0;
    for (uint64_t n : root_next_) root_next += n > 0 ? 1 : 0;
    size_t child_total =
        subtrees_.empty() ? 0 : std::bit_ceil(subtrees_.size());
    size_t next_total = root_next == 0 ? 0 : std::bit_ceil(root_next);
    size_t next_entries = root_next;
    for (Subtree& subtree : subtrees_) {
      subtree.child_at = child_total;
      subtree.next_at = next_total;
      child_total += subtree.child_slots;
      next_total += subtree.next_slots;
      next_entries += subtree.next_entries;
    }
    children_ = pst.children_.Carve(child_total);
    next_ = pst.next_.Carve(next_total);

    Node& root = pst.nodes_[kPstRoot];
    root = Node();
    root.count = num_positions_;
    root.next = {0, static_cast<uint32_t>(root_next)};
    size_t at = 0;
    for (size_t s = 0; s < root_next_.size(); ++s) {
      if (root_next_[s] > 0) {
        next_[at++] = {static_cast<SymbolId>(s), root_next_[s]};
      }
    }
    root.children = {0, static_cast<uint32_t>(subtrees_.size())};
    pst.live_nodes_ = num_nodes;
    pst.approx_bytes_ = num_nodes * kNodeBytes +
                        (num_nodes - 1) * kChildEntryBytes +
                        next_entries * kNextEntryBytes;
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

  // Pass 2 over one subtree (the index-th child of the root): every range
  // is already partitioned, so each child's range is a run of equal keys.
  // Writes the nodes and lists into the subtree's blocks.
  void Emit(size_t index) {
    const Subtree& subtree = subtrees_[index];
    SymbolTally next(pst_.alphabet_size_);
    size_t child_at = subtree.child_at;
    size_t next_at = subtree.next_at;
    std::vector<Range> stack = {{1, subtree.lo, subtree.hi, kPstRoot, index}};
    while (!stack.empty()) {
      Range r = stack.back();
      stack.pop_back();
      PstNodeId id;
      if (r.hi - r.lo == 1) {
        // A unary chain: one count and one next symbol per node.
        const uint32_t p = order_[r.lo];
        for (;;) {
          Node& node = Place(r, p, &id);
          node.next = {static_cast<uint32_t>(next_at), 1};
          next_[next_at++] = {text_[p], 1};
          if (r.depth >= depth_ || Key(p, r.depth) == kTextBoundary) break;
          node.children = {static_cast<uint32_t>(child_at), 1};
          r = {r.depth + 1, r.lo, r.hi, id, child_at++};
        }
        continue;
      }
      uint32_t creator = order_[r.lo];
      for (uint32_t i = r.lo; i < r.hi; ++i) {
        next.Add(text_[order_[i]]);
        creator = std::min(creator, order_[i]);
      }
      Node& node = Place(r, creator, &id);
      const auto symbols = next.Sorted();
      node.next = {static_cast<uint32_t>(next_at),
                   static_cast<uint32_t>(symbols.size())};
      for (SymbolId s : symbols) next_[next_at++] = {s, next.Count(s)};
      next_at += std::bit_ceil(symbols.size()) - symbols.size();
      next.Reset();
      if (r.depth >= depth_) continue;
      const size_t first_child = child_at;
      for (uint32_t i = r.lo; i < r.hi;) {
        const SymbolId key = Key(order_[i], r.depth);
        uint32_t end = i + 1;
        while (end < r.hi && Key(order_[end], r.depth) == key) ++end;
        if (key != kTextBoundary) {
          stack.push_back({r.depth + 1, i, end, id, child_at++});
        }
        i = end;
      }
      const size_t num_children = child_at - first_child;
      if (num_children == 0) continue;
      node.children = {static_cast<uint32_t>(first_child),
                       static_cast<uint32_t>(num_children)};
      child_at += std::bit_ceil(num_children) - num_children;
    }
  }

  Pst& pst_;
  const size_t depth_;
  const std::vector<SymbolId> text_;
  // Pass 1: nodes each position creates; then the id its next one gets.
  std::vector<PstNodeId> ids_;
  std::vector<uint32_t> order_;    // Positions, partitioned in place.
  std::vector<uint32_t> scratch_;  // Partition buffer, parallel to order_.
  std::vector<uint64_t> root_next_;
  std::vector<Subtree> subtrees_;
  uint64_t num_positions_ = 0;
  std::span<ChildEntry> children_;
  std::span<NextEntry> next_;
};

void Pst::Build(std::span<const std::span<const SymbolId>> segments,
                size_t num_threads) {
  // A memory budget's pruning depends on insertion order, and segments the
  // partition cannot take (PartitionText) take the insertion loop too.
  std::optional<std::vector<SymbolId>> text;
  if (options_.max_memory_bytes == 0) {
    text = PartitionText(segments, alphabet_size_);
  }
  if (!text) {
    Clear();
    for (const auto segment : segments) InsertSequence(segment);
    return;
  }
  BulkBuilder builder(this, std::move(*text));
  builder.Run(num_threads);
  static obs::Counter& insert_symbols =
      obs::MetricsRegistry::Get().GetCounter("pst.insert_symbols");
  static obs::Counter& created =
      obs::MetricsRegistry::Get().GetCounter("pst.nodes_created");
  insert_symbols.Add(builder.num_positions());
  created.Add(live_nodes_ - 1);
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

double Pst::Probability(uint64_t next_count, uint64_t count,
                        size_t alphabet_size, double p_min) {
  double raw;
  if (count == 0) {
    raw = alphabet_size > 0 ? 1.0 / static_cast<double>(alphabet_size) : 0.0;
  } else {
    raw = static_cast<double>(next_count) / static_cast<double>(count);
  }
  if (p_min <= 0.0) return raw;
  // Adjusted probability estimation (paper §5.2).
  return (1.0 - static_cast<double>(alphabet_size) * p_min) * raw + p_min;
}

double Pst::NodeProbability(PstNodeId id, SymbolId next) const {
  const Node& node = nodes_[id];
  const auto* entry = FindEntry(Next(node), next);
  return Probability(entry == nullptr ? 0 : entry->second, node.count,
                     alphabet_size_, options_.smoothing_p_min);
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
