#include "pst/pst.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>

#include "obs/metrics.h"

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
  nodes_.emplace_back();  // Root: empty label, depth 0.
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
    nodes_.emplace_back();
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
  nodes_.emplace_back();
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
