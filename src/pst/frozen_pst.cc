#include "pst/frozen_pst.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace cluseq {

namespace {

constexpr uint32_t kUnset = std::numeric_limits<uint32_t>::max();

// Transient trie mirrored from the live Pst's significant nodes (plus
// closure states), indexed densely. Children extend the context one symbol
// further into the past, exactly like the live trie, so a node's parent is
// the one-symbol-shorter suffix of its label.
struct ScratchNode {
  PstNodeId live = kNoPstNode;  // Backing live node; kNoPstNode for closure.
  uint32_t parent = 0;          // Drop the oldest symbol of the label.
  SymbolId edge = 0;            // Oldest symbol of the label.
  uint32_t depth = 0;
  std::vector<std::pair<SymbolId, uint32_t>> children;  // Sorted by symbol.
};

uint32_t FindChild(const std::vector<ScratchNode>& nodes, uint32_t id,
                   SymbolId symbol) {
  const auto& children = nodes[id].children;
  auto it = std::lower_bound(
      children.begin(), children.end(), symbol,
      [](const std::pair<SymbolId, uint32_t>& e, SymbolId k) {
        return e.first < k;
      });
  if (it == children.end() || it->first != symbol) return kUnset;
  return it->second;
}

uint32_t AddChild(std::vector<ScratchNode>* nodes, uint32_t parent,
                  SymbolId symbol, PstNodeId live) {
  uint32_t id = static_cast<uint32_t>(nodes->size());
  ScratchNode node;
  node.live = live;
  node.parent = parent;
  node.edge = symbol;
  node.depth = (*nodes)[parent].depth + 1;
  nodes->push_back(std::move(node));
  auto& children = (*nodes)[parent].children;
  auto it = std::lower_bound(
      children.begin(), children.end(), symbol,
      [](const std::pair<SymbolId, uint32_t>& e, SymbolId k) {
        return e.first < k;
      });
  children.insert(it, {symbol, id});
  return id;
}

// Returns the scratch node whose label is label(u) minus its most recent
// symbol, creating count-less closure nodes as needed (memoized in
// `drop_last`). The trie's label set is always suffix-closed (ancestors),
// but leaf pruning can leave "ba" in the tree with "b" gone; transitions
// are only well-defined once the label set is also closed under dropping
// the newest symbol, i.e. under taking label prefixes.
uint32_t EnsureDropLast(uint32_t u, std::vector<ScratchNode>* nodes,
                        std::vector<uint32_t>* drop_last) {
  if (u < drop_last->size() && (*drop_last)[u] != kUnset) {
    return (*drop_last)[u];
  }
  if (drop_last->size() < nodes->size()) {
    drop_last->resize(nodes->size(), kUnset);
  }
  const uint32_t depth = (*nodes)[u].depth;
  uint32_t result;
  if (depth <= 1) {
    result = 0;  // label minus its only symbol is the empty context.
  } else {
    // label(u)[:-1] = edge(u) · label(parent(u))[:-1].
    const uint32_t parent = (*nodes)[u].parent;
    const SymbolId edge = (*nodes)[u].edge;
    const uint32_t mp = EnsureDropLast(parent, nodes, drop_last);
    uint32_t t = FindChild(*nodes, mp, edge);
    if (t == kUnset) t = AddChild(nodes, mp, edge, kNoPstNode);
    result = t;
  }
  if (drop_last->size() < nodes->size()) {
    drop_last->resize(nodes->size(), kUnset);
  }
  (*drop_last)[u] = result;
  return result;
}

}  // namespace

FrozenPst::FrozenPst(const Pst& pst, const BackgroundModel& background) {
  alphabet_size_ = pst.alphabet_size();
  max_depth_ = pst.options().max_depth;
  const uint64_t sig = pst.options().significance_threshold;

  // Phase 1: mirror the live nodes whose whole suffix chain is significant,
  // breadth-first so depths are grouped. These are exactly the nodes the
  // live PredictionNode() walk can land on; an insignificant node and its
  // whole subtree only ever defer to their deepest significant ancestor.
  std::vector<ScratchNode> nodes;
  nodes.emplace_back();  // Root.
  nodes[0].live = kPstRoot;
  {
    // (live id, scratch id) queue; children come back sorted by symbol.
    std::vector<std::pair<PstNodeId, uint32_t>> queue = {{kPstRoot, 0}};
    for (size_t head = 0; head < queue.size(); ++head) {
      auto [live_id, scratch_id] = queue[head];
      for (const auto& [symbol, live_child] : pst.Children(live_id)) {
        if (pst.NodeCount(live_child) < sig) continue;
        uint32_t child = AddChild(&nodes, scratch_id, symbol, live_child);
        queue.emplace_back(live_child, child);
      }
    }
  }

  // Phase 2: close the label set under dropping the newest symbol. The loop
  // bound re-reads nodes.size() because closure nodes append, and those
  // need their own closure too (each created node is strictly shallower
  // than its creator, so this terminates). An unpruned tree is already
  // closed (a context's count is at most its drop-last prefix's); budget
  // pruning and merging can leave holes.
  {
    std::vector<uint32_t> drop_last(nodes.size(), kUnset);
    for (uint32_t u = 0; u < nodes.size(); ++u) {
      EnsureDropLast(u, &nodes, &drop_last);
    }
  }

  // Phase 3: number states depth-major so a scoring walk, which can only
  // move between adjacent depths, touches adjacent table rows.
  const size_t n = nodes.size();
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&nodes](uint32_t a, uint32_t b) {
                     return nodes[a].depth < nodes[b].depth;
                   });
  std::vector<State> state_of(n);
  for (uint32_t pos = 0; pos < n; ++pos) state_of[order[pos]] = pos;

  depth_.resize(n);
  next_.resize(n * alphabet_size_);
  log_ratio_.resize(n * alphabet_size_);
  // All depths up front: the transition recurrence below inspects
  // depth_[q] for states q at the *same* depth as the one being processed,
  // which a fill-as-you-go scheme would leave unwritten.
  for (uint32_t pos = 0; pos < n; ++pos) depth_[pos] = nodes[order[pos]].depth;

  // Phase 4: transitions and prediction rows, processed shallow-to-deep so
  // every node's trie parent is already resolved.
  //
  //   step(u, a) = state of the longest tracked suffix of label(u)·a
  //              = node(label(u)·a) if tracked, else step(parent(u), a)
  //
  // where node(label(u)·a), when present, is the child along edge(u) of the
  // *full* extension step(parent(u), a) — the textbook failure-link
  // recurrence, with the parent playing the suffix-link role (in a
  // reversed-context trie the one-shorter suffix IS the parent).
  //
  // A state backed by a live node is its own prediction node. A closure
  // state is not a context the live walk can reach, so it predicts from its
  // parent's prediction node and copies the parent's (already filled) row.
  const double neg_inf = -std::numeric_limits<double>::infinity();

  for (uint32_t pos = 0; pos < n; ++pos) {
    const uint32_t u = order[pos];
    const ScratchNode& node = nodes[u];
    const size_t row = static_cast<size_t>(pos) * alphabet_size_;

    if (u == 0) {
      for (SymbolId a = 0; a < alphabet_size_; ++a) {
        uint32_t child = FindChild(nodes, 0, a);
        next_[row + a] = child == kUnset ? kRootState : state_of[child];
      }
    } else {
      const uint32_t p = node.parent;
      const size_t parent_row =
          static_cast<size_t>(state_of[p]) * alphabet_size_;
      for (SymbolId a = 0; a < alphabet_size_; ++a) {
        const State q = next_[parent_row + a];
        State target = q;
        if (depth_[q] == nodes[p].depth + 1) {
          // label(parent)·a is tracked; try the full label(u)·a below it.
          uint32_t child = FindChild(nodes, order[q], node.edge);
          if (child != kUnset) target = state_of[child];
        }
        next_[row + a] = target;
      }
      if (node.live == kNoPstNode) {
        std::copy_n(log_ratio_.begin() + static_cast<ptrdiff_t>(parent_row),
                    alphabet_size_,
                    log_ratio_.begin() + static_cast<ptrdiff_t>(row));
        continue;
      }
    }

    for (SymbolId a = 0; a < alphabet_size_; ++a) {
      // Same operations as the live path (NodeProbability → log → minus
      // background) so frozen scoring is bit-for-bit identical.
      const double p = pst.NodeProbability(node.live, a);
      const double log_p = p > 0.0 ? std::log(p) : neg_inf;
      log_ratio_[row + a] = log_p - background.LogProbability(a);
    }
  }

  ComputeDerived();

  static obs::Counter& freezes =
      obs::MetricsRegistry::Get().GetCounter("frozen_pst.freezes");
  static obs::Counter& states =
      obs::MetricsRegistry::Get().GetCounter("frozen_pst.states");
  freezes.Increment();
  states.Add(n);
}

void FrozenPst::ComputeDerived() {
  const double neg_inf = -std::numeric_limits<double>::infinity();
  max_symbol_log_ratio_.assign(alphabet_size_, neg_inf);
  max_log_ratio_ = neg_inf;
  const size_t n = depth_.size();
  for (size_t u = 0; u < n; ++u) {
    const size_t row = u * alphabet_size_;
    for (size_t a = 0; a < alphabet_size_; ++a) {
      const double r = log_ratio_[row + a];
      if (r > max_symbol_log_ratio_[a]) max_symbol_log_ratio_[a] = r;
    }
  }
  for (double r : max_symbol_log_ratio_) {
    if (r > max_log_ratio_) max_log_ratio_ = r;
  }
}

}  // namespace cluseq
