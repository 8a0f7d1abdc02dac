#include "pst/frozen_pst.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "pst/partition_text.h"
#include "util/thread_pool.h"

namespace cluseq {

namespace {

constexpr uint32_t kUnset = std::numeric_limits<uint32_t>::max();

// No such state (FillTransitions' child lookups).
constexpr FrozenPst::State kNoState = kUnset;

// log P̂ - log p(s), exactly as FrozenPst(const Pst&) computes it from
// Pst::NodeProbability.
double LogRatioOf(double p, double log_background) {
  const double log_p =
      p > 0.0 ? std::log(p) : -std::numeric_limits<double>::infinity();
  return log_p - log_background;
}

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
  std::vector<State> parent(n);
  std::vector<SymbolId> edge(n);
  for (uint32_t pos = 0; pos < n; ++pos) {
    const ScratchNode& node = nodes[order[pos]];
    depth_[pos] = node.depth;
    parent[pos] = state_of[node.parent];
    edge[pos] = node.edge;
  }

  // Phase 4: transitions, then prediction rows. A state backed by a live
  // node is its own prediction node. A closure state is not a context the
  // live walk can reach, so it predicts from its parent's prediction node
  // and copies the parent's (already filled) row.
  FillTransitions(parent, edge, [&](State q, SymbolId e) {
    const uint32_t child = FindChild(nodes, order[q], e);
    return child == kUnset ? kNoState : state_of[child];
  });
  log_ratio_.resize(n * alphabet_size_);
  for (uint32_t pos = 0; pos < n; ++pos) {
    const PstNodeId live = nodes[order[pos]].live;
    const auto row = log_ratio_.begin() +
                     static_cast<ptrdiff_t>(pos * alphabet_size_);
    if (live == kNoPstNode) {
      std::copy_n(log_ratio_.begin() +
                      static_cast<ptrdiff_t>(parent[pos] * alphabet_size_),
                  alphabet_size_, row);
      continue;
    }
    for (SymbolId a = 0; a < alphabet_size_; ++a) {
      row[a] = LogRatioOf(pst.NodeProbability(live, a),
                          background.LogProbability(a));
    }
  }

  ComputeDerived();
}

template <typename ChildOf>
void FrozenPst::FillTransitions(std::span<const State> parent,
                                std::span<const SymbolId> edge,
                                ChildOf child) {
  // States are processed shallow-to-deep so every state's parent row is
  // already resolved:
  //
  //   step(u, a) = state of the longest tracked suffix of label(u)·a
  //              = node(label(u)·a) if tracked, else step(parent(u), a)
  //
  // where node(label(u)·a), when present, is the child along edge(u) of the
  // *full* extension step(parent(u), a) — the textbook failure-link
  // recurrence, with the parent playing the suffix-link role (in a
  // reversed-context trie the one-shorter suffix IS the parent).
  const size_t n = depth_.size();
  next_.resize(n * alphabet_size_);
  for (SymbolId a = 0; a < alphabet_size_ && n > 0; ++a) {
    const State c = child(kRootState, a);
    next_[a] = c == kNoState ? kRootState : c;
  }
  for (size_t u = 1; u < n; ++u) {
    const State p = parent[u];
    const size_t row = u * alphabet_size_;
    const size_t parent_row = static_cast<size_t>(p) * alphabet_size_;
    for (SymbolId a = 0; a < alphabet_size_; ++a) {
      const State q = next_[parent_row + a];
      State target = q;
      if (depth_[q] == depth_[p] + 1) {
        // label(parent)·a is tracked; try the full label(u)·a below it.
        const State c = child(q, edge[u]);
        if (c != kNoState) target = c;
      }
      next_[row + a] = target;
    }
  }
}

// Compile's state. The text (PartitionText) holds every segment after a
// boundary, so the context symbol of position p at depth d is text[p - d],
// and a context ends at the first boundary or at max_depth. A context's
// *range* is a run of `order_` holding the positions whose context it is.
// Pass 1 partitions the range of each context with at least c positions by
// the next older symbol into its children's ranges, breadth-first within
// each root subtree, and keeps only the children with at least c
// positions: the states. Numbering the states depth-major, subtree by subtree, gives
// FrozenPst(tree)'s breadth-first order, because a subtree's contexts of
// one length all precede the next subtree's. Pass 2 writes the rows from
// the next-symbol counts pass 1 kept.
class FrozenPst::Compiler {
 public:
  Compiler(std::vector<SymbolId> text, size_t alphabet_size,
           const PstOptions& options)
      : text_(std::move(text)),
        alphabet_size_(alphabet_size),
        depth_(options.max_depth),
        significance_(options.significance_threshold),
        p_min_(options.smoothing_p_min) {}

  void Run(const BackgroundModel& background, size_t num_threads,
           FrozenPst* out) {
    SplitRoot();
    const size_t threads = ResolveThreads(
        num_positions_ < kMinParallelPositions ? 1 : num_threads);
    // One set of tallies per worker; the workers take the subtrees largest
    // first.
    std::vector<size_t> by_size(subtrees_.size());
    for (size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
    std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
      return subtrees_[a].hi - subtrees_[a].lo >
             subtrees_[b].hi - subtrees_[b].lo;
    });
    std::atomic<size_t> cursor{0};
    const size_t workers = std::max<size_t>(
        1, std::min(threads, subtrees_.size()));
    ParallelFor(workers, workers, [&](size_t) {
      Tallies tallies(alphabet_size_);
      for (size_t k; (k = cursor.fetch_add(1)) < by_size.size();) {
        Partition(&subtrees_[by_size[k]], &tallies);
      }
    });
    Number(out);
    out->FillTransitions(parent_, edge_, [&](State q, SymbolId e) {
      const auto begin = edge_.begin() + first_child_[q];
      const auto end = begin + num_children_[q];
      const auto it = std::lower_bound(begin, end, e);
      return it == end || *it != e
                 ? kNoState
                 : static_cast<State>(it - edge_.begin());
    });
    EmitRows(background, threads, out);
    out->ComputeDerived();
  }

 private:
  // A context whose whole suffix chain counts at least c positions.
  struct Context {
    uint32_t lo;      // Its positions: order_[lo, hi).
    uint32_t hi;
    uint32_t parent;  // Index in its subtree's previous level.
    SymbolId edge;    // Its oldest symbol.
    // Its next-symbol counts: the subtree's next[next_at, next_end).
    uint32_t next_at = 0;
    uint32_t next_end = 0;
  };
  // A depth-1 context and everything below it.
  struct Subtree {
    SymbolId symbol = 0;
    uint32_t lo = 0;
    uint32_t hi = 0;
    // levels[d - 1]: its contexts of length d, breadth-first.
    std::vector<std::vector<Context>> levels{};
    std::vector<std::pair<SymbolId, uint32_t>> next{};
  };
  struct Tallies {
    explicit Tallies(size_t alphabet_size)
        : next(alphabet_size), keys(alphabet_size), cursor(alphabet_size) {}
    SymbolTally next;
    SymbolTally keys;
    std::vector<uint32_t> cursor;  // kUnset for a key with < c positions.
  };

  // The root counts every position. Its children group the positions that
  // have a context symbol by that symbol; only the groups of at least c
  // positions are kept.
  void SplitRoot() {
    root_next_.assign(alphabet_size_, 0);
    std::vector<uint32_t> start(alphabet_size_ + 1, 0);
    for (uint32_t p = 1; p < text_.size(); ++p) {
      if (text_[p] == kTextBoundary) continue;
      ++num_positions_;
      ++root_next_[text_[p]];
      if (text_[p - 1] != kTextBoundary) ++start[text_[p - 1] + 1];
    }
    uint32_t at = 0;
    for (size_t s = 0; s < alphabet_size_; ++s) {
      const uint32_t count = start[s + 1];
      start[s + 1] = kUnset;
      if (count < significance_) continue;
      subtrees_.push_back({.symbol = static_cast<SymbolId>(s),
                           .lo = at,
                           .hi = at + count});
      start[s + 1] = at;
      at += count;
    }
    order_.resize(at);
    scratch_.resize(at);
    for (uint32_t p = 1; p < text_.size(); ++p) {
      if (text_[p] == kTextBoundary || text_[p - 1] == kTextBoundary) continue;
      uint32_t& next = start[text_[p - 1] + 1];
      if (next != kUnset) order_[next++] = p;
    }
  }

  // Pass 1 over one subtree, one level at a time: tallies each context's
  // next symbols and partitions its range among the children with at least
  // c positions.
  void Partition(Subtree* subtree, Tallies* tallies) {
    subtree->levels.push_back(
        {{.lo = subtree->lo, .hi = subtree->hi, .parent = 0,
          .edge = subtree->symbol}});
    for (uint32_t depth = 1;; ++depth) {
      std::vector<Context>& level = subtree->levels.back();
      std::vector<Context> below;
      const bool leaf = depth >= depth_;
      for (uint32_t i = 0; i < level.size(); ++i) {
        Context& context = level[i];
        for (uint32_t k = context.lo; k < context.hi; ++k) {
          const uint32_t p = order_[k];
          tallies->next.Add(text_[p]);
          if (leaf) continue;
          const SymbolId key = text_[p - depth - 1];
          if (key != kTextBoundary) tallies->keys.Add(key);
        }
        context.next_at = static_cast<uint32_t>(subtree->next.size());
        for (SymbolId s : tallies->next.Distinct()) {
          subtree->next.emplace_back(s, tallies->next.Count(s));
        }
        context.next_end = static_cast<uint32_t>(subtree->next.size());
        tallies->next.Reset();
        if (tallies->keys.NumDistinct() == 0) continue;
        // Children in ascending key order, packed from the range's start.
        uint32_t at = context.lo;
        const size_t first = below.size();
        for (SymbolId key : tallies->keys.Sorted()) {
          const uint32_t count = tallies->keys.Count(key);
          if (count < significance_) {
            tallies->cursor[key] = kUnset;
            continue;
          }
          tallies->cursor[key] = at;
          below.push_back({.lo = at, .hi = at + count, .parent = i,
                           .edge = key});
          at += count;
        }
        tallies->keys.Reset();
        // Nothing to move when no child is kept, or one child keeps every
        // position.
        if (below.size() == first ||
            (below.size() == first + 1 && at == context.hi)) {
          continue;
        }
        for (uint32_t k = context.lo; k < context.hi; ++k) {
          const uint32_t p = order_[k];
          const SymbolId key = text_[p - depth - 1];
          if (key == kTextBoundary || tallies->cursor[key] == kUnset) continue;
          scratch_[tallies->cursor[key]++] = p;
        }
        std::copy(scratch_.begin() + context.lo, scratch_.begin() + at,
                  order_.begin() + context.lo);
      }
      if (below.empty()) break;
      subtree->levels.push_back(std::move(below));
    }
  }

  // Numbers the states depth-major (subtrees in symbol order within each
  // depth) and records each state's parent, edge, children and counts.
  void Number(FrozenPst* out) {
    size_t levels = 0;
    size_t n = 1;
    for (const Subtree& subtree : subtrees_) {
      levels = std::max(levels, subtree.levels.size());
      for (const auto& level : subtree.levels) n += level.size();
    }
    out->depth_.assign(n, 0);
    parent_.assign(n, kRootState);
    edge_.assign(n, 0);
    first_child_.assign(n, 0);
    num_children_.assign(n, 0);
    count_.assign(n, 0);
    next_.assign(n, {});
    count_[kRootState] = num_positions_;
    for (size_t s = 0; s < alphabet_size_; ++s) {
      if (root_next_[s] > 0) {
        root_entries_.emplace_back(static_cast<SymbolId>(s), root_next_[s]);
      }
    }
    next_[kRootState] = root_entries_;
    // base[t]: the state of subtree t's first context of the previous
    // level.
    std::vector<State> base(subtrees_.size(), kRootState);
    State u = 1;
    for (size_t d = 1; d <= levels; ++d) {
      for (size_t t = 0; t < subtrees_.size(); ++t) {
        const Subtree& subtree = subtrees_[t];
        if (subtree.levels.size() < d) continue;
        const State first = u;
        for (const Context& context : subtree.levels[d - 1]) {
          const State parent = d == 1 ? kRootState : base[t] + context.parent;
          if (num_children_[parent]++ == 0) first_child_[parent] = u;
          out->depth_[u] = static_cast<uint32_t>(d);
          parent_[u] = parent;
          edge_[u] = context.edge;
          count_[u] = context.hi - context.lo;
          next_[u] = std::span(subtree.next)
                         .subspan(context.next_at,
                                  context.next_end - context.next_at);
          ++u;
        }
        base[t] = first;
      }
    }
  }

  // Pass 2: each state's log-ratio row from its counts, with
  // Pst::NodeProbability's arithmetic (Pst::Probability). A symbol a
  // context never precedes gets the same probability in every context
  // that counts any position, so its log ratio is computed once.
  void EmitRows(const BackgroundModel& background, size_t threads,
                FrozenPst* out) {
    const size_t n = count_.size();
    const size_t alphabet = alphabet_size_;
    std::vector<double> unseen(alphabet);
    for (SymbolId a = 0; a < alphabet; ++a) {
      unseen[a] = LogRatioOf(Pst::Probability(0, 1, alphabet, p_min_),
                             background.LogProbability(a));
    }
    out->log_ratio_.resize(n * alphabet);
    ParallelFor(n, threads, [&](size_t u) {
      double* row = out->log_ratio_.data() + u * alphabet;
      const uint64_t count = count_[u];
      if (count == 0) {  // Only the root of an empty text.
        for (SymbolId a = 0; a < alphabet; ++a) {
          row[a] = LogRatioOf(Pst::Probability(0, 0, alphabet, p_min_),
                              background.LogProbability(a));
        }
        return;
      }
      std::copy(unseen.begin(), unseen.end(), row);
      for (const auto& [s, next] : next_[u]) {
        row[s] = LogRatioOf(Pst::Probability(next, count, alphabet, p_min_),
                            background.LogProbability(s));
      }
    });
  }

  const std::vector<SymbolId> text_;
  const size_t alphabet_size_;
  const size_t depth_;
  const uint64_t significance_;
  const double p_min_;
  uint64_t num_positions_ = 0;
  std::vector<uint64_t> root_next_;
  std::vector<uint32_t> order_;    // Positions, partitioned in place.
  std::vector<uint32_t> scratch_;  // Partition buffer, parallel to order_.
  std::vector<Subtree> subtrees_;
  // Per state, in state order.
  std::vector<State> parent_;
  std::vector<SymbolId> edge_;
  std::vector<State> first_child_;
  std::vector<uint32_t> num_children_;
  std::vector<uint64_t> count_;
  std::vector<std::span<const std::pair<SymbolId, uint32_t>>> next_;
  std::vector<std::pair<SymbolId, uint32_t>> root_entries_;
};

FrozenPst FrozenPst::Compile(
    std::span<const std::span<const SymbolId>> segments, size_t alphabet_size,
    const PstOptions& options, const BackgroundModel& background,
    size_t num_threads) {
  // A memory budget's pruning depends on insertion order, and segments the
  // partition cannot take (PartitionText) need the tree too.
  std::optional<std::vector<SymbolId>> text;
  if (options.max_memory_bytes == 0) {
    text = PartitionText(segments, alphabet_size);
  }
  if (!text) {
    Pst pst(alphabet_size, options);
    pst.Build(segments, num_threads);
    return FrozenPst(pst, background);
  }
  FrozenPst out;
  out.alphabet_size_ = alphabet_size;
  out.max_depth_ = options.max_depth;
  Compiler(std::move(*text), alphabet_size,
           Pst::EffectiveOptions(alphabet_size, options))
      .Run(background, num_threads, &out);
  return out;
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

  static obs::Counter& freezes =
      obs::MetricsRegistry::Get().GetCounter("frozen_pst.freezes");
  static obs::Counter& states =
      obs::MetricsRegistry::Get().GetCounter("frozen_pst.states");
  freezes.Increment();
  states.Add(n);
}

}  // namespace cluseq
