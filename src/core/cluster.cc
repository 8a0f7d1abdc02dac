#include "core/cluster.h"

namespace cluseq {

Cluster::Cluster(uint32_t id, size_t alphabet_size,
                 const PstOptions& pst_options)
    : id_(id),
      alphabet_size_(alphabet_size),
      pst_options_(pst_options),
      tree_(std::make_unique<Tree>(alphabet_size, pst_options)) {}

Cluster::Cluster(uint32_t id, const SequenceStore& db,
                 const PstOptions& pst_options)
    : id_(id),
      db_(&db),
      alphabet_size_(db.alphabet().size()),
      pst_options_(pst_options),
      tree_(std::make_unique<Tree>(alphabet_size_, pst_options)) {}

void Cluster::Count(size_t seq_index, std::span<const SymbolId> full,
                    Segment seg) {
  if (!compiled()) {
    tree_->pst.InsertSequence(full.subspan(seg.begin, seg.end - seg.begin));
  }
  Record(seq_index, seg);
  Changed();
}

void Cluster::Record(size_t seq_index, Segment seg) {
  if (!position_.emplace(seq_index, contributions_.size()).second) return;
  contributions_.emplace_back(seq_index, seg);
  num_symbols_ += seg.end - seg.begin;
}

void Cluster::Changed() {
  pst_dirty_ = true;
  if (compiled() && tree_->used) {
    tree_ = std::make_unique<Tree>(alphabet_size_, pst_options_);
  }
}

std::vector<std::span<const SymbolId>> Cluster::Segments(
    const SequenceStore& db) const {
  std::vector<std::span<const SymbolId>> segments;
  segments.reserve(contributions_.size());
  for (const auto& [seq_index, seg] : contributions_) {
    segments.push_back(
        db.Symbols(seq_index).subspan(seg.begin, seg.end - seg.begin));
  }
  return segments;
}

void Cluster::Rebuild(
    const std::vector<std::pair<size_t, Segment>>& contributions,
    const SequenceStore& db, size_t num_threads) {
  contributions_.clear();
  position_.clear();
  num_symbols_ = 0;
  for (const auto& [seq_index, seg] : contributions) Record(seq_index, seg);
  Changed();
  // Build replaces the whole tree, so it is not cleared first: that would
  // only reset storage Build overwrites.
  if (!compiled()) tree_->pst.Build(Segments(db), num_threads);
}

std::shared_ptr<const FrozenPst> Cluster::Snapshot(
    const BackgroundModel& background, size_t num_threads) const {
  if (!compiled()) {
    return std::make_shared<const FrozenPst>(tree_->pst, background);
  }
  return std::make_shared<const FrozenPst>(
      FrozenPst::Compile(Segments(*db_), alphabet_size_, pst_options_,
                         background, num_threads));
}

const Pst& Cluster::pst() const {
  if (compiled()) {
    std::call_once(tree_->built, [this] {
      tree_->pst.Build(Segments(*db_), 1);
      tree_->used = true;
    });
  }
  return tree_->pst;
}

}  // namespace cluseq
