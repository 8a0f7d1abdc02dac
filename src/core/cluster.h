// Cluster: one CLUSEQ cluster — a PST summary, the segments it counts, and
// its current members.

#ifndef CLUSEQ_CORE_CLUSTER_H_
#define CLUSEQ_CORE_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/sequence.h"
#include "seq/sequence_store.h"

namespace cluseq {

class Cluster {
 public:
  /// Half-open segment [begin, end) of a member sequence.
  struct Segment {
    size_t begin = 0;
    size_t end = 0;
    friend bool operator==(const Segment&, const Segment&) = default;
  };

  /// Creates an empty cluster with a fresh PST.
  Cluster(uint32_t id, size_t alphabet_size, const PstOptions& pst_options)
      : id_(id), pst_(alphabet_size, pst_options) {}

  /// Initializes the cluster from a single seed sequence: the PST is built
  /// from the entire sequence (paper §4.4).
  void Seed(std::span<const SymbolId> symbols, size_t seq_index) {
    seed_index_ = static_cast<int64_t>(seq_index);
    Count(seq_index, symbols, Segment{0, symbols.size()});
  }
  void Seed(const Sequence& seq, size_t seq_index) {
    Seed(std::span<const SymbolId>(seq.symbols()), seq_index);
  }

  /// Inserts the similarity-maximizing segment [begin, end) of `full` (the
  /// whole sequence) for a sequence that *becomes* a member (paper §4.2 /
  /// §4.4: "only the segment that produces the highest similarity score is
  /// used"). Each sequence contributes its segment at most once per
  /// cluster: re-inserting on every iteration would multiply private
  /// context counts by the iteration number, pushing memorized
  /// single-sequence contexts past the significance threshold c and
  /// freezing early (possibly wrong) memberships in place.
  void AbsorbSegment(size_t seq_index, std::span<const SymbolId> full,
                     size_t begin, size_t end) {
    if (!HasAbsorbed(seq_index)) Count(seq_index, full, Segment{begin, end});
  }

  /// Convenience overload: the span *is* the contributed segment.
  void AbsorbSegment(size_t seq_index, std::span<const SymbolId> segment) {
    AbsorbSegment(seq_index, segment, 0, segment.size());
  }

  /// AbsorbSegment for each (sequence, segment of that sequence in `db`)
  /// of `batch`, in order, with one Pst::InsertSequences on up to
  /// `num_threads` workers: the same tree, node ids included.
  void AbsorbSegments(const std::vector<std::pair<size_t, Segment>>& batch,
                      const SequenceStore& db, size_t num_threads) {
    const auto segments = Record(batch, db);
    if (!segments.empty()) pst_dirty_ = true;
    pst_.InsertSequences(segments, num_threads);
  }

  /// Whether the sequence has already contributed to this cluster's PST.
  bool HasAbsorbed(size_t seq_index) const {
    return position_.contains(seq_index);
  }

  /// Which segment of each contributing sequence the tree currently counts,
  /// in the order the segments were inserted. Every mutation of the tree
  /// goes through Seed, AbsorbSegment(s) or Rebuild, so rebuilding
  /// from these segments in this order gives the identical tree — node ids
  /// and §5.1 pruning included. Checkpoints store this table instead of
  /// the tree.
  const std::vector<std::pair<size_t, Segment>>& contributions() const {
    return contributions_;
  }

  /// True iff the PST currently counts exactly segment
  /// `contributions[i].second` of each sequence `contributions[i].first`
  /// and nothing else — i.e. rebuilding the tree from them would re-count
  /// the identical multiset of insertions. The incremental re-freeze skip
  /// hinges on this.
  bool ContributionsMatch(
      const std::vector<std::pair<size_t, Segment>>& contributions) const {
    if (contributions_.size() != contributions.size()) return false;
    for (const auto& [seq_index, seg] : contributions) {
      auto it = position_.find(seq_index);
      if (it == position_.end() ||
          !(contributions_[it->second].second == seg)) {
        return false;
      }
    }
    return true;
  }

  /// Drops all statistics and rebuilds the tree from segment
  /// `contributions[i].second` of each sequence `contributions[i].first` of
  /// `db`, in order: the tree an empty cluster gets from one AbsorbSegment
  /// per entry (a sequence listed twice counts once), built in bulk by
  /// Pst::Build on up to `num_threads` workers. Used by the per-iteration
  /// purification step (CluseqClusterer::RebuildClusterPsts) and by
  /// checkpoint resume.
  void Rebuild(const std::vector<std::pair<size_t, Segment>>& contributions,
               const SequenceStore& db, size_t num_threads) {
    // Build replaces the whole tree, so it is not cleared first: that would
    // only reset storage Build overwrites.
    contributions_.clear();
    position_.clear();
    pst_dirty_ = true;
    pst_.Build(Record(contributions, db), num_threads);
  }

  uint32_t id() const { return id_; }
  const Pst& pst() const { return pst_; }

  /// Dirty bit: set whenever the live tree may have diverged from the last
  /// compiled snapshot; cleared by SetFrozen().
  bool pst_dirty() const { return pst_dirty_; }

  /// The cached compiled snapshot is usable iff it exists and the tree has
  /// not been touched since it was compiled.
  bool frozen_fresh() const { return frozen_ != nullptr && !pst_dirty_; }
  const std::shared_ptr<const FrozenPst>& frozen() const { return frozen_; }
  void SetFrozen(std::shared_ptr<const FrozenPst> snapshot) {
    frozen_ = std::move(snapshot);
    pst_dirty_ = false;
  }

  /// Index of the seed sequence, or -1 when constructed empty.
  int64_t seed_index() const { return seed_index_; }

  const std::vector<size_t>& members() const { return members_; }
  size_t size() const { return members_.size(); }

  void ClearMembers() { members_.clear(); }
  void AddMember(size_t seq_index) { members_.push_back(seq_index); }
  void SetMembers(std::vector<size_t> members) {
    members_ = std::move(members);
  }

  /// Reinstates the cross-iteration state of a cluster when resuming from
  /// a checkpoint: the seed and the membership in its stored order. The
  /// tree is not stored; the caller rebuilds it with Rebuild from the
  /// recorded contributions in their recorded order. The
  /// frozen snapshot is a pure function of the tree and the background
  /// model and is recompiled on demand.
  void RestoreForResume(int64_t seed_index, std::vector<size_t> members) {
    seed_index_ = seed_index;
    members_ = std::move(members);
  }

 private:
  /// Records each (sequence, segment) of `batch` whose sequence has not
  /// contributed yet, and returns those segments of `db`'s sequences, in
  /// order, for the tree to count.
  std::vector<std::span<const SymbolId>> Record(
      const std::vector<std::pair<size_t, Segment>>& batch,
      const SequenceStore& db) {
    std::vector<std::span<const SymbolId>> segments;
    segments.reserve(batch.size());
    for (const auto& [seq_index, seg] : batch) {
      if (!position_.emplace(seq_index, contributions_.size()).second) {
        continue;
      }
      contributions_.emplace_back(seq_index, seg);
      segments.push_back(
          db.Symbols(seq_index).subspan(seg.begin, seg.end - seg.begin));
    }
    return segments;
  }

  /// Inserts segment `seg` of `full` and records it as seq_index's
  /// contribution.
  void Count(size_t seq_index, std::span<const SymbolId> full, Segment seg) {
    pst_.InsertSequence(full.subspan(seg.begin, seg.end - seg.begin));
    position_.emplace(seq_index, contributions_.size());
    contributions_.emplace_back(seq_index, seg);
    pst_dirty_ = true;
  }

  uint32_t id_;
  Pst pst_;
  /// Which segment of each contributing sequence the tree currently counts,
  /// in insertion order; position_ maps a sequence to its entry.
  std::vector<std::pair<size_t, Segment>> contributions_;
  std::unordered_map<size_t, size_t> position_;
  /// Compiled snapshot of pst_, valid while !pst_dirty_ (see SetFrozen).
  std::shared_ptr<const FrozenPst> frozen_;
  bool pst_dirty_ = true;
  int64_t seed_index_ = -1;
  std::vector<size_t> members_;
};

}  // namespace cluseq

#endif  // CLUSEQ_CORE_CLUSTER_H_
