// Cluster: one CLUSEQ cluster — what its summary counts, the compiled
// snapshot it is scored with, and its current members.
//
// The summary is the PST of the cluster's contributions: one segment of
// each contributing sequence, counted in insertion order. A cluster holds
// it in one of two ways:
//   * A live cluster keeps the Pst itself, and Seed, AbsorbSegment and
//     Rebuild update it in place; its snapshot is a freeze of the tree.
//     §4.2 within-scan mode needs this, because each join changes the
//     scores of the sequences after it, and so do --pst-memory budgets,
//     because §5.1 pruning follows insertion order.
//   * A compiled cluster keeps only the contributions, as (sequence,
//     segment) pairs of the SequenceStore it was made over. Its snapshot
//     is compiled straight from them (FrozenPst::Compile), byte for byte
//     the freeze of the tree they would build, so the batch-mode loop
//     builds no tree at all. pst() builds that tree on first request.

#ifndef CLUSEQ_CORE_CLUSTER_H_
#define CLUSEQ_CORE_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
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

  /// Creates an empty live cluster: a fresh PST that every contribution
  /// updates in place.
  Cluster(uint32_t id, size_t alphabet_size, const PstOptions& pst_options);

  /// Creates an empty compiled cluster over `db`, which must outlive it:
  /// every contribution is a segment of one of db's sequences, and no tree
  /// is kept.
  Cluster(uint32_t id, const SequenceStore& db, const PstOptions& pst_options);

  /// Whether this is a compiled cluster (see the file comment).
  bool compiled() const { return db_ != nullptr; }

  /// Initializes the cluster from a single seed sequence: the PST is built
  /// from the entire sequence (paper §4.4). A compiled cluster takes the
  /// sequence from its store.
  void Seed(std::span<const SymbolId> symbols, size_t seq_index) {
    seed_index_ = static_cast<int64_t>(seq_index);
    Count(seq_index, symbols, Segment{0, symbols.size()});
  }
  void Seed(const Sequence& seq, size_t seq_index) {
    Seed(std::span<const SymbolId>(seq.symbols()), seq_index);
  }

  /// Counts the similarity-maximizing segment [begin, end) of `full` (the
  /// whole sequence, which for a compiled cluster is the store's sequence
  /// `seq_index`) for a sequence that *becomes* a member (paper §4.2 /
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

  /// Whether the sequence has already contributed to this cluster's PST.
  bool HasAbsorbed(size_t seq_index) const {
    return position_.contains(seq_index);
  }

  /// Which segment of each contributing sequence the summary counts, in
  /// the order the segments were counted. Every change to the summary goes
  /// through Seed, AbsorbSegment or Rebuild, so building a tree from these
  /// segments in this order gives the live tree — node ids and §5.1
  /// pruning included — and a compiled cluster's snapshot is a function of
  /// them alone. Checkpoints store this table instead of the tree.
  const std::vector<std::pair<size_t, Segment>>& contributions() const {
    return contributions_;
  }

  /// Symbols across the contributed segments (the summary's root count).
  uint64_t num_symbols() const { return num_symbols_; }

  /// True iff the summary currently counts exactly segment
  /// `contributions[i].second` of each sequence `contributions[i].first`
  /// and nothing else — i.e. rebuilding it from them would re-count the
  /// identical multiset of insertions. The incremental re-freeze skip
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

  /// Drops all statistics and makes the summary count segment
  /// `contributions[i].second` of each sequence `contributions[i].first` of
  /// `db`, in order: what an empty cluster gets from one AbsorbSegment per
  /// entry (a sequence listed twice counts once). A live cluster builds its
  /// tree in bulk with Pst::Build on up to `num_threads` workers; a
  /// compiled cluster (over `db`) only records the segments. Used by the
  /// per-iteration purification step (CluseqClusterer::RebuildClusterPsts)
  /// and by checkpoint resume.
  void Rebuild(const std::vector<std::pair<size_t, Segment>>& contributions,
               const SequenceStore& db, size_t num_threads);

  /// A new snapshot of the summary: a compiled cluster's is compiled from
  /// its contributions on up to `num_threads` workers, a live cluster's is
  /// its tree frozen. Both are FrozenPst(pst(), background).
  std::shared_ptr<const FrozenPst> Snapshot(const BackgroundModel& background,
                                            size_t num_threads) const;

  uint32_t id() const { return id_; }

  /// The summary as a live tree. A compiled cluster builds it from its
  /// contributions on the first call after a change (Pst::Build, on the
  /// calling thread) and keeps it until the next change.
  const Pst& pst() const;

  /// Dirty bit: set whenever the summary may have diverged from the last
  /// compiled snapshot; cleared by SetFrozen().
  bool pst_dirty() const { return pst_dirty_; }

  /// The cached compiled snapshot is usable iff it exists and the summary
  /// has not been touched since it was compiled.
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
  /// summary is not stored; the caller restores it with Rebuild from the
  /// recorded contributions in their recorded order. The frozen snapshot
  /// is a pure function of the summary and the background model and is
  /// recompiled on demand.
  void RestoreForResume(int64_t seed_index, std::vector<size_t> members) {
    seed_index_ = seed_index;
    members_ = std::move(members);
  }

 private:
  // The live tree, or a compiled cluster's tree built on request.
  struct Tree {
    Tree(size_t alphabet_size, const PstOptions& options)
        : pst(alphabet_size, options) {}
    std::once_flag built;  // Compiled clusters: pst() has built `pst`.
    bool used = false;
    Pst pst;
  };

  /// Counts segment `seg` of `full` as seq_index's contribution.
  void Count(size_t seq_index, std::span<const SymbolId> full, Segment seg);

  /// Records (seq_index, seg) as the next contribution, unless the
  /// sequence has contributed already.
  void Record(size_t seq_index, Segment seg);

  /// Marks the summary changed: the snapshot is stale, and a compiled
  /// cluster's tree must be built again.
  void Changed();

  /// The contributed segments of `db`'s sequences, in order.
  std::vector<std::span<const SymbolId>> Segments(
      const SequenceStore& db) const;

  uint32_t id_;
  /// The store a compiled cluster's contributions index; nullptr for a live
  /// cluster.
  const SequenceStore* db_ = nullptr;
  size_t alphabet_size_;
  PstOptions pst_options_;
  std::unique_ptr<Tree> tree_;
  /// Which segment of each contributing sequence the summary counts, in
  /// insertion order; position_ maps a sequence to its entry.
  std::vector<std::pair<size_t, Segment>> contributions_;
  std::unordered_map<size_t, size_t> position_;
  uint64_t num_symbols_ = 0;
  /// Compiled snapshot of the summary, valid while !pst_dirty_ (see
  /// SetFrozen).
  std::shared_ptr<const FrozenPst> frozen_;
  bool pst_dirty_ = true;
  int64_t seed_index_ = -1;
  std::vector<size_t> members_;
};

}  // namespace cluseq

#endif  // CLUSEQ_CORE_CLUSTER_H_
