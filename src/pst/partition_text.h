// What Pst::Build (pst.cc) and FrozenPst::Compile (frozen_pst.cc) share:
// the text their stable partitions of context positions run over, and the
// symbol tallies of one range of it.

#ifndef CLUSEQ_PST_PARTITION_TEXT_H_
#define CLUSEQ_PST_PARTITION_TEXT_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "seq/alphabet.h"

namespace cluseq {

/// Separates the segments in a partition text: no context reaches past it.
inline constexpr SymbolId kTextBoundary = kInvalidSymbol;

/// Below this many positions a partition runs on the calling thread alone.
inline constexpr size_t kMinParallelPositions = size_t{1} << 12;

/// The segments in one text, each after a kTextBoundary, so that the
/// context symbol of position p at depth d is text[p - d]. Empty when a
/// symbol lies outside the alphabet (the tallies are dense) or the text
/// passes uint32 offsets (positions are uint32): the partitions cannot
/// take such segments.
inline std::optional<std::vector<SymbolId>> PartitionText(
    std::span<const std::span<const SymbolId>> segments,
    size_t alphabet_size) {
  size_t text_size = 0;
  for (const auto segment : segments) {
    text_size += segment.size() + 1;
    if (!std::all_of(segment.begin(), segment.end(),
                     [&](SymbolId s) { return s < alphabet_size; })) {
      return std::nullopt;
    }
  }
  if (text_size >= std::numeric_limits<uint32_t>::max()) return std::nullopt;
  std::vector<SymbolId> text;
  text.reserve(text_size);
  for (const auto segment : segments) {
    text.push_back(kTextBoundary);
    text.insert(text.end(), segment.begin(), segment.end());
  }
  return text;
}

/// Multiset of symbols over a dense alphabet: counts plus the distinct
/// symbols seen, so that a reset costs the number of distinct symbols.
class SymbolTally {
 public:
  explicit SymbolTally(size_t alphabet_size) : count_(alphabet_size, 0) {}

  void Add(SymbolId s) {
    if (count_[s]++ == 0) distinct_.push_back(s);
  }
  uint32_t Count(SymbolId s) const { return count_[s]; }
  size_t NumDistinct() const { return distinct_.size(); }
  /// The distinct symbols in the order first seen.
  std::span<const SymbolId> Distinct() const { return distinct_; }
  /// The distinct symbols in ascending order.
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

}  // namespace cluseq

#endif  // CLUSEQ_PST_PARTITION_TEXT_H_
