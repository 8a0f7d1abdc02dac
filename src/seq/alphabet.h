// Alphabet: a bidirectional mapping between symbol names and dense ids.
//
// CLUSEQ operates over an arbitrary finite alphabet (amino acids, letters,
// log-event codes, ...). Internally every symbol is a dense SymbolId so the
// PST and the similarity DP work on small integers; the Alphabet owns the
// mapping back to human-readable names.

#ifndef CLUSEQ_SEQ_ALPHABET_H_
#define CLUSEQ_SEQ_ALPHABET_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace cluseq {

/// Dense symbol identifier; ids are assigned contiguously from 0.
using SymbolId = uint32_t;

/// Sentinel returned by lookups of unknown symbols.
inline constexpr SymbolId kInvalidSymbol = static_cast<SymbolId>(-1);

class Alphabet {
 public:
  Alphabet() = default;

  /// Builds an alphabet from single characters, e.g. "abcdefg" or the
  /// 20-letter amino-acid code.
  static Alphabet FromChars(std::string_view chars);

  /// Builds an alphabet of `n` synthetic symbols. Up to 62 symbols get
  /// single-character names ("a".."z", "A".."Z", "0".."9", in that order),
  /// so a synthetic corpus round-trips through the text formats; larger
  /// alphabets are named "s0".."s{n-1}" and can only be stored as .sqdb.
  static Alphabet Synthetic(size_t n);

  /// Interns `name`, returning its id (existing or freshly assigned).
  SymbolId Intern(std::string_view name);

  /// Looks up `name`; returns kInvalidSymbol when absent.
  SymbolId Find(std::string_view name) const;

  /// Name for an id. Requires id < size().
  const std::string& Name(SymbolId id) const { return names_[id]; }

  /// Number of distinct symbols.
  size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

  /// Encodes a character string symbol-per-character. Fails with
  /// InvalidArgument on characters not present (unless intern_missing).
  Status EncodeChars(std::string_view text, bool intern_missing,
                     std::vector<SymbolId>* out);

  /// Removes every symbol with id >= `n` (ids are dense and append-only,
  /// so this exactly undoes the interning done after the alphabet had `n`
  /// symbols). No-op when n >= size().
  void Truncate(size_t n);

  /// Decodes ids back to a character string (only meaningful for alphabets
  /// of single-character names; multi-char names are concatenated).
  std::string Decode(std::span<const SymbolId> ids) const;
  std::string Decode(const std::vector<SymbolId>& ids) const {
    return Decode(std::span<const SymbolId>(ids));
  }

 private:
  std::unordered_map<std::string, SymbolId> index_;
  std::vector<std::string> names_;
};

}  // namespace cluseq

#endif  // CLUSEQ_SEQ_ALPHABET_H_
