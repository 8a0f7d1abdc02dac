// .fbank: a single-file, mmap-able, checksummed snapshot *set* — all k
// cluster models of a FrozenBank in one blob (DESIGN.md §11). It is the
// one served model artifact: `cluseq_cli cluster --model-dir` writes only
// bank.fbank and `classify` reads only that file.
//
// The bank's arena is already position-independent bytes (Entry::next
// holds model-local row offsets), so the file is the arena plus a layout
// description, and loading is validation plus a pointer fixup: sharded
// serving workers that mmap the same .fbank share page-cache pages
// instead of each recompiling k models from their trees.
//
// Layout (little-endian; every multi-byte field at its natural offset):
//
//   FileHeader (32 B)   magic "CSQFBNK1" | u32 version=1 | u32 flags=0 |
//                       u64 file_size | u32 section_count=3 |
//                       u32 header_crc   (CRC32C of the preceding 28 B)
//   SectionEntry ×3     u32 id | u32 reserved | u64 offset | u64 size |
//       (32 B each)     u32 crc32c | u32 reserved    (ids: 1 meta,
//                       2 bases, 3 entries; offsets from file start)
//   meta section        u64 alphabet_size | u64 num_models |
//                       { u64 num_states, u64 max_depth } × num_models
//   bases section       u64 entry_offset × num_models (prefix sums of
//                       states·alphabet — redundant, checked exactly)
//   entries section     FrozenBank::Entry × Σ states·alphabet, offset
//                       64-byte aligned (zero-padded gap before it)
//   FileFooter (16 B)   magic "1KNBFQSC" | u32 file_crc (CRC32C of every
//                       byte before the footer) | u32 reserved
//
// Loads verify, in order: header magic/version/flags/CRC, declared vs
// actual file size, footer magic + whole-file CRC, the section table
// against the recomputed canonical layout, per-section CRCs, size caps on
// every count before any allocation, the bases prefix sums, and finally
// every arena entry (next offset in range and row-aligned, log-ratio not
// NaN/+inf, padding zero). No on-disk byte pattern reaches ScanAll
// unchecked; failures return Status::Corruption and bump the
// persistence.corruption_detected counter. Writes go through
// WriteFileAtomic (util/file_io.h), so a crashed saver never leaves a
// partial .fbank at the final path.

#ifndef CLUSEQ_PST_BANK_SERIALIZATION_H_
#define CLUSEQ_PST_BANK_SERIALIZATION_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "pst/frozen_bank.h"
#include "util/status.h"

namespace cluseq {

/// Fixed framing sizes, exported so tests can compute section boundaries.
inline constexpr size_t kFbankHeaderBytes = 32;
inline constexpr size_t kFbankSectionEntryBytes = 32;
inline constexpr size_t kFbankSectionCount = 3;
inline constexpr size_t kFbankFooterBytes = 16;
inline constexpr size_t kFbankEntriesAlignment = 64;

struct FbankLoadOptions {
  /// Serve the arena straight from a shared read-only mmap (zero-copy;
  /// pages shared across processes). When false — or when mmap fails —
  /// the file is read buffered and the rows copied into the bank's own
  /// (hugepage-advised) arena.
  bool prefer_mmap = true;
};

struct FbankLoadInfo {
  bool mmap = false;      ///< Rows are served from the file mapping.
  size_t file_bytes = 0;
  size_t num_models = 0;
};

/// Serializes `bank` (which must be non-empty) into `*blob`.
Status SaveFrozenBank(const FrozenBank& bank, std::string* blob);

/// Serializes and atomically writes `bank` to `path`.
Status SaveFrozenBankToFile(const FrozenBank& bank, const std::string& path);

/// Validates `blob` and installs it into `*bank` (rows copied into an
/// owned arena). On any validation failure `*bank` is left untouched.
Status LoadFrozenBank(std::string_view blob, FrozenBank* bank);

/// Validates the file and installs it into `*bank`, zero-copy when the
/// mmap path is taken (see FbankLoadOptions).
Status LoadFrozenBankFromFile(const std::string& path, FrozenBank* bank,
                              const FbankLoadOptions& options = {},
                              FbankLoadInfo* info = nullptr);

}  // namespace cluseq

#endif  // CLUSEQ_PST_BANK_SERIALIZATION_H_
