// Binary serialization for trained PSTs (live trees). Checkpoints embed
// these blobs (core/checkpoint.h); the served model artifact is the
// .fbank (pst/bank_serialization.h).
//
// Live-tree format (little-endian):
//   magic "PST2" | u64 alphabet_size | PstOptions fields | u64 node_count |
//   per live node (pre-order): u32 parent_index, u32 edge_symbol, u64 count,
//   u32 #next, (u32 symbol, u64 count)* | u32 crc32c of all prior bytes
// Node indices in the file are dense pre-order positions, so tombstones in
// the in-memory arena are compacted away on save.
//
// Durability and validation (DESIGN.md §11): the blob ends in a CRC32C of
// every preceding byte, verified before any field is parsed, so bit rot
// and truncation are rejected up front; the structural checks behind the
// checksum (size caps, pre-order parents, probability vectors within the
// alphabet, no trailing bytes) then hold even against an adversary who
// fixes up the CRC. Loads that fail these checks return Status::Corruption
// and bump the persistence.corruption_detected counter.

#ifndef CLUSEQ_PST_PST_SERIALIZATION_H_
#define CLUSEQ_PST_PST_SERIALIZATION_H_

#include <iosfwd>

#include "pst/pst.h"
#include "util/status.h"

namespace cluseq {

/// Writes `pst` to `out`.
Status SavePst(const Pst& pst, std::ostream& out);

/// Reads a PST from `in` into `*pst` (replacing its contents).
Status LoadPst(std::istream& in, Pst* pst);

}  // namespace cluseq

#endif  // CLUSEQ_PST_PST_SERIALIZATION_H_
