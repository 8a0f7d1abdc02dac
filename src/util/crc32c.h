// CRC32C (Castagnoli, polynomial 0x1EDC6F41): the checksum used by every
// on-disk format (pst/bank_serialization.h, seq/seqdb_writer.h and
// core/checkpoint.h). Chosen over CRC32 for its widespread use in
// storage formats (iSCSI, ext4, RocksDB) and its hardware support story;
// this implementation is a portable slicing-by-4 table walk, fast enough
// that checksumming is never the bottleneck next to the disk.
//
// Convention matches the RFC 3720 test vectors: Crc32c("123456789") ==
// 0xE3069283, Crc32c("") == 0. Crc32cExtend composes incrementally:
// Crc32cExtend(Crc32c(a), b) == Crc32c(a + b).

#ifndef CLUSEQ_UTIL_CRC32C_H_
#define CLUSEQ_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cluseq {

/// CRC32C of `size` bytes at `data`.
uint32_t Crc32c(const void* data, size_t size);

inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(data.data(), data.size());
}

/// Extends a previously computed CRC with more bytes (streaming use).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

}  // namespace cluseq

#endif  // CLUSEQ_UTIL_CRC32C_H_
