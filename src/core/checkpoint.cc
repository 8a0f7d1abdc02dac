#include "core/checkpoint.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "util/crc32c.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cluseq {

namespace {

constexpr char kMagic[4] = {'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 1;
constexpr uint32_t kSectionCount = 2;  // meta, state.
/// magic + version + file_bytes + section_count + flags
/// + 2 × (offset, size, crc, pad) + header_crc.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4 + 2 * 24 + 4;
/// Sanity cap before any allocation: no real checkpoint approaches this
/// (the state is O(corpus indices + PST nodes)), and a hostile size field
/// must not drive a huge resize.
constexpr uint64_t kMaxFileBytes = 1ULL << 32;
constexpr size_t kMaxBuildBytes = 256;

CheckpointSaveHook g_save_hook = nullptr;

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounded little-endian reader over an untrusted byte span. Every Read*
/// checks the remaining length; once a read fails, all later reads fail.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool ReadPod(T* value) {
    if (!ok_ || size_ - pos_ < sizeof(T)) return Fail();
    std::memcpy(value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(size_t count, std::string* out) {
    if (!ok_ || size_ - pos_ < count) return Fail();
    out->assign(data_ + pos_, count);
    pos_ += count;
    return true;
  }

  /// Reads a u64 element count and rejects it unless `count * min_bytes`
  /// still fits in the unread tail — the cap that makes later resizes safe.
  bool ReadCount(size_t min_elem_bytes, uint64_t* count) {
    if (!ReadPod(count)) return false;
    if (min_elem_bytes != 0 && *count > remaining() / min_elem_bytes) {
      return Fail();
    }
    return true;
  }

  template <typename T>
  bool ReadVec(uint64_t count, std::vector<T>* out) {
    if (!ok_ || size_ - pos_ < count * sizeof(T)) return Fail();
    out->resize(static_cast<size_t>(count));
    // An empty vector's data() may be null, and memcpy from/to null is
    // undefined even for zero bytes.
    if (count == 0) return true;
    std::memcpy(out->data(), data_ + pos_,
                static_cast<size_t>(count) * sizeof(T));
    pos_ += static_cast<size_t>(count) * sizeof(T);
    return true;
  }

  size_t remaining() const { return ok_ ? size_ - pos_ : 0; }
  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == size_; }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Status Corrupt(const std::string& detail) {
  static obs::Counter& corrupt = obs::MetricsRegistry::Get().GetCounter(
      "persistence.corruption_detected");
  corrupt.Increment();
  return Status::Corruption("checkpoint: " + detail);
}

// --- FNV-1a helpers for the fingerprints ------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * kFnvPrime;
  }
  return h;
}

uint64_t FnvMixDouble(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvMix(h, bits);
}

// --- section encoders --------------------------------------------------

std::string EncodeMeta(const ClustererCheckpoint& ckpt) {
  std::string out;
  AppendPod(&out, ckpt.options_fingerprint);
  AppendPod(&out, ckpt.corpus_fingerprint);
  AppendPod(&out, ckpt.num_sequences);
  AppendPod(&out, ckpt.total_symbols);
  std::string build = ckpt.build.substr(0, kMaxBuildBytes);
  AppendPod(&out, static_cast<uint32_t>(build.size()));
  out.append(build);
  return out;
}

std::string EncodeState(const ClustererCheckpoint& ckpt) {
  std::string out;
  AppendPod(&out, ckpt.iteration);
  AppendPod(&out, ckpt.log_t);
  AppendPod(&out, ckpt.next_cluster_id);
  AppendPod(&out, ckpt.prev_new);
  AppendPod(&out, ckpt.prev_consolidated);
  AppendPod(&out, static_cast<uint8_t>(ckpt.adjuster_frozen ? 1 : 0));
  AppendPod(&out, static_cast<uint8_t>(ckpt.have_prev_fingerprint ? 1 : 0));
  for (uint64_t s : ckpt.rng.s) AppendPod(&out, s);
  AppendPod(&out, static_cast<uint8_t>(ckpt.rng.has_cached_normal ? 1 : 0));
  AppendPod(&out, ckpt.rng.cached_normal);
  AppendPod(&out, static_cast<uint64_t>(ckpt.prev_fingerprint.size()));
  for (uint64_t v : ckpt.prev_fingerprint) AppendPod(&out, v);
  AppendPod(&out, static_cast<uint64_t>(ckpt.prev_best_cluster.size()));
  for (int32_t v : ckpt.prev_best_cluster) AppendPod(&out, v);
  AppendPod(&out, static_cast<uint64_t>(ckpt.best_log_sim.size()));
  for (double v : ckpt.best_log_sim) AppendPod(&out, v);
  AppendPod(&out, static_cast<uint64_t>(ckpt.unclustered.size()));
  for (uint64_t v : ckpt.unclustered) AppendPod(&out, v);
  AppendPod(&out, static_cast<uint64_t>(ckpt.clusters.size()));
  for (const CheckpointClusterState& c : ckpt.clusters) {
    AppendPod(&out, c.id);
    AppendPod(&out, c.seed_index);
    AppendPod(&out, static_cast<uint64_t>(c.members.size()));
    for (uint64_t m : c.members) AppendPod(&out, m);
    AppendPod(&out, static_cast<uint64_t>(c.contributions.size()));
    for (const auto& contrib : c.contributions) {
      AppendPod(&out, contrib.seq_index);
      AppendPod(&out, contrib.begin);
      AppendPod(&out, contrib.end);
    }
    AppendPod(&out, static_cast<uint64_t>(c.pst_blob.size()));
    out.append(c.pst_blob);
  }
  return out;
}

// --- section decoders --------------------------------------------------

Status DecodeMeta(std::string_view bytes, ClustererCheckpoint* out) {
  Reader r(bytes.data(), bytes.size());
  uint32_t build_len = 0;
  if (!r.ReadPod(&out->options_fingerprint) ||
      !r.ReadPod(&out->corpus_fingerprint) ||
      !r.ReadPod(&out->num_sequences) || !r.ReadPod(&out->total_symbols) ||
      !r.ReadPod(&build_len)) {
    return Corrupt("truncated meta section");
  }
  if (build_len > kMaxBuildBytes) {
    return Corrupt("implausible build string length");
  }
  if (!r.ReadBytes(build_len, &out->build) || !r.done()) {
    return Corrupt("meta section size mismatch");
  }
  return Status::OK();
}

Status DecodeState(std::string_view bytes, ClustererCheckpoint* out) {
  Reader r(bytes.data(), bytes.size());
  uint8_t adjuster_frozen = 0, have_prev_fp = 0, has_cached_normal = 0;
  if (!r.ReadPod(&out->iteration) || !r.ReadPod(&out->log_t) ||
      !r.ReadPod(&out->next_cluster_id) || !r.ReadPod(&out->prev_new) ||
      !r.ReadPod(&out->prev_consolidated) || !r.ReadPod(&adjuster_frozen) ||
      !r.ReadPod(&have_prev_fp)) {
    return Corrupt("truncated state header");
  }
  if (adjuster_frozen > 1 || have_prev_fp > 1) {
    return Corrupt("state flag is not a boolean");
  }
  if (std::isnan(out->log_t) || std::isinf(out->log_t)) {
    return Corrupt("non-finite log threshold");
  }
  out->adjuster_frozen = adjuster_frozen != 0;
  out->have_prev_fingerprint = have_prev_fp != 0;
  for (uint64_t& s : out->rng.s) {
    if (!r.ReadPod(&s)) return Corrupt("truncated RNG state");
  }
  if (!r.ReadPod(&has_cached_normal) || has_cached_normal > 1 ||
      !r.ReadPod(&out->rng.cached_normal)) {
    return Corrupt("truncated RNG state");
  }
  out->rng.has_cached_normal = has_cached_normal != 0;

  const uint64_t n = out->num_sequences;
  uint64_t count = 0;
  if (!r.ReadCount(sizeof(uint64_t), &count) ||
      !r.ReadVec(count, &out->prev_fingerprint)) {
    return Corrupt("truncated previous fingerprint");
  }
  if (!r.ReadCount(sizeof(int32_t), &count) ||
      !r.ReadVec(count, &out->prev_best_cluster)) {
    return Corrupt("truncated best-cluster vector");
  }
  if (!out->prev_best_cluster.empty() && out->prev_best_cluster.size() != n) {
    return Corrupt("best-cluster vector does not match the corpus size");
  }
  if (!r.ReadCount(sizeof(double), &count) ||
      !r.ReadVec(count, &out->best_log_sim)) {
    return Corrupt("truncated best-log-sim vector");
  }
  if (out->best_log_sim.size() != out->prev_best_cluster.size()) {
    return Corrupt("best-log-sim and best-cluster vectors disagree");
  }
  for (double v : out->best_log_sim) {
    // -inf is legitimate (no cluster scored); NaN and +inf never are.
    if (std::isnan(v) || v == std::numeric_limits<double>::infinity()) {
      return Corrupt("best-log-sim is NaN or +inf");
    }
  }
  if (!r.ReadCount(sizeof(uint64_t), &count) ||
      !r.ReadVec(count, &out->unclustered)) {
    return Corrupt("truncated unclustered set");
  }
  if (out->unclustered.size() > n) {
    return Corrupt("unclustered set larger than the corpus");
  }
  for (uint64_t v : out->unclustered) {
    if (v >= n) return Corrupt("unclustered index out of range");
  }

  uint64_t num_clusters = 0;
  // Each cluster occupies at least id + seed + three counts.
  if (!r.ReadCount(4 + 8 + 3 * 8, &num_clusters)) {
    return Corrupt("truncated cluster count");
  }
  for (int32_t v : out->prev_best_cluster) {
    if (v < -1 || (v >= 0 && static_cast<uint64_t>(v) >= num_clusters)) {
      return Corrupt("best-cluster index out of range");
    }
  }
  out->clusters.resize(static_cast<size_t>(num_clusters));
  for (CheckpointClusterState& c : out->clusters) {
    if (!r.ReadPod(&c.id) || !r.ReadPod(&c.seed_index)) {
      return Corrupt("truncated cluster header");
    }
    if (c.id >= out->next_cluster_id) {
      return Corrupt("cluster id not below the next-id watermark");
    }
    if (c.seed_index < -1 ||
        (c.seed_index >= 0 && static_cast<uint64_t>(c.seed_index) >= n)) {
      return Corrupt("cluster seed index out of range");
    }
    if (!r.ReadCount(sizeof(uint64_t), &count) ||
        !r.ReadVec(count, &c.members)) {
      return Corrupt("truncated cluster members");
    }
    for (uint64_t m : c.members) {
      if (m >= n) return Corrupt("cluster member out of range");
    }
    if (!r.ReadCount(3 * sizeof(uint64_t), &count)) {
      return Corrupt("truncated contribution count");
    }
    c.contributions.resize(static_cast<size_t>(count));
    uint64_t prev_seq = 0;
    bool first = true;
    for (auto& contrib : c.contributions) {
      if (!r.ReadPod(&contrib.seq_index) || !r.ReadPod(&contrib.begin) ||
          !r.ReadPod(&contrib.end)) {
        return Corrupt("truncated contribution");
      }
      if (contrib.seq_index >= n || contrib.begin > contrib.end) {
        return Corrupt("contribution out of range");
      }
      // Strictly increasing: the canonical order the encoder emits, and
      // the uniqueness the contributions map guarantees.
      if (!first && contrib.seq_index <= prev_seq) {
        return Corrupt("contributions out of order");
      }
      prev_seq = contrib.seq_index;
      first = false;
    }
    uint64_t blob_len = 0;
    if (!r.ReadCount(1, &blob_len) ||
        !r.ReadBytes(static_cast<size_t>(blob_len), &c.pst_blob)) {
      return Corrupt("truncated cluster PST blob");
    }
  }
  if (!r.done()) return Corrupt("trailing bytes after state section");
  return Status::OK();
}

}  // namespace

uint64_t FingerprintOptions(const CluseqOptions& options) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, options.initial_clusters);
  h = FnvMixDouble(h, options.similarity_threshold);
  h = FnvMix(h, options.auto_initial_threshold ? 1 : 0);
  h = FnvMixDouble(h, options.auto_threshold_quantile);
  h = FnvMix(h, options.rebuild_each_iteration ? 1 : 0);
  h = FnvMix(h, options.within_scan_updates ? 1 : 0);
  h = FnvMix(h, options.significance_threshold);
  h = FnvMixDouble(h, options.sample_multiplier);
  h = FnvMix(h, options.adjust_threshold ? 1 : 0);
  h = FnvMix(h, options.histogram_buckets);
  h = FnvMix(h, options.min_unique_members);
  h = FnvMix(h, options.max_iterations);
  h = FnvMix(h, static_cast<uint64_t>(options.visit_order));
  h = FnvMix(h, options.rng_seed);
  h = FnvMix(h, options.pst.max_depth);
  h = FnvMix(h, options.pst.significance_threshold);
  h = FnvMix(h, options.pst.max_memory_bytes);
  h = FnvMix(h, static_cast<uint64_t>(options.pst.prune_strategy));
  h = FnvMixDouble(h, options.pst.smoothing_p_min);
  // Algorithmic because it sets the censor floor of the §4.6 adjuster's
  // histogram while the adjuster is live — a different window walks a
  // different threshold trajectory. The prefilter perf knobs
  // (signature_budget_bytes, prefilter_prefix) deliberately stay out: they
  // never change any output, so resuming under different ones is legal.
  h = FnvMixDouble(h, options.adjust_bound_window);
  return h;
}

Status EncodeCheckpoint(const ClustererCheckpoint& ckpt, std::string* out) {
  const std::string meta = EncodeMeta(ckpt);
  const std::string state = EncodeState(ckpt);
  const uint64_t file_bytes = kHeaderBytes + meta.size() + state.size();
  if (file_bytes > kMaxFileBytes) {
    return Status::InvalidArgument("checkpoint exceeds the format size cap");
  }
  out->clear();
  out->reserve(static_cast<size_t>(file_bytes));
  out->append(kMagic, sizeof(kMagic));
  AppendPod(out, kVersion);
  AppendPod(out, file_bytes);
  AppendPod(out, kSectionCount);
  AppendPod(out, uint32_t{0});  // flags
  const uint64_t meta_offset = kHeaderBytes;
  const uint64_t state_offset = meta_offset + meta.size();
  AppendPod(out, meta_offset);
  AppendPod(out, static_cast<uint64_t>(meta.size()));
  AppendPod(out, Crc32c(meta.data(), meta.size()));
  AppendPod(out, uint32_t{0});
  AppendPod(out, state_offset);
  AppendPod(out, static_cast<uint64_t>(state.size()));
  AppendPod(out, Crc32c(state.data(), state.size()));
  AppendPod(out, uint32_t{0});
  AppendPod(out, Crc32c(out->data(), out->size()));  // header_crc
  out->append(meta);
  out->append(state);
  return Status::OK();
}

Status DecodeCheckpoint(std::string_view bytes, ClustererCheckpoint* out) {
  if (bytes.size() < kHeaderBytes) return Corrupt("file shorter than header");
  if (bytes.size() > kMaxFileBytes) return Corrupt("file exceeds size cap");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic");
  }
  Reader header(bytes.data() + sizeof(kMagic),
                kHeaderBytes - sizeof(kMagic));
  uint32_t version = 0, section_count = 0, flags = 0;
  uint64_t file_bytes = 0;
  header.ReadPod(&version);
  header.ReadPod(&file_bytes);
  header.ReadPod(&section_count);
  header.ReadPod(&flags);
  struct SectionEntry {
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
    uint32_t pad = 0;
  } sections[2];
  for (SectionEntry& s : sections) {
    header.ReadPod(&s.offset);
    header.ReadPod(&s.size);
    header.ReadPod(&s.crc);
    header.ReadPod(&s.pad);
  }
  uint32_t header_crc = 0;
  header.ReadPod(&header_crc);
  if (!header.done()) return Corrupt("malformed header");
  if (Crc32c(bytes.data(), kHeaderBytes - sizeof(uint32_t)) != header_crc) {
    return Corrupt("header checksum mismatch");
  }
  if (version != kVersion) {
    return Corrupt(StringPrintf("unsupported version %u", version));
  }
  if (file_bytes != bytes.size()) {
    return Corrupt("declared size does not match the file");
  }
  if (section_count != kSectionCount || flags != 0) {
    return Corrupt("unexpected section table shape");
  }
  // Exact contiguous layout: header | meta | state, nothing else.
  if (sections[0].offset != kHeaderBytes ||
      sections[1].offset != sections[0].offset + sections[0].size ||
      sections[1].offset + sections[1].size != file_bytes ||
      sections[0].pad != 0 || sections[1].pad != 0) {
    return Corrupt("section layout mismatch");
  }
  for (const SectionEntry& s : sections) {
    if (Crc32c(bytes.data() + s.offset, static_cast<size_t>(s.size)) !=
        s.crc) {
      return Corrupt("section checksum mismatch");
    }
  }
  ClustererCheckpoint parsed;
  CLUSEQ_RETURN_NOT_OK(DecodeMeta(
      bytes.substr(static_cast<size_t>(sections[0].offset),
                   static_cast<size_t>(sections[0].size)),
      &parsed));
  CLUSEQ_RETURN_NOT_OK(DecodeState(
      bytes.substr(static_cast<size_t>(sections[1].offset),
                   static_cast<size_t>(sections[1].size)),
      &parsed));
  *out = std::move(parsed);
  return Status::OK();
}

Status LoadCheckpointFile(const std::string& path, ClustererCheckpoint* out) {
  std::string bytes;
  CLUSEQ_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  Status st = DecodeCheckpoint(bytes, out);
  if (st.IsCorruption()) {
    return Status::Corruption(path + ": " + st.message());
  }
  return st;
}

std::string CheckpointFilePath(const std::string& dir, uint64_t iteration) {
  return StringPrintf("%s/ckpt_%08llu.ckpt", dir.c_str(),
                      static_cast<unsigned long long>(iteration));
}

Status ListCheckpointFiles(const std::string& dir,
                           std::vector<std::string>* newest_first) {
  newest_first->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound("no checkpoint directory at " + dir);
  }
  std::vector<std::pair<uint64_t, std::string>> found;
  for (struct dirent* entry = ::readdir(d); entry != nullptr;
       entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    constexpr std::string_view kPrefix = "ckpt_";
    constexpr std::string_view kSuffix = ".ckpt";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                       dir + "/" + name);
  }
  ::closedir(d);
  if (found.empty()) {
    return Status::NotFound("no checkpoint files in " + dir);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (auto& [iter, path] : found) newest_first->push_back(std::move(path));
  return Status::OK();
}

Status WriteCheckpointRetainTwo(const std::string& dir, uint64_t iteration,
                                std::string_view encoded) {
  CLUSEQ_RETURN_NOT_OK(EnsureDirectory(dir));
  const std::string path = CheckpointFilePath(dir, iteration);
  CLUSEQ_RETURN_NOT_OK(WriteFileAtomic(path, encoded));
  static obs::Counter& bytes_written =
      obs::MetricsRegistry::Get().GetCounter("checkpoint.bytes_written");
  bytes_written.Add(encoded.size());
  // Retention: keep the newest two complete checkpoints, so the previous
  // one stays loadable even if the newest is lost to later corruption.
  std::vector<std::string> files;
  if (ListCheckpointFiles(dir, &files).ok()) {
    for (size_t i = 2; i < files.size(); ++i) ::unlink(files[i].c_str());
  }
  if (g_save_hook != nullptr) g_save_hook(iteration, path);
  return Status::OK();
}

Status LoadLatestCheckpoint(const std::string& dir, bool strict,
                            ClustererCheckpoint* out,
                            std::string* loaded_path) {
  std::vector<std::string> files;
  CLUSEQ_RETURN_NOT_OK(ListCheckpointFiles(dir, &files));
  Status newest_status = LoadCheckpointFile(files[0], out);
  if (newest_status.ok()) {
    if (loaded_path != nullptr) *loaded_path = files[0];
    return Status::OK();
  }
  if (strict || files.size() < 2) return newest_status;
  CLUSEQ_LOG(kWarning) << "checkpoint " << files[0]
                       << " is unreadable (" << newest_status.ToString()
                       << "); falling back to " << files[1];
  CLUSEQ_RETURN_NOT_OK(LoadCheckpointFile(files[1], out));
  // The corrupt newest file has no value and would poison retention (it
  // outranks by iteration any file the resumed run writes before passing
  // it); drop it now that the fallback succeeded.
  ::unlink(files[0].c_str());
  if (loaded_path != nullptr) *loaded_path = files[1];
  return Status::OK();
}

void SetCheckpointSaveHookForTest(CheckpointSaveHook hook) {
  g_save_hook = hook;
}

}  // namespace cluseq
