#include "pst/pst_serialization.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "util/crc32c.h"

namespace cluseq {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'T', '2'};

// A serialized PST ends in a CRC32C of all preceding bytes; nothing
// after the magic is parsed before the checksum verifies.
constexpr size_t kChecksumBytes = sizeof(uint32_t);

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

/// Appends the payload's CRC32C and hands the whole blob to `out`.
Status SealAndEmit(const std::string& payload, std::ostream& out) {
  uint32_t crc = Crc32c(payload);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (!out) {
    return Status::IOError("PST write failed");
  }
  return Status::OK();
}

/// Splits `blob` into payload + trailing CRC and verifies the checksum.
Status VerifyChecksum(const std::string& blob, std::string_view* payload) {
  if (blob.size() < sizeof(kMagic) + kChecksumBytes) {
    return Status::Corruption("PST blob too short");
  }
  const size_t payload_size = blob.size() - kChecksumBytes;
  uint32_t stored = 0;
  std::memcpy(&stored, blob.data() + payload_size, kChecksumBytes);
  if (Crc32c(blob.data(), payload_size) != stored) {
    return Status::Corruption("PST checksum mismatch");
  }
  *payload = std::string_view(blob.data(), payload_size);
  return Status::OK();
}

std::string Slurp(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Funnels every load result through the corruption counter, so all
/// callers (CLI, tests, future servers) observe rejected files uniformly.
Status TrackCorruption(Status st) {
  if (st.IsCorruption()) {
    static obs::Counter& corrupt = obs::MetricsRegistry::Get().GetCounter(
        "persistence.corruption_detected");
    corrupt.Increment();
  }
  return st;
}

}  // namespace

// Accesses Pst internals on behalf of the save/load free functions.
class PstSerializer {
 public:
  static Status Save(const Pst& pst, std::ostream& out) {
    std::ostringstream buffer;
    buffer.write(kMagic, sizeof(kMagic));
    WritePod(buffer, static_cast<uint64_t>(pst.alphabet_size_));
    WritePod(buffer, static_cast<uint64_t>(pst.options_.max_depth));
    WritePod(buffer, pst.options_.significance_threshold);
    WritePod(buffer, static_cast<uint64_t>(pst.options_.max_memory_bytes));
    WritePod(buffer, static_cast<uint32_t>(pst.options_.prune_strategy));
    WritePod(buffer, pst.options_.smoothing_p_min);

    // Dense pre-order numbering of live nodes.
    std::vector<PstNodeId> order;
    std::vector<uint32_t> dense(pst.nodes_.size(),
                                static_cast<uint32_t>(-1));
    std::vector<PstNodeId> stack = {kPstRoot};
    while (!stack.empty()) {
      PstNodeId id = stack.back();
      stack.pop_back();
      dense[id] = static_cast<uint32_t>(order.size());
      order.push_back(id);
      const auto& children = pst.nodes_[id].children;
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        stack.push_back(it->second);
      }
    }
    WritePod(buffer, static_cast<uint64_t>(order.size()));
    for (PstNodeId id : order) {
      const auto& node = pst.nodes_[id];
      uint32_t parent =
          node.parent == kNoPstNode ? static_cast<uint32_t>(-1)
                                    : dense[node.parent];
      WritePod(buffer, parent);
      WritePod(buffer, node.edge_symbol);
      WritePod(buffer, node.count);
      WritePod(buffer, static_cast<uint32_t>(node.next.size()));
      for (const auto& [sym, cnt] : node.next) {
        WritePod(buffer, sym);
        WritePod(buffer, cnt);
      }
    }
    return SealAndEmit(buffer.str(), out);
  }

  static Status Load(std::string_view payload, Pst* pst) {
    std::istringstream in{std::string(payload)};
    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      return Status::Corruption("bad PST magic");
    }
    uint64_t alphabet_size = 0, max_depth = 0, sig = 0, max_mem = 0;
    uint32_t strategy = 0;
    double p_min = 0.0;
    if (!ReadPod(in, &alphabet_size) || !ReadPod(in, &max_depth) ||
        !ReadPod(in, &sig) || !ReadPod(in, &max_mem) ||
        !ReadPod(in, &strategy) || !ReadPod(in, &p_min)) {
      return Status::Corruption("truncated PST header");
    }
    PstOptions options;
    options.max_depth = static_cast<size_t>(max_depth);
    options.significance_threshold = sig;
    options.max_memory_bytes = static_cast<size_t>(max_mem);
    options.prune_strategy = static_cast<PruneStrategy>(strategy);
    options.smoothing_p_min = p_min;
    Status options_status = options.Validate();
    if (!options_status.ok()) {
      return Status::Corruption("PST header options invalid: " +
                                options_status.message());
    }

    uint64_t node_count = 0;
    if (!ReadPod(in, &node_count) || node_count == 0) {
      return Status::Corruption("truncated or empty PST body");
    }
    // Sanity caps on untrusted sizes, checked before any allocation: a
    // hostile count must not drive a multi-gigabyte resize. Each node
    // occupies at least 20 bytes (parent, edge, count, #next), so the
    // remaining payload exactly bounds the plausible node count.
    constexpr uint64_t kMaxNodes = 1ULL << 28;
    constexpr uint64_t kMinNodeBytes = 4 + 4 + 8 + 4;
    const uint64_t body_bytes =
        payload.size() - std::min<size_t>(payload.size(),
                                          static_cast<size_t>(in.tellg()));
    if (node_count > kMaxNodes || alphabet_size > (1ULL << 24) ||
        node_count > body_bytes / kMinNodeBytes) {
      return Status::Corruption("implausible PST header sizes");
    }

    Pst loaded(static_cast<size_t>(alphabet_size), options);
    loaded.nodes_.resize(node_count);
    loaded.live_nodes_ = node_count;
    loaded.approx_bytes_ = 0;
    for (uint64_t i = 0; i < node_count; ++i) {
      uint32_t parent = 0;
      Pst::Node& node = loaded.nodes_[i];
      uint32_t next_size = 0;
      if (!ReadPod(in, &parent) || !ReadPod(in, &node.edge_symbol) ||
          !ReadPod(in, &node.count) || !ReadPod(in, &next_size)) {
        return Status::Corruption("truncated PST node");
      }
      node.parent = parent == static_cast<uint32_t>(-1) ? kNoPstNode : parent;
      if (node.parent != kNoPstNode) {
        if (node.parent >= i) {
          return Status::Corruption("PST node order violates pre-order");
        }
        Pst::Node& par = loaded.nodes_[node.parent];
        node.depth = par.depth + 1;
        par.children.emplace_back(node.edge_symbol, static_cast<PstNodeId>(i));
      } else if (i != 0) {
        return Status::Corruption("non-root node without parent");
      }
      if (next_size > alphabet_size) {
        return Status::Corruption("PST probability vector exceeds alphabet");
      }
      node.next.resize(next_size);
      for (uint32_t j = 0; j < next_size; ++j) {
        if (!ReadPod(in, &node.next[j].first) ||
            !ReadPod(in, &node.next[j].second)) {
          return Status::Corruption("truncated PST probability vector");
        }
      }
      loaded.approx_bytes_ += loaded.NodeBytes(node);
    }
    if (in.peek() != std::istringstream::traits_type::eof()) {
      return Status::Corruption("trailing bytes after PST body");
    }
    // Children arrive in pre-order, not symbol order; restore the invariant.
    for (auto& node : loaded.nodes_) {
      std::sort(node.children.begin(), node.children.end());
      loaded.approx_bytes_ +=
          node.children.size() * sizeof(std::pair<SymbolId, PstNodeId>);
    }
    *pst = std::move(loaded);
    return Status::OK();
  }
};

Status SavePst(const Pst& pst, std::ostream& out) {
  return PstSerializer::Save(pst, out);
}

Status LoadPst(std::istream& in, Pst* pst) {
  std::string blob = Slurp(in);
  std::string_view payload;
  CLUSEQ_RETURN_NOT_OK(TrackCorruption(VerifyChecksum(blob, &payload)));
  return TrackCorruption(PstSerializer::Load(payload, pst));
}

}  // namespace cluseq
