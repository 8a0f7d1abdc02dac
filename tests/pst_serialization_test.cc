#include "pst/pst_serialization.h"

#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cluseq {
namespace {

using Symbols = std::vector<SymbolId>;

Symbols RandomText(size_t len, size_t alphabet, uint64_t seed) {
  Rng rng(seed);
  Symbols text(len);
  for (auto& s : text) s = static_cast<SymbolId>(rng.Uniform(alphabet));
  return text;
}

void CollectLabels(const Pst& pst, PstNodeId id,
                   std::map<Symbols, uint64_t>* out) {
  (*out)[pst.NodeLabel(id)] = pst.NodeCount(id);
  for (const auto& [sym, child] : pst.Children(id)) {
    CollectLabels(pst, child, out);
  }
}

TEST(PstSerializationTest, RoundTripPreservesStructure) {
  PstOptions o;
  o.max_depth = 5;
  o.significance_threshold = 3;
  o.smoothing_p_min = 1e-4;
  Pst pst(5, o);
  pst.InsertSequence(RandomText(400, 5, 42));

  std::stringstream buffer;
  ASSERT_TRUE(SavePst(pst, buffer).ok());
  Pst loaded(1, PstOptions{});
  ASSERT_TRUE(LoadPst(buffer, &loaded).ok());

  EXPECT_EQ(loaded.alphabet_size(), pst.alphabet_size());
  EXPECT_EQ(loaded.NumNodes(), pst.NumNodes());
  EXPECT_EQ(loaded.total_symbols(), pst.total_symbols());
  EXPECT_EQ(loaded.options().max_depth, pst.options().max_depth);
  EXPECT_EQ(loaded.options().significance_threshold,
            pst.options().significance_threshold);

  std::map<Symbols, uint64_t> before, after;
  CollectLabels(pst, kPstRoot, &before);
  CollectLabels(loaded, kPstRoot, &after);
  EXPECT_EQ(before, after);
}

TEST(PstSerializationTest, RoundTripPreservesQueries) {
  PstOptions o;
  o.max_depth = 6;
  o.significance_threshold = 2;
  Pst pst(4, o);
  pst.InsertSequence(RandomText(600, 4, 7));

  std::stringstream buffer;
  ASSERT_TRUE(SavePst(pst, buffer).ok());
  Pst loaded(1, PstOptions{});
  ASSERT_TRUE(LoadPst(buffer, &loaded).ok());

  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    size_t len = rng.Uniform(6);
    Symbols ctx(len);
    for (auto& s : ctx) s = static_cast<SymbolId>(rng.Uniform(4));
    SymbolId next = static_cast<SymbolId>(rng.Uniform(4));
    EXPECT_DOUBLE_EQ(pst.ConditionalProbability(ctx, next),
                     loaded.ConditionalProbability(ctx, next));
  }
}

TEST(PstSerializationTest, RoundTripAfterPruning) {
  PstOptions o;
  o.max_depth = 7;
  o.significance_threshold = 3;
  o.max_memory_bytes = 32 * 1024;
  Pst pst(5, o);
  pst.InsertSequence(RandomText(2000, 5, 11));

  std::stringstream buffer;
  ASSERT_TRUE(SavePst(pst, buffer).ok());
  Pst loaded(1, PstOptions{});
  ASSERT_TRUE(LoadPst(buffer, &loaded).ok());
  // Tombstones are compacted away: node counts must match live nodes.
  EXPECT_EQ(loaded.NumNodes(), pst.NumNodes());
  std::map<Symbols, uint64_t> before, after;
  CollectLabels(pst, kPstRoot, &before);
  CollectLabels(loaded, kPstRoot, &after);
  EXPECT_EQ(before, after);
}

TEST(PstSerializationTest, EmptyTreeRoundTrips) {
  Pst pst(3, PstOptions{});
  std::stringstream buffer;
  ASSERT_TRUE(SavePst(pst, buffer).ok());
  Pst loaded(1, PstOptions{});
  ASSERT_TRUE(LoadPst(buffer, &loaded).ok());
  EXPECT_EQ(loaded.NumNodes(), 1u);
  EXPECT_EQ(loaded.total_symbols(), 0u);
}

TEST(PstSerializationTest, BadMagicIsCorruption) {
  std::stringstream buffer;
  buffer << "NOPE";
  Pst loaded(1, PstOptions{});
  EXPECT_TRUE(LoadPst(buffer, &loaded).IsCorruption());
}

TEST(PstSerializationTest, TruncatedStreamIsCorruption) {
  Pst pst(3, PstOptions{});
  pst.InsertSequence(Symbols{0, 1, 2, 0, 1});
  std::stringstream buffer;
  ASSERT_TRUE(SavePst(pst, buffer).ok());
  std::string data = buffer.str();
  std::stringstream truncated(data.substr(0, data.size() / 2));
  Pst loaded(1, PstOptions{});
  EXPECT_FALSE(LoadPst(truncated, &loaded).ok());
}

}  // namespace
}  // namespace cluseq
