// Cross-commit oracle for the live PST's node set.
//
// Builds trees from fixed-seed random text and hashes every live node —
// (id, parent, edge symbol, depth, count, children, next counts) in id
// order — together with NumNodes() and ApproxMemoryBytes(). The golden
// hashes pin node ids (append or LIFO free-list reuse), child order, the
// §5.1 pruning choices and the byte accounting, so any change to how the
// tree stores its nodes must reproduce them exactly. Every step also checks
// the §5.1 cost model: 72 B per node, 8 B per child entry, 16 B per next
// entry.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "pst/pst.h"
#include "pst_digest.h"

namespace cluseq {
namespace {

using pst_test::CheckedHash;
using pst_test::Text;

PstOptions Opts(size_t depth) {
  PstOptions o;
  o.max_depth = depth;
  o.significance_threshold = 3;
  o.smoothing_p_min = 0.0;
  return o;
}

void InsertTexts(Pst* pst, size_t alphabet, uint64_t first_seed,
                 size_t count) {
  for (size_t k = 0; k < count; ++k) {
    pst->InsertSequence(Text(300, alphabet, first_seed + k));
    CheckedHash(*pst);
  }
}

struct Golden {
  size_t alphabet;
  size_t depth;
  const char* step;
  uint64_t hash;
};

// Recorded against the per-node-vector layout the flat arena replaced.
constexpr Golden kGolden[] = {
    {2, 3, "none", 0x70708980a242e520ULL},
    {2, 6, "none", 0x98bb67e3fd415399ULL},
    {2, 12, "none", 0x5b782d50127802cULL},
    {20, 3, "none", 0xe49e3dee0797f21ULL},
    {20, 6, "none", 0x30f69ab196aeacd8ULL},
    {20, 12, "none", 0x14b2ea1c16836228ULL},
    {200, 3, "none", 0x4bb787e3c7d6eecdULL},
    {200, 6, "none", 0xac30058ee8a1ead4ULL},
    {200, 12, "none", 0x68ed3f792126166ULL},
    {2, 3, "smallest", 0xa370482c5fe25e17ULL},
    {2, 3, "longest", 0xd0112db6afe50d37ULL},
    {2, 3, "expected", 0x5eab873ea9e5d7b4ULL},
    {2, 6, "smallest", 0xa7d9cb626371cce2ULL},
    {2, 6, "longest", 0xe20e547a4801b728ULL},
    {2, 6, "expected", 0x1c46d48ba195aef3ULL},
    {2, 12, "smallest", 0xc39df361740d2655ULL},
    {2, 12, "longest", 0xab1d26b13b98a14ULL},
    {2, 12, "expected", 0xc39df361740d2655ULL},
    {20, 3, "smallest", 0x661c30505ced31ceULL},
    {20, 3, "longest", 0x88f37e239baf3d85ULL},
    {20, 3, "expected", 0x661c30505ced31ceULL},
    {20, 6, "smallest", 0x4295ee2bbb6cfca7ULL},
    {20, 6, "longest", 0x748636c3f7f16862ULL},
    {20, 6, "expected", 0x4295ee2bbb6cfca7ULL},
    {20, 12, "smallest", 0x28b465dcef8a6063ULL},
    {20, 12, "longest", 0xffcc54c590505a03ULL},
    {20, 12, "expected", 0x28b465dcef8a6063ULL},
    {200, 3, "smallest", 0xb4bd0aa5c0e1c0dbULL},
    {200, 3, "longest", 0x979c810e7bc83df2ULL},
    {200, 3, "expected", 0xb4bd0aa5c0e1c0dbULL},
    {200, 6, "smallest", 0x7863d08a443a0b61ULL},
    {200, 6, "longest", 0x4920ba09a9f27a58ULL},
    {200, 6, "expected", 0x7863d08a443a0b61ULL},
    {200, 12, "smallest", 0xd076698e82d50370ULL},
    {200, 12, "longest", 0x397f97ae99df74bdULL},
    {200, 12, "expected", 0xd076698e82d50370ULL},
    {2, 3, "merge", 0x6770bb2c4eda2f71ULL},
    {2, 3, "merge-deeper", 0xdaf2ba4dfc0229ULL},
    {2, 6, "merge", 0x183fafcec459d72eULL},
    {2, 6, "merge-deeper", 0xfcf01239df49366cULL},
    {2, 12, "merge", 0x747d6850091fc4b8ULL},
    {2, 12, "merge-deeper", 0xfb6b977ef6571808ULL},
    {20, 3, "merge", 0xb0692290d93ad88ULL},
    {20, 3, "merge-deeper", 0xc057b8cd31d1e332ULL},
    {20, 6, "merge", 0x8ccf5ce3a88168c4ULL},
    {20, 6, "merge-deeper", 0xce939dbaab7cba94ULL},
    {20, 12, "merge", 0x45a84e2b8a0bb23cULL},
    {20, 12, "merge-deeper", 0xb574d65021017501ULL},
    {200, 3, "merge", 0xd4ed203812e9ef7ULL},
    {200, 3, "merge-deeper", 0x77da3b45742d63f6ULL},
    {200, 6, "merge", 0xf3c4c0a544fe46b8ULL},
    {200, 6, "merge-deeper", 0x909e55dfc10759fcULL},
    {200, 12, "merge", 0x27472485df6be409ULL},
    {200, 12, "merge-deeper", 0x54881b735af7f161ULL},
    {2, 3, "clear-reinsert", 0xec6971242cb825b1ULL},
    {2, 6, "clear-reinsert", 0x8590bc6a45828df1ULL},
    {2, 12, "clear-reinsert", 0xa32078e9012a017dULL},
    {20, 3, "clear-reinsert", 0x3954d8c968287a82ULL},
    {20, 6, "clear-reinsert", 0xf90e763ef6243997ULL},
    {20, 12, "clear-reinsert", 0xc648ef5028e754eaULL},
    {200, 3, "clear-reinsert", 0xa95b56580d440448ULL},
    {200, 6, "clear-reinsert", 0x5cc53e9d954c0a5bULL},
    {200, 12, "clear-reinsert", 0x240ece5947817ef0ULL},
    {2, 3, "pruned", 0x966f465fc3139c47ULL},
    {2, 3, "pruned-reinsert", 0xbdf48be2302c366cULL},
    {2, 6, "pruned", 0xfa877065acc1fbd2ULL},
    {2, 6, "pruned-reinsert", 0x9ae62d97c333780aULL},
    {2, 12, "pruned", 0x40030d6b10d9f5c9ULL},
    {2, 12, "pruned-reinsert", 0x70aa234ea6a6cea3ULL},
    {20, 3, "pruned", 0xba6a8b915cd44fa6ULL},
    {20, 3, "pruned-reinsert", 0xa2af24aa8f0ec632ULL},
    {20, 6, "pruned", 0x398a01cd6aa1db92ULL},
    {20, 6, "pruned-reinsert", 0xbc9ed9e8d4cbd6bcULL},
    {20, 12, "pruned", 0x525f9ca063c715b5ULL},
    {20, 12, "pruned-reinsert", 0x621288deb2db9b75ULL},
    {200, 3, "pruned", 0xe444a944f33d89f0ULL},
    {200, 3, "pruned-reinsert", 0xfa78c2a74eb85c48ULL},
    {200, 6, "pruned", 0xb80f47e5de53dc2aULL},
    {200, 6, "pruned-reinsert", 0x431b9ab0b6be9cc1ULL},
    {200, 12, "pruned", 0x7e92c688ee2d09a1ULL},
    {200, 12, "pruned-reinsert", 0x42cb218f520d9228ULL},
};

void ExpectGolden(size_t alphabet, size_t depth, const std::string& step,
                  const Pst& pst) {
  const uint64_t got = CheckedHash(pst);
  for (const Golden& g : kGolden) {
    if (g.alphabet == alphabet && g.depth == depth && step == g.step) {
      EXPECT_EQ(got, g.hash) << alphabet << "/" << depth << "/" << step;
      return;
    }
  }
  ADD_FAILURE() << "no golden for {" << alphabet << ", " << depth << ", \""
                << step << "\", 0x" << std::hex << got << "ULL},";
}

class PstLayoutTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t alphabet() const { return std::get<0>(GetParam()); }
  size_t depth() const { return std::get<1>(GetParam()); }
};

TEST_P(PstLayoutTest, NoBudget) {
  Pst pst(alphabet(), Opts(depth()));
  InsertTexts(&pst, alphabet(), 100, 4);
  ExpectGolden(alphabet(), depth(), "none", pst);
}

TEST_P(PstLayoutTest, BudgetUnderEachStrategy) {
  const std::pair<PruneStrategy, const char*> strategies[] = {
      {PruneStrategy::kSmallestCountFirst, "smallest"},
      {PruneStrategy::kLongestLabelFirst, "longest"},
      {PruneStrategy::kExpectedVectorFirst, "expected"},
  };
  Pst unbounded(alphabet(), Opts(depth()));
  InsertTexts(&unbounded, alphabet(), 100, 4);
  for (const auto& [strategy, name] : strategies) {
    PstOptions o = Opts(depth());
    o.max_memory_bytes = unbounded.ApproxMemoryBytes() / 2;
    o.prune_strategy = strategy;
    Pst pst(alphabet(), o);
    InsertTexts(&pst, alphabet(), 100, 4);
    EXPECT_LT(pst.NumNodes(), unbounded.NumNodes()) << name;
    EXPECT_LE(pst.ApproxMemoryBytes(), o.max_memory_bytes) << name;
    ExpectGolden(alphabet(), depth(), name, pst);
  }
}

TEST_P(PstLayoutTest, MergeFrom) {
  Pst a(alphabet(), Opts(depth()));
  Pst b(alphabet(), Opts(depth()));
  InsertTexts(&a, alphabet(), 200, 2);
  InsertTexts(&b, alphabet(), 300, 3);
  ASSERT_TRUE(a.MergeFrom(b).ok());
  ExpectGolden(alphabet(), depth(), "merge", a);
  // A deeper source is clamped to the target's depth.
  Pst deep(alphabet(), Opts(depth() + 2));
  InsertTexts(&deep, alphabet(), 400, 1);
  ASSERT_TRUE(a.MergeFrom(deep).ok());
  ExpectGolden(alphabet(), depth(), "merge-deeper", a);
}

TEST_P(PstLayoutTest, ClearThenReinsert) {
  Pst pst(alphabet(), Opts(depth()));
  InsertTexts(&pst, alphabet(), 500, 3);
  pst.Clear();
  EXPECT_EQ(pst.NumNodes(), 1u);
  EXPECT_EQ(pst.ApproxMemoryBytes(), 72u);
  CheckedHash(pst);
  InsertTexts(&pst, alphabet(), 600, 2);
  ExpectGolden(alphabet(), depth(), "clear-reinsert", pst);
}

TEST_P(PstLayoutTest, PruneThenInsertReusesFreedIds) {
  Pst pst(alphabet(), Opts(depth()));
  InsertTexts(&pst, alphabet(), 700, 3);
  const size_t before = pst.NumNodes();
  pst.PruneToBudget(pst.ApproxMemoryBytes() / 2);
  EXPECT_LT(pst.NumNodes(), before);
  ExpectGolden(alphabet(), depth(), "pruned", pst);
  InsertTexts(&pst, alphabet(), 800, 2);
  ExpectGolden(alphabet(), depth(), "pruned-reinsert", pst);
}

TEST(PstArenaTest, ClearKeepsCapacityForTheRebuild) {
  Pst pst(20, Opts(6));
  InsertTexts(&pst, 20, 900, 3);
  const size_t arena = pst.ArenaBytes();
  EXPECT_GT(arena, 0u);
  pst.Clear();
  EXPECT_EQ(pst.ArenaBytes(), arena);
  InsertTexts(&pst, 20, 900, 3);
  EXPECT_EQ(pst.ArenaBytes(), arena);
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsAndDepths, PstLayoutTest,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{20}, size_t{200}),
                       ::testing::Values(size_t{3}, size_t{6}, size_t{12})),
    [](const auto& info) {
      return "A" + std::to_string(std::get<0>(info.param)) + "D" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cluseq
