// End-to-end integration tests spanning generators, CLUSEQ, baselines and
// evaluation — scaled-down versions of the paper's experiments that must
// hold as invariants, not just benchmarks.

#include <gtest/gtest.h>

#include "baselines/baseline_clusterers.h"
#include "core/cluseq.h"
#include "eval/metrics.h"
#include "seq/io.h"
#include "synth/language_like.h"
#include "synth/protein_like.h"

#include <sstream>

namespace cluseq {
namespace {

CluseqOptions SmallOptions() {
  CluseqOptions o;
  o.initial_clusters = 2;
  o.similarity_threshold = 1.05;
  o.significance_threshold = 4;
  o.min_unique_members = 3;
  o.max_iterations = 10;
  o.pst.max_depth = 5;
  o.rng_seed = 17;
  return o;
}

TEST(IntegrationTest, ProteinLikeFamiliesClusterWell) {
  ProteinLikeOptions po;
  po.num_families = 5;
  po.scale = 0.03;  // ~5 families of ~5-25 sequences.
  po.avg_length = 120;
  po.seed = 21;
  ProteinLikeDataset d = MakeProteinLikeDataset(po);

  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(d.db, SmallOptions(), &result).ok());
  EvaluationSummary eval = Evaluate(d.db, result.best_cluster);
  EXPECT_GT(eval.correct_fraction, 0.6)
      << "clusters=" << result.num_clusters();
}

TEST(IntegrationTest, LanguageIdentification) {
  LanguageLikeOptions lo;
  lo.sentences_per_language = 30;
  lo.noise_sentences = 5;
  lo.min_sentence_length = 60;
  lo.max_sentence_length = 120;
  lo.seed = 22;
  LanguageLikeDataset d = MakeLanguageLikeDataset(lo);

  CluseqOptions o = SmallOptions();
  o.initial_clusters = 3;
  o.significance_threshold = 3;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(d.db, o, &result).ok());
  EvaluationSummary eval = Evaluate(d.db, result.best_cluster);
  EXPECT_GT(eval.macro.recall, 0.5);
  EXPECT_GT(eval.macro.precision, 0.5);
}

TEST(IntegrationTest, CluseqBeatsPlainEditDistanceOnBlockStructure) {
  // Two families that share content in different block orders: sequential
  // statistics (CLUSEQ) should beat global-alignment ED — the paper's core
  // claim behind Table 2.
  ProteinLikeOptions po;
  po.num_families = 3;
  po.scale = 0.03;
  po.avg_length = 100;
  po.seed = 23;
  ProteinLikeDataset d = MakeProteinLikeDataset(po);

  ClusteringResult cluseq_result;
  ASSERT_TRUE(RunCluseq(d.db, SmallOptions(), &cluseq_result).ok());
  double cluseq_acc =
      Evaluate(d.db, cluseq_result.best_cluster).correct_fraction;

  DistanceClusterOptions ed;
  ed.num_clusters = 3;
  ed.seed = 5;
  std::vector<int32_t> ed_assign;
  ASSERT_TRUE(EditDistanceCluster(d.db, ed, &ed_assign).ok());
  double ed_acc = Evaluate(d.db, ed_assign).correct_fraction;

  // ED on same-length Markov families is near chance; CLUSEQ is not.
  EXPECT_GT(cluseq_acc, ed_acc - 0.05)
      << "cluseq=" << cluseq_acc << " ed=" << ed_acc;
  EXPECT_GT(cluseq_acc, 0.5);
}

TEST(IntegrationTest, MemoryBoundedRunStaysAccurate) {
  // Fig 4 invariant: a reasonable PST budget barely hurts accuracy.
  ProteinLikeOptions po;
  po.num_families = 3;
  po.scale = 0.03;
  po.avg_length = 100;
  po.seed = 25;
  ProteinLikeDataset d = MakeProteinLikeDataset(po);

  CluseqOptions unbounded = SmallOptions();
  ClusteringResult r_unbounded;
  ASSERT_TRUE(RunCluseq(d.db, unbounded, &r_unbounded).ok());
  double acc_unbounded =
      Evaluate(d.db, r_unbounded.best_cluster).correct_fraction;

  CluseqOptions bounded = SmallOptions();
  bounded.pst.max_memory_bytes = 256 * 1024;
  ClusteringResult r_bounded;
  ASSERT_TRUE(RunCluseq(d.db, bounded, &r_bounded).ok());
  double acc_bounded = Evaluate(d.db, r_bounded.best_cluster).correct_fraction;

  EXPECT_GT(acc_bounded, acc_unbounded - 0.25);
}

TEST(IntegrationTest, FastaRoundTripThenCluster) {
  ProteinLikeOptions po;
  po.num_families = 2;
  po.scale = 0.02;
  po.avg_length = 60;
  po.seed = 26;
  ProteinLikeDataset d = MakeProteinLikeDataset(po);

  std::ostringstream fasta;
  ASSERT_TRUE(WriteFasta(d.db, fasta).ok());
  std::istringstream in(fasta.str());
  SequenceDatabase restored;
  ASSERT_TRUE(ReadFasta(in, &restored).ok());
  ASSERT_EQ(restored.size(), d.db.size());

  ClusteringResult r1, r2;
  ASSERT_TRUE(RunCluseq(d.db, SmallOptions(), &r1).ok());
  ASSERT_TRUE(RunCluseq(restored, SmallOptions(), &r2).ok());
  EXPECT_EQ(r1.clusters, r2.clusters);  // Byte-identical data and seed.
}

}  // namespace
}  // namespace cluseq
