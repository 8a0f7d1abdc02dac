#include "seq/io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "synth/dataset.h"

namespace cluseq {
namespace {

TEST(FastaTest, ReadsRecords) {
  std::istringstream in(">s1 label=2\nABCD\n>s2\nAA\nBB\n");
  SequenceDatabase db;
  ASSERT_TRUE(ReadFasta(in, &db).ok());
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db[0].id(), "s1");
  EXPECT_EQ(db[0].label(), 2);
  EXPECT_EQ(db[0].length(), 4u);
  EXPECT_EQ(db[1].id(), "s2");
  EXPECT_EQ(db[1].label(), kNoLabel);
  EXPECT_EQ(db[1].length(), 4u);  // Wrapped body concatenated.
}

TEST(FastaTest, SkipsBlankLines) {
  std::istringstream in("\n>s1\n\nAB\n\n");
  SequenceDatabase db;
  ASSERT_TRUE(ReadFasta(in, &db).ok());
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db[0].length(), 2u);
}

TEST(FastaTest, DataBeforeHeaderIsCorruption) {
  std::istringstream in("ABCD\n>s1\nAB\n");
  SequenceDatabase db;
  EXPECT_TRUE(ReadFasta(in, &db).IsCorruption());
}

TEST(FastaTest, RoundTrip) {
  SequenceDatabase db;
  ASSERT_TRUE(db.AddText("ACGTACGT", "seq_a", 1).ok());
  ASSERT_TRUE(db.AddText("GGGG", "seq_b", kNoLabel).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteFasta(db, out).ok());

  std::istringstream in(out.str());
  SequenceDatabase db2;
  ASSERT_TRUE(ReadFasta(in, &db2).ok());
  ASSERT_EQ(db2.size(), 2u);
  EXPECT_EQ(db2[0].id(), "seq_a");
  EXPECT_EQ(db2[0].label(), 1);
  EXPECT_EQ(db2.alphabet().Decode(db2[0].symbols()), "ACGTACGT");
  EXPECT_EQ(db2[1].label(), kNoLabel);
  EXPECT_EQ(db2.alphabet().Decode(db2[1].symbols()), "GGGG");
}

TEST(FastaTest, LongSequenceWraps) {
  SequenceDatabase db;
  std::string body(200, 'A');
  ASSERT_TRUE(db.AddText(body, "long").ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteFasta(db, out).ok());
  // No emitted data line longer than 70 chars.
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] != '>') {
      EXPECT_LE(line.size(), 70u);
    }
  }
  // And it round-trips.
  std::istringstream in(out.str());
  SequenceDatabase db2;
  ASSERT_TRUE(ReadFasta(in, &db2).ok());
  EXPECT_EQ(db2[0].length(), 200u);
}

TEST(FastaTest, MissingFileIsIOError) {
  SequenceDatabase db;
  EXPECT_TRUE(ReadFastaFile("/nonexistent/path/file.fa", &db).IsIOError());
}

TEST(TsvTest, ReadsLines) {
  std::istringstream in("a\t0\tXYZ\nb\t-1\tXX\n");
  SequenceDatabase db;
  ASSERT_TRUE(ReadTsv(in, &db).ok());
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db[0].label(), 0);
  EXPECT_EQ(db[1].label(), kNoLabel);
  EXPECT_EQ(db[1].id(), "b");
}

TEST(TsvTest, WrongFieldCountIsCorruption) {
  std::istringstream in("only_two\tfields\n");
  SequenceDatabase db;
  EXPECT_TRUE(ReadTsv(in, &db).IsCorruption());
}

TEST(TsvTest, RoundTrip) {
  SequenceDatabase db;
  ASSERT_TRUE(db.AddText("hello", "h", 5).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteTsv(db, out).ok());
  std::istringstream in(out.str());
  SequenceDatabase db2;
  ASSERT_TRUE(ReadTsv(in, &db2).ok());
  ASSERT_EQ(db2.size(), 1u);
  EXPECT_EQ(db2[0].label(), 5);
  EXPECT_EQ(db2.alphabet().Decode(db2[0].symbols()), "hello");
}

TEST(TextWriterTest, SyntheticCorpusRoundTripsLosslessly) {
  SyntheticDatasetOptions opts;
  opts.num_clusters = 3;
  opts.sequences_per_cluster = 4;
  opts.alphabet_size = 20;
  opts.avg_length = 40;
  opts.seed = 5;
  SequenceDatabase db = MakeSyntheticDataset(opts);
  std::ostringstream tsv;
  ASSERT_TRUE(WriteTsv(db, tsv).ok());
  std::istringstream in(tsv.str());
  SequenceDatabase db2;
  ASSERT_TRUE(ReadTsv(in, &db2).ok());
  ASSERT_EQ(db2.size(), db.size());
  EXPECT_EQ(db2.alphabet().size(), 20u);
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db2.alphabet().Decode(db2[i].symbols()),
              db.alphabet().Decode(db[i].symbols()));
  }
}

TEST(TextWriterTest, MultiCharacterSymbolIsInvalidArgument) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("s1");
  SequenceDatabase db(alphabet);
  ASSERT_TRUE(db.AddText("a", "x").ok());
  std::ostringstream fasta;
  EXPECT_TRUE(WriteFasta(db, fasta).IsInvalidArgument());
  EXPECT_TRUE(fasta.str().empty());
  std::ostringstream tsv;
  EXPECT_TRUE(WriteTsv(db, tsv).IsInvalidArgument());
  EXPECT_TRUE(tsv.str().empty());

  // Alphabets past 62 symbols keep "s<i>" names and are refused too.
  SequenceDatabase big(Alphabet::Synthetic(63));
  std::ostringstream out;
  EXPECT_TRUE(WriteTsv(big, out).IsInvalidArgument());
}

TEST(FastaTest, HandlesCrlfLineEndings) {
  std::istringstream in(">s1 label=2\r\nABCD\r\n>s2\r\nAA\r\nBB\r\n");
  SequenceDatabase db;
  ASSERT_TRUE(ReadFasta(in, &db).ok());
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db[0].id(), "s1");
  EXPECT_EQ(db[0].label(), 2);
  EXPECT_EQ(db[0].length(), 4u);  // No stray '\r' interned.
  EXPECT_EQ(db[1].length(), 4u);
  EXPECT_EQ(db.alphabet().Find("\r"), kInvalidSymbol);
}

TEST(FastaTest, FinalRecordWithoutTrailingNewline) {
  std::istringstream in(">s1\nABCD\n>s2\nXY");
  SequenceDatabase db;
  ASSERT_TRUE(ReadFasta(in, &db).ok());
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db[1].id(), "s2");
  EXPECT_EQ(db[1].length(), 2u);
}

TEST(FastaTest, OversizedRecordIsRejectedWithAClearError) {
  IoOptions options;
  options.max_record_bytes = 8;
  std::istringstream in(">tiny\nABCD\n>huge\nABCDEFGH\nIJ\n");
  SequenceDatabase db;
  Status st = ReadFasta(in, &db, options);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("huge"), std::string::npos) << st.ToString();
  // Under the default (generous) limit the same input is fine.
  std::istringstream again(">tiny\nABCD\n>huge\nABCDEFGH\nIJ\n");
  db.Clear();
  EXPECT_TRUE(ReadFasta(again, &db).ok());
}

TEST(TsvTest, HandlesCrlfAndMissingFinalNewline) {
  std::istringstream in("a\t0\tXYZ\r\nb\t-1\tXX");
  SequenceDatabase db;
  ASSERT_TRUE(ReadTsv(in, &db).ok());
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db[0].length(), 3u);  // '\r' stripped, not interned.
  EXPECT_EQ(db.alphabet().Find("\r"), kInvalidSymbol);
  EXPECT_EQ(db[1].id(), "b");
  EXPECT_EQ(db[1].length(), 2u);
}

TEST(TsvTest, OversizedRecordIsRejectedWithAClearError) {
  IoOptions options;
  options.max_record_bytes = 4;
  std::istringstream in("ok\t0\tABCD\nbig\t1\tABCDE\n");
  SequenceDatabase db;
  Status st = ReadTsv(in, &db, options);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("big"), std::string::npos) << st.ToString();
}

TEST(TsvTest, FileRoundTrip) {
  SequenceDatabase db;
  ASSERT_TRUE(db.AddText("abc", "x", 1).ok());
  std::string path = ::testing::TempDir() + "/cluseq_io_test.tsv";
  ASSERT_TRUE(WriteTsvFile(db, path).ok());
  SequenceDatabase db2;
  ASSERT_TRUE(ReadTsvFile(path, &db2).ok());
  ASSERT_EQ(db2.size(), 1u);
  EXPECT_EQ(db2.alphabet().Decode(db2[0].symbols()), "abc");
}

}  // namespace
}  // namespace cluseq
