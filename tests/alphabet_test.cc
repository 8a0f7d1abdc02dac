#include "seq/alphabet.h"

#include <gtest/gtest.h>

namespace cluseq {
namespace {

TEST(AlphabetTest, FromCharsAssignsDenseIds) {
  Alphabet a = Alphabet::FromChars("abc");
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.Find("a"), 0u);
  EXPECT_EQ(a.Find("b"), 1u);
  EXPECT_EQ(a.Find("c"), 2u);
  EXPECT_EQ(a.Name(0), "a");
}

TEST(AlphabetTest, FromCharsDeduplicates) {
  Alphabet a = Alphabet::FromChars("aab");
  EXPECT_EQ(a.size(), 2u);
}

TEST(AlphabetTest, SyntheticNames) {
  Alphabet a = Alphabet::Synthetic(4);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.Name(0), "a");
  EXPECT_EQ(a.Name(3), "d");
  EXPECT_EQ(a.Find("c"), 2u);
}

TEST(AlphabetTest, SyntheticNamesStaySingleCharacterUpTo62) {
  Alphabet a = Alphabet::Synthetic(62);
  EXPECT_EQ(a.Name(26), "A");
  EXPECT_EQ(a.Name(52), "0");
  EXPECT_EQ(a.Name(61), "9");
  Alphabet big = Alphabet::Synthetic(63);
  EXPECT_EQ(big.size(), 63u);
  EXPECT_EQ(big.Name(0), "s0");
  EXPECT_EQ(big.Name(62), "s62");
}

TEST(AlphabetTest, InternIsIdempotent) {
  Alphabet a;
  SymbolId x = a.Intern("foo");
  EXPECT_EQ(a.Intern("foo"), x);
  EXPECT_EQ(a.size(), 1u);
}

TEST(AlphabetTest, FindMissingReturnsInvalid) {
  Alphabet a = Alphabet::FromChars("ab");
  EXPECT_EQ(a.Find("z"), kInvalidSymbol);
}

TEST(AlphabetTest, EncodeCharsStrict) {
  Alphabet a = Alphabet::FromChars("ab");
  std::vector<SymbolId> out;
  EXPECT_TRUE(a.EncodeChars("abba", false, &out).ok());
  EXPECT_EQ(out, (std::vector<SymbolId>{0, 1, 1, 0}));
  Status st = a.EncodeChars("abz", false, &out);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(AlphabetTest, EncodeCharsInternsMissing) {
  Alphabet a = Alphabet::FromChars("ab");
  std::vector<SymbolId> out;
  EXPECT_TRUE(a.EncodeChars("abz", true, &out).ok());
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(out[2], 2u);
}

TEST(AlphabetTest, DecodeRoundTrips) {
  Alphabet a = Alphabet::FromChars("xyz");
  std::vector<SymbolId> ids;
  ASSERT_TRUE(a.EncodeChars("zyxzy", false, &ids).ok());
  EXPECT_EQ(a.Decode(ids), "zyxzy");
}

TEST(AlphabetTest, DecodeSkipsOutOfRange) {
  Alphabet a = Alphabet::FromChars("ab");
  EXPECT_EQ(a.Decode({0, 99, 1}), "ab");
}

TEST(AlphabetTest, EmptyAlphabet) {
  Alphabet a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
}

}  // namespace
}  // namespace cluseq
