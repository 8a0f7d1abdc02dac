// Corruption sweeps over the served .fbank bank file (checkpoints have
// their own sweeps in checkpoint_test.cc): every-offset truncation and
// every-single-bit flips must be rejected with Status::Corruption (or
// IOError at the file layer) — never a crash, which the CI sanitizer job
// turns into a hard check. On top of the checksums,
// CRC-fixed structural attacks (hostile fields with recomputed CRCs) must
// still die on the validation layer, and a simulated kill -9 at every
// point of a save must leave the previous complete file untouched.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <filesystem>

#include "pst/bank_serialization.h"
#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using Symbols = std::vector<SymbolId>;

Symbols RandomText(size_t len, size_t alphabet, Rng* rng) {
  Symbols text(len);
  for (auto& s : text) s = static_cast<SymbolId>(rng->Uniform(alphabet));
  return text;
}

// Deliberately tiny fixtures: the sweeps are quadratic-ish in blob size
// (every offset × a full checksum pass) and run under ASan/UBSan.
struct Fixtures {
  Fixtures() {
    Rng rng(20260807);
    const size_t alphabet = 3;
    std::vector<uint64_t> counts = {5, 3, 9};
    background = BackgroundModel::FromCounts(counts);
    PstOptions options;
    options.max_depth = 2;
    options.significance_threshold = 1;
    Pst pst(alphabet, options);
    pst.InsertSequence(RandomText(40, alphabet, &rng));

    Pst second(alphabet, options);
    second.InsertSequence(RandomText(30, alphabet, &rng));
    bank.Assemble({std::make_shared<const FrozenPst>(pst, background),
                   std::make_shared<const FrozenPst>(second, background)});
    EXPECT_TRUE(SaveFrozenBank(bank, &fbank_blob).ok());
  }

  BackgroundModel background;
  FrozenBank bank;
  std::string fbank_blob;
};

const Fixtures& Fix() {
  static const Fixtures* fixtures = new Fixtures();
  return *fixtures;
}

Status TryLoadBank(const std::string& blob) {
  FrozenBank bank;
  return LoadFrozenBank(blob, &bank);
}

using Loader = Status (*)(const std::string&);

struct Format {
  const char* name;
  const std::string& blob;
  Loader load;
};

std::vector<Format> AllFormats() {
  return {{".fbank", Fix().fbank_blob, &TryLoadBank}};
}

TEST(PersistenceCorruptionTest, FixturesLoadClean) {
  for (const Format& f : AllFormats()) {
    EXPECT_TRUE(f.load(f.blob).ok()) << f.name;
    EXPECT_GT(f.blob.size(), 100u) << f.name;
    EXPECT_LT(f.blob.size(), 16384u)
        << f.name << ": fixture too big, the sweeps below will crawl";
  }
}

TEST(PersistenceCorruptionTest, TruncationAtEveryOffsetIsRejected) {
  for (const Format& f : AllFormats()) {
    for (size_t len = 0; len < f.blob.size(); ++len) {
      Status st = f.load(f.blob.substr(0, len));
      EXPECT_TRUE(st.IsCorruption() || st.IsIOError())
          << f.name << " truncated to " << len << ": " << st.ToString();
    }
  }
}

TEST(PersistenceCorruptionTest, AppendedGarbageIsRejected) {
  for (const Format& f : AllFormats()) {
    Status st = f.load(f.blob + std::string(7, '\0'));
    EXPECT_TRUE(st.IsCorruption()) << f.name << ": " << st.ToString();
  }
}

TEST(PersistenceCorruptionTest, EverySingleBitFlipIsRejected) {
  for (const Format& f : AllFormats()) {
    std::string blob = f.blob;
    for (size_t byte = 0; byte < blob.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        blob[byte] = static_cast<char>(blob[byte] ^ (1 << bit));
        Status st = f.load(blob);
        EXPECT_TRUE(st.IsCorruption())
            << f.name << " byte " << byte << " bit " << bit << ": "
            << st.ToString();
        blob[byte] = static_cast<char>(blob[byte] ^ (1 << bit));
      }
    }
    EXPECT_EQ(blob, f.blob);  // Sweep restored every flip.
  }
}

// --- CRC-fixed structural attacks ---------------------------------------
// An adversary (or a very unlucky disk) can fix up the checksums; the
// structural validation layer behind them must still hold.

uint64_t ReadU64(const std::string& b, size_t off) {
  uint64_t v;
  std::memcpy(&v, b.data() + off, sizeof(v));
  return v;
}

template <typename T>
void Poke(std::string* b, size_t off, T v) {
  std::memcpy(b->data() + off, &v, sizeof(v));
}

/// Recomputes the header, per-section and whole-file CRCs of an .fbank
/// blob whose fields were tampered with.
void FixupFbankCrcs(std::string* blob) {
  Poke<uint32_t>(blob, kFbankHeaderBytes - 4,
                 Crc32c(blob->data(), kFbankHeaderBytes - 4));
  for (size_t i = 0; i < kFbankSectionCount; ++i) {
    const size_t entry = kFbankHeaderBytes + i * kFbankSectionEntryBytes;
    const size_t offset = static_cast<size_t>(ReadU64(*blob, entry + 8));
    const size_t size = static_cast<size_t>(ReadU64(*blob, entry + 16));
    if (offset + size <= blob->size()) {
      Poke<uint32_t>(blob, entry + 24, Crc32c(blob->data() + offset, size));
    }
  }
  Poke<uint32_t>(blob, blob->size() - 8,
                 Crc32c(blob->data(), blob->size() - kFbankFooterBytes));
}

size_t FbankSectionOffset(const std::string& blob, size_t i) {
  return static_cast<size_t>(
      ReadU64(blob, kFbankHeaderBytes + i * kFbankSectionEntryBytes + 8));
}

TEST(PersistenceCorruptionTest, FbankTruncationAtEverySectionBoundary) {
  const std::string& blob = Fix().fbank_blob;
  std::vector<size_t> boundaries = {
      0, kFbankHeaderBytes,
      kFbankHeaderBytes + kFbankSectionCount * kFbankSectionEntryBytes};
  for (size_t i = 0; i < kFbankSectionCount; ++i) {
    boundaries.push_back(FbankSectionOffset(blob, i));
  }
  boundaries.push_back(blob.size() - kFbankFooterBytes);
  boundaries.push_back(blob.size() - 1);
  for (size_t at : boundaries) {
    ASSERT_LT(at, blob.size());
    EXPECT_TRUE(TryLoadBank(blob.substr(0, at)).IsCorruption())
        << "truncated at " << at;
  }
}

TEST(PersistenceCorruptionTest, FbankHostileMetaWithFixedCrcs) {
  const std::string& clean = Fix().fbank_blob;
  const size_t meta = FbankSectionOffset(clean, 0);
  struct Case {
    const char* what;
    size_t offset;
    uint64_t value;
  };
  const Case cases[] = {
      {"alphabet zero", meta, 0},
      {"alphabet huge", meta, 1ULL << 40},
      {"model count zero", meta + 8, 0},
      {"model count huge", meta + 8, 1ULL << 40},
      {"states zero", meta + 16, 0},
      {"states huge (allocation bomb)", meta + 16, 1ULL << 30},
      {"states off by one", meta + 16, ReadU64(clean, meta + 16) + 1},
      {"depth huge", meta + 24, 1ULL << 40},
  };
  for (const Case& c : cases) {
    std::string blob = clean;
    Poke<uint64_t>(&blob, c.offset, c.value);
    FixupFbankCrcs(&blob);
    EXPECT_TRUE(TryLoadBank(blob).IsCorruption()) << c.what;
  }
}

TEST(PersistenceCorruptionTest, FbankHostileEntriesWithFixedCrcs) {
  const std::string& clean = Fix().fbank_blob;
  const size_t entries = FbankSectionOffset(clean, 2);
  {
    std::string blob = clean;  // Transition escaping the model's rows.
    Poke<uint32_t>(&blob, entries + 8, 0x7FFFFFF0u);
    FixupFbankCrcs(&blob);
    EXPECT_TRUE(TryLoadBank(blob).IsCorruption()) << "next out of range";
  }
  {
    std::string blob = clean;  // Row-misaligned transition.
    Poke<uint32_t>(&blob, entries + 8, 1);
    FixupFbankCrcs(&blob);
    EXPECT_TRUE(TryLoadBank(blob).IsCorruption()) << "next misaligned";
  }
  {
    std::string blob = clean;  // NaN poisons every max() downstream.
    Poke<double>(&blob, entries, std::nan(""));
    FixupFbankCrcs(&blob);
    EXPECT_TRUE(TryLoadBank(blob).IsCorruption()) << "NaN ratio";
  }
  {
    std::string blob = clean;
    Poke<double>(&blob, entries, std::numeric_limits<double>::infinity());
    FixupFbankCrcs(&blob);
    EXPECT_TRUE(TryLoadBank(blob).IsCorruption()) << "+inf ratio";
  }
  {
    std::string blob = clean;
    Poke<uint32_t>(&blob, entries + 12, 1);
    FixupFbankCrcs(&blob);
    EXPECT_TRUE(TryLoadBank(blob).IsCorruption()) << "nonzero padding";
  }
  {
    std::string blob = clean;  // Sections swapped in the table.
    const size_t t0 = kFbankHeaderBytes;
    const size_t t1 = kFbankHeaderBytes + kFbankSectionEntryBytes;
    std::string a = blob.substr(t0, kFbankSectionEntryBytes);
    std::string b = blob.substr(t1, kFbankSectionEntryBytes);
    blob.replace(t0, kFbankSectionEntryBytes, b);
    blob.replace(t1, kFbankSectionEntryBytes, a);
    FixupFbankCrcs(&blob);
    EXPECT_TRUE(TryLoadBank(blob).IsCorruption()) << "shuffled sections";
  }
}

// --- kill -9 mid-save ----------------------------------------------------

TEST(PersistenceCorruptionTest, KillMidBankSaveNeverExposesAPartialFile) {
  std::string tmpl = ::testing::TempDir() + "cluseq_kill_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  ASSERT_NE(made, nullptr);
  const std::string dir = made;
  const std::string path = dir + "/bank.fbank";
  const FrozenBank& bank = Fix().bank;
  ASSERT_TRUE(SaveFrozenBankToFile(bank, path).ok());

  Rng rng(31);
  const Symbols query = RandomText(100, bank.alphabet_size(), &rng);
  const std::vector<SimilarityResult> want = bank.ScanAll(query);
  const size_t file_size = std::filesystem::file_size(path);

  auto expect_intact = [&](const char* what) {
    FrozenBank loaded;
    ASSERT_TRUE(LoadFrozenBankFromFile(path, &loaded).ok()) << what;
    std::vector<SimilarityResult> got = loaded.ScanAll(query);
    for (size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(want[m].log_sim, got[m].log_sim) << what;
    }
  };

  // Cut the write stream at a spread of offsets (every offset would be
  // minutes of fsync traffic; the atomicity argument is offset-oblivious).
  for (size_t cut = 0; cut < file_size; cut += 41) {
    FaultPlan plan;
    plan.write_limit = cut;
    {
      ScopedFaultPlan guard(plan);
      EXPECT_TRUE(SaveFrozenBankToFile(bank, path).IsIOError())
          << "cut " << cut;
    }
    expect_intact("after torn write");
  }
  {
    FaultPlan plan;
    plan.fail_fsync_file = true;
    ScopedFaultPlan guard(plan);
    EXPECT_TRUE(SaveFrozenBankToFile(bank, path).IsIOError());
  }
  expect_intact("after failed file fsync");
  {
    FaultPlan plan;
    plan.fail_rename = true;
    ScopedFaultPlan guard(plan);
    EXPECT_TRUE(SaveFrozenBankToFile(bank, path).IsIOError());
  }
  expect_intact("after failed rename");

  // No temp debris anywhere in the directory.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceCorruptionTest, BitRotOnTheWireIsCaughtAtLoad) {
  // A flip between write buffer and platter (injected at the write seam,
  // after the checksums were computed) must be caught by the next load.
  std::string tmpl = ::testing::TempDir() + "cluseq_rot_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  ASSERT_NE(made, nullptr);
  const std::string dir = made;
  const std::string path = dir + "/bank.fbank";
  FaultPlan plan;
  plan.flip_offset = Fix().fbank_blob.size() / 2;
  plan.flip_mask = 0x10;
  {
    ScopedFaultPlan guard(plan);
    ASSERT_TRUE(SaveFrozenBankToFile(Fix().bank, path).ok());
  }
  FrozenBank loaded;
  EXPECT_TRUE(LoadFrozenBankFromFile(path, &loaded).IsCorruption());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cluseq
