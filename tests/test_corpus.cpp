#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/verify/corpus.hpp"
#include "corpus/scenarios.hpp"

namespace cyclone::verify {
namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

GoldenField make_field(const std::string& name, uint64_t seed) {
  GoldenField f;
  f.name = name;
  f.tiles = 6;
  f.ni = f.nj = 4;
  f.nk = 1;
  f.checksum = 0x1234abcd0000ull + seed;
  f.samples = {seed, seed + 1, seed + 2, seed + 3};
  return f;
}

GoldenSnapshot make_snapshot(const std::string& scenario) {
  GoldenSnapshot snap;
  snap.scenario = scenario;
  snap.fields = {make_field("h", 10), make_field("u", 20), make_field("q0", 30)};
  return snap;
}

/// A registry of model-free scenarios (the runner just replays fabricated
/// fields) so corpus bookkeeping is testable without running a core.
std::vector<Scenario> fake_registry() {
  std::vector<Scenario> registry;
  for (const std::string name : {"fake_a", "fake_b"}) {
    Scenario sc;
    sc.name = name;
    sc.core = "fake";
    sc.ic = "synthetic";
    sc.grid = "c4";
    sc.run = [name](const std::string&) {
      return ScenarioResult{make_snapshot(name).fields};
    };
    registry.push_back(sc);
  }
  return registry;
}

// One file per test case: `ctest -j` runs the cases as concurrent processes.
class CorpusFormatTest : public ::testing::Test {
 protected:
  std::string path_ = testing::TempDir() + "corpus_format_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".gold";
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(CorpusFormatTest, SaveLoadRoundTripsExactly) {
  const GoldenSnapshot snap = make_snapshot("roundtrip");
  snap.save(path_);
  const GoldenSnapshot loaded = GoldenSnapshot::load(path_);
  EXPECT_EQ(loaded.scenario, "roundtrip");
  ASSERT_EQ(loaded.fields.size(), snap.fields.size());
  for (size_t i = 0; i < snap.fields.size(); ++i) EXPECT_EQ(loaded.fields[i], snap.fields[i]);
}

TEST_F(CorpusFormatTest, SingleBitFlipIsDetected) {
  make_snapshot("tamper").save(path_);
  std::string bytes = read_bytes(path_);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  write_bytes(path_, bytes);
  try {
    GoldenSnapshot::load(path_);
    FAIL() << "tampered golden loaded without error";
  } catch (const CorpusError& e) {
    EXPECT_NE(e.reason().find("checksum trailer mismatch"), std::string::npos) << e.what();
    EXPECT_EQ(e.file(), path_);
  }
}

TEST_F(CorpusFormatTest, TruncationIsAStructuredError) {
  make_snapshot("truncate").save(path_);
  const std::string bytes = read_bytes(path_);
  // Shorter than the fixed header: the explicit too-short diagnostic.
  write_bytes(path_, bytes.substr(0, 10));
  try {
    GoldenSnapshot::load(path_);
    FAIL() << "truncated golden loaded without error";
  } catch (const CorpusError& e) {
    EXPECT_NE(e.reason().find("truncated"), std::string::npos) << e.what();
  }
  // Mid-file truncation: caught by the trailer before any length is trusted.
  write_bytes(path_, bytes.substr(0, (bytes.size() * 3) / 5));
  EXPECT_THROW(GoldenSnapshot::load(path_), CorpusError);
}

TEST_F(CorpusFormatTest, GarbageBytesAreRejectedByMagic) {
  std::string garbage(100, '\0');
  for (size_t i = 0; i < garbage.size(); ++i) garbage[i] = static_cast<char>(i * 37 + 11);
  write_bytes(path_, garbage);
  try {
    GoldenSnapshot::load(path_);
    FAIL() << "garbage file loaded without error";
  } catch (const CorpusError& e) {
    EXPECT_NE(e.reason().find("bad magic"), std::string::npos) << e.what();
  }
}

TEST_F(CorpusFormatTest, VersionSkewIsRejectedByName) {
  make_snapshot("version").save(path_);
  std::string bytes = read_bytes(path_);
  // Patch the version word (right after the 8-byte magic) to 99 and restore
  // a valid trailer so only the version check can fire.
  bytes[8] = 99;
  std::string body = bytes.substr(0, bytes.size() - 8);
  const uint64_t trailer = fnv1a(body);
  for (int b = 0; b < 8; ++b) {
    bytes[bytes.size() - 8 + static_cast<size_t>(b)] =
        static_cast<char>((trailer >> (8 * b)) & 0xFF);
  }
  write_bytes(path_, bytes);
  try {
    GoldenSnapshot::load(path_);
    FAIL() << "version-skewed golden loaded without error";
  } catch (const CorpusError& e) {
    EXPECT_NE(e.reason().find("version mismatch: file has v99"), std::string::npos)
        << e.what();
  }
}

class CorpusCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "corpus_check_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    options_.dir = dir_;
    options_.backends = {"b1", "b2"};
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  CorpusOptions options_;
};

TEST_F(CorpusCheckTest, RecordThenVerifyIsClean) {
  EXPECT_EQ(record_corpus(fake_registry(), options_, "b1"), 2);
  const CorpusReport report = check_corpus(fake_registry(), options_);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.scenarios_checked, 2);
  // 2 scenarios x 2 backends x 3 fields.
  EXPECT_EQ(report.comparisons, 12);
}

TEST_F(CorpusCheckTest, TamperedGoldenNamesScenarioAndField) {
  record_corpus(fake_registry(), options_, "b1");
  GoldenSnapshot snap = GoldenSnapshot::load(dir_ + "/fake_a.gold");
  snap.fields[1].checksum ^= 1;  // "u"
  snap.fields[1].samples[0] ^= 1;
  snap.save(dir_ + "/fake_a.gold");

  const CorpusReport report = check_corpus(fake_registry(), options_);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.failures.size(), 2u);  // once per backend
  for (const CorpusFailure& f : report.failures) {
    EXPECT_EQ(f.scenario, "fake_a");
    EXPECT_EQ(f.field, "u");
    EXPECT_NE(f.detail.find("checksum"), std::string::npos) << f.detail;
    EXPECT_NE(f.detail.find("first differing sample"), std::string::npos) << f.detail;
  }
}

TEST_F(CorpusCheckTest, MissingGoldenIsANamedFailure) {
  record_corpus(fake_registry(), options_, "b1");
  std::filesystem::remove(dir_ + "/fake_b.gold");
  const CorpusReport report = check_corpus(fake_registry(), options_);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].scenario, "fake_b");
  EXPECT_NE(report.failures[0].detail.find("cannot open"), std::string::npos);
}

TEST_F(CorpusCheckTest, UnreferencedGoldenFailsTheRun) {
  record_corpus(fake_registry(), options_, "b1");
  make_snapshot("stale").save(dir_ + "/stale.gold");
  CorpusReport report = check_corpus(fake_registry(), options_);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.unreferenced_files.size(), 1u);
  EXPECT_EQ(report.unreferenced_files[0], "stale.gold");

  options_.check_unreferenced = false;
  report = check_corpus(fake_registry(), options_);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST_F(CorpusCheckTest, ScenarioNameEchoIsChecked) {
  record_corpus(fake_registry(), options_, "b1");
  GoldenSnapshot snap = GoldenSnapshot::load(dir_ + "/fake_a.gold");
  snap.scenario = "somebody_else";
  snap.save(dir_ + "/fake_a.gold");
  const CorpusReport report = check_corpus(fake_registry(), options_);
  EXPECT_FALSE(report.ok);
  ASSERT_GE(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].detail.find("golden records scenario"), std::string::npos);
}

TEST_F(CorpusCheckTest, ThrowingScenarioBecomesAFailure) {
  std::vector<Scenario> registry = fake_registry();
  registry[0].run = [](const std::string& backend) -> ScenarioResult {
    throw Error("backend " + backend + " exploded");
  };
  record_corpus({registry[1]}, options_, "b1");
  make_snapshot("fake_a").save(dir_ + "/fake_a.gold");
  const CorpusReport report = check_corpus(registry, options_);
  EXPECT_FALSE(report.ok);
  bool found = false;
  for (const CorpusFailure& f : report.failures) {
    if (f.scenario == "fake_a" && f.detail.find("exploded") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

// The committed corpus itself: every registry scenario verifies on the
// reference executor against the goldens in tests/corpus. This is the
// tier-1 anchor that pins both model cores' numerics to the repository.
TEST(CorpusCommitted, VerifiesOnReferenceBackend) {
  CorpusOptions options;
  options.dir = corpus::default_corpus_dir();
  options.backends = {"interp"};
  const CorpusReport report = check_corpus(corpus::standard_scenarios(), options);
  EXPECT_TRUE(report.ok) << report.summary() << (report.failures.empty()
                                                     ? ""
                                                     : "\nfirst: " + report.failures[0].detail);
  EXPECT_GE(report.scenarios_checked, 12);
}

}  // namespace
}  // namespace cyclone::verify
