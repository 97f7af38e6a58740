// Fuzz-corpus regression: every checked-in reproducer must replay with its
// recorded verdict and a bit-identical trace fingerprint. A failure here
// means either a behavior change in the engine (fingerprint drift) or a
// fixed/regressed protocol bug (verdict drift) — both demand a look.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "explore/reproducer.hpp"

namespace bftsim::explore {
namespace {

std::vector<std::string> corpus_files() {
  const std::string dir =
      std::string(BFTSIM_REPO_ROOT) + "/tests/data/fuzz_corpus";
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpus, EveryReproducerReplaysExactly) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty()) << "fuzz corpus is missing";
  for (const std::string& file : files) {
    const Reproducer repro = Reproducer::from_file(file);
    EXPECT_EQ(repro.kind, ObjectiveKind::kVerdict) << file;
    const ReplayOutcome outcome = replay_reproducer(repro);
    EXPECT_TRUE(outcome.verdict_matches)
        << file << ": expected " << to_string(repro.oracle())
        << ", got " << outcome.replayed.verdict.to_string();
    EXPECT_TRUE(outcome.fingerprint_matches)
        << file << ": fingerprint/record-count drift ("
        << outcome.replayed.trace.fingerprint << "/"
        << outcome.replayed.trace.records << " vs recorded "
        << repro.recorded.trace.fingerprint << "/"
        << repro.recorded.trace.records << ")";
  }
}

TEST(FuzzCorpus, CoversBothSafetyOracleKinds) {
  // The corpus intentionally keeps at least one agreement violation and
  // one certificate violation, so both oracle code paths stay regression-
  // tested from checked-in data.
  std::set<Oracle> seen;
  for (const std::string& file : corpus_files()) {
    seen.insert(Reproducer::from_file(file).oracle());
  }
  EXPECT_TRUE(seen.count(Oracle::kAgreement));
  EXPECT_TRUE(seen.count(Oracle::kCertificate));
}

}  // namespace
}  // namespace bftsim::explore
