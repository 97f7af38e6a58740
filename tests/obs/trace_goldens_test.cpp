// Trace-file goldens: two small runs recorded through both streaming sinks
// and checked in under tests/data/trace_goldens/. Re-recording each run
// in-process must reproduce the files byte for byte, so any change to the
// on-disk trace formats, the payload names they carry (corruption's
// "corrupt" included) or the run itself shows up here.
//
// To re-record after an intended change, for each run and sink:
//   tools/trace_inspect record tests/data/trace_goldens/<run>.json
//       --sink <jsonl|binary> --out tests/data/trace_goldens/<run>.<sink>
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <ostream>
#include <string>

#include "core/config.hpp"
#include "core/json.hpp"
#include "sim/simulation.hpp"

#ifndef BFTSIM_REPO_ROOT
#error "BFTSIM_REPO_ROOT must point at the repository checkout"
#endif

namespace bftsim {
namespace {

const std::string kDir =
    std::string(BFTSIM_REPO_ROOT) + "/tests/data/trace_goldens/";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct TraceCase {
  const char* run;
  TraceSinkKind sink;
};

// Printed by value so the listed test names do not carry the address of
// the run-name literal, which moves from one process start to the next.
void PrintTo(const TraceCase& c, std::ostream* os) {
  *os << c.run << "/" << to_string(c.sink);
}

class TraceGoldensTest : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TraceGoldensTest, RerecordMatchesCheckedInBytes) {
  const auto [run, sink] = GetParam();
  const std::string suffix(to_string(sink));
  const std::string golden = slurp(kDir + run + "." + suffix);
  ASSERT_FALSE(golden.empty()) << "missing golden " << run << "." << suffix;

  SimConfig cfg = SimConfig::from_json(json::parse_file(kDir + run + ".json"));
  cfg.obs.sink = sink;
  cfg.obs.trace_path = ::testing::TempDir() + std::to_string(::getpid()) +
                       "_" + run + "." + suffix;
  (void)run_simulation(cfg);
  EXPECT_TRUE(slurp(cfg.obs.trace_path) == golden)
      << run << "." << suffix << " differs from the checked-in golden";
}

INSTANTIATE_TEST_SUITE_P(
    Runs, TraceGoldensTest,
    ::testing::Values(TraceCase{"pbft_corrupt", TraceSinkKind::kJsonl},
                      TraceCase{"pbft_corrupt", TraceSinkKind::kBinary},
                      TraceCase{"hotstuff_ns", TraceSinkKind::kJsonl},
                      TraceCase{"hotstuff_ns", TraceSinkKind::kBinary}),
    [](const auto& info) {
      return std::string(info.param.run) + "_" +
             std::string(to_string(info.param.sink));
    });

}  // namespace
}  // namespace bftsim
