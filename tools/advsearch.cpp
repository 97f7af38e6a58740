// Adversary strategy search driver.
//
//   advsearch [--seed S] [--jobs J] [--protocols a,b,c] [--n N] [--grid G]
//             [--rounds R] [--shrink-runs K] [--max-events E]
//             [--max-time-ms T] [--out FILE] [--repro-dir DIR]
//     Runs the worst-case attack search over every (protocol, attack
//     space) cell and prints the ranked resilience table on stdout. The
//     table and the --out JSON report are byte-identical for every --jobs
//     value (candidate batches fold up in index order; see
//     src/adversary/search.hpp). With --repro-dir each worst case's
//     replayable reproducer is written to DIR/<protocol>-<attack>.json.
//     Exit code: 0 when every nonzero cell shipped a replay-verified
//     reproducer, 1 when any cell was refused (replay divergence — a
//     determinism bug), 2 on usage or setup errors.
//
//   advsearch --replay FILE...
//   advsearch --replay-dir DIR
//     Replays reproducers: score (exact), verdict flags and both trace
//     fingerprints; shared with tools/fuzz, see src/explore/cli.hpp.
//
// See docs/ADVERSARY.md.
#include <cstdio>
#include <string>
#include <vector>

#include "adversary/search.hpp"
#include "explore/campaign.hpp"
#include "explore/cli.hpp"

namespace {

[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  for (const char c : csv) {
    if (c == ',') {
      if (!token.empty()) out.push_back(token);
      token.clear();
    } else {
      token += c;
    }
  }
  if (!token.empty()) out.push_back(token);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bftsim;
  using namespace bftsim::adversary;
  namespace cli = bftsim::explore::cli;
  using explore::CampaignOptions;

  // The number flags take the bounds the config parsers enforce
  // (CampaignOptions::from_json, SimConfig::from_json).
  SearchOptions options;
  cli::Tool tool;
  tool.name = "advsearch";
  tool.synopsis =
      "[--seed S] [--jobs J] [--protocols a,b,c] [--n N]\n"
      "          [--grid G] [--rounds R] [--shrink-runs K] [--max-events E]\n"
      "          [--max-time-ms T] [--out FILE] [--repro-dir DIR]\n";
  tool.flag = [&](cli::Args& args) {
    if (args.is("--seed")) {
      options.seed = args.count(0, explore::kMaxSeed);
    } else if (args.is("--jobs")) {
      options.jobs = static_cast<std::size_t>(args.count(0, cli::kMaxJobs));
    } else if (args.is("--protocols")) {
      options.protocols = split_csv(args.value());
      if (options.protocols.empty()) throw cli::UsageError("");
    } else if (args.is("--n")) {
      options.n = static_cast<std::uint32_t>(args.count(1, 1'000'000));
    } else if (args.is("--grid")) {
      options.grid = args.count(1, CampaignOptions::kMaxScenarios);
    } else if (args.is("--rounds")) {
      options.rounds = args.count(0, CampaignOptions::kMaxScenarios);
    } else if (args.is("--shrink-runs")) {
      options.shrink_runs = static_cast<std::size_t>(
          args.count(1, CampaignOptions::kMaxShrinkRuns));
    } else if (args.is("--max-events")) {
      options.watchdog.max_events = args.count(
          CampaignOptions::kEventBudgetMin, CampaignOptions::kEventBudgetMax);
    } else if (args.is("--max-time-ms")) {
      // 0 keeps the search's horizon; the upper bound is SimConfig's.
      options.watchdog.max_time_ms = args.number(0.0, 1e12);
    } else {
      args.unknown();
    }
  };
  tool.run = [&](const cli::Args& args) {
    const SearchReport report = run_search(options);

    std::fputs(report.table().c_str(), stdout);

    if (!args.repro_dir.empty()) {
      for (const WorstCase& w : report.worst) {
        if (!w.has_reproducer) continue;
        const std::string file =
            cli::write_reproducer(args.repro_dir, w.reproducer);
        std::fprintf(stderr, "reproducer written to %s\n", file.c_str());
      }
    }
    if (!args.out.empty()) cli::write_report(args.out, report.to_json());
    return report.refused.empty() ? 0 : 1;
  };
  return cli::run(argc, argv, tool);
}
