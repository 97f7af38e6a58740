// Deterministic fuzzing campaign driver.
//
//   fuzz [--seed S] [--scenarios N] [--jobs J] [--canary]
//        [--config FILE] [--out FILE] [--repro-dir DIR]
//     Runs a campaign: N scenarios drawn from the default space (every
//     builtin protocol) or, with --canary, from the canary-hunt space
//     (the deliberately unsound "pbft-canary" variant — used to prove the
//     pipeline finds and shrinks real violations). --config reads
//     campaign options from the "$.explore" clause of a JSON file. Every
//     finding is shrunk; with --repro-dir each shrunk reproducer is also
//     written to DIR/<campaign>-<scenario>.json. Exit code: 0 when the
//     campaign is clean, 1 when it found violations or crashes.
//
//   fuzz --replay FILE...
//   fuzz --replay-dir DIR
//     Replays reproducers (the fuzz-corpus regression mode); shared with
//     tools/advsearch, see src/explore/cli.hpp.
//
// The campaign report is deterministic: same seed and scenario count give
// byte-identical --out files for any --jobs value. See docs/FUZZING.md.
#include <cstdio>
#include <optional>
#include <string>

#include "core/json.hpp"
#include "explore/campaign.hpp"
#include "explore/cli.hpp"

int main(int argc, char** argv) {
  using namespace bftsim;
  using namespace bftsim::explore;

  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> scenarios;
  std::size_t jobs = 0;
  bool canary = false;
  std::string config_path;

  cli::Tool tool;
  tool.name = "fuzz";
  tool.synopsis =
      "[--seed S] [--scenarios N] [--jobs J] [--canary]\n"
      "          [--config FILE] [--out FILE] [--repro-dir DIR]\n";
  tool.flag = [&](cli::Args& args) {
    if (args.is("--seed")) {
      seed = args.count(0, kMaxSeed);
    } else if (args.is("--scenarios")) {
      scenarios = args.count(1, CampaignOptions::kMaxScenarios);
    } else if (args.is("--jobs")) {
      jobs = static_cast<std::size_t>(args.count(0, cli::kMaxJobs));
    } else if (args.is("--canary")) {
      canary = true;
    } else if (args.is("--config")) {
      config_path = args.value();
    } else {
      args.unknown();
    }
  };
  tool.run = [&](const cli::Args& args) {
    CampaignOptions options;
    if (!config_path.empty()) {
      const json::Value doc = json::parse_file(config_path);
      const json::Value* clause = doc.as_object().find("explore");
      if (clause == nullptr) {
        std::fprintf(stderr, "%s: no \"explore\" clause\n", config_path.c_str());
        return 2;
      }
      options = CampaignOptions::from_json(*clause, "$.explore");
    }
    if (canary) options.space = ScenarioSpace::canary();
    if (seed) options.seed = *seed;
    if (scenarios) options.scenario_count = *scenarios;
    options.jobs = jobs;

    const CampaignReport report = run_campaign(options);

    std::fprintf(stderr,
                 "campaign seed %llu: %llu scenarios (%zu decided, %zu "
                 "horizon, %zu event-budget, %zu drained, %zu crashed), "
                 "%zu finding(s)\n",
                 static_cast<unsigned long long>(report.seed),
                 static_cast<unsigned long long>(report.scenario_count),
                 report.tally.decided, report.tally.horizon,
                 report.tally.event_budget, report.tally.queue_drained,
                 report.tally.failed, report.findings.size());
    for (const CampaignFinding& finding : report.findings) {
      const Reproducer& repro = finding.reproducer;
      std::fprintf(stderr, "FINDING %s: %s (shrunk in %zu steps / %zu runs)\n",
                   repro.id.c_str(), repro.recorded.verdict.diagnosis.c_str(),
                   repro.shrink_steps, repro.shrink_runs);
      if (!args.repro_dir.empty()) {
        std::fprintf(stderr, "  reproducer written to %s\n",
                     cli::write_reproducer(args.repro_dir, repro).c_str());
      }
    }
    for (const RunFailure& crash : report.crashes) {
      std::fprintf(stderr, "CRASH %s: %s\n", crash.label.c_str(),
                   crash.error.c_str());
    }

    const json::Value doc = report.to_json();
    if (args.out.empty()) {
      std::printf("%s\n", doc.dump(2).c_str());
    } else {
      cli::write_report(args.out, doc);
    }
    return report.clean() ? 0 : 1;
  };
  return cli::run(argc, argv, tool);
}
