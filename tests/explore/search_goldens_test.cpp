// Search goldens: the CI smoke searches, rerun in-process and compared byte
// for byte against outputs recorded with the shipped tools. The files under
// tests/data/search_goldens/ were written by
//
//   fuzz --canary --seed 1 --scenarios 12 --out canary/report.json
//        --repro-dir canary/repros
//   fuzz --seed 3 --scenarios 20 --out clean/report.json
//   advsearch --seed 5 --protocols pbft --grid 6 --rounds 1
//        --out advsearch/report.json --repro-dir advsearch/repros
//        > advsearch/table.txt
//
// so any change to what a campaign or a search finds, how it shrinks, or
// how its report, table and reproducers are written shows up here. Report
// files are `dump(2)` plus a newline, as write_json_file writes them;
// reproducer files are named as the tools name them (the fuzz scenario id
// with '/' turned into '-'; "<protocol>-<attack>" for the search).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "adversary/search.hpp"
#include "core/json.hpp"
#include "explore/campaign.hpp"

namespace bftsim {
namespace {

const std::string kDir =
    std::string(BFTSIM_REPO_ROOT) + "/tests/data/search_goldens";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string file_text(const json::Value& doc) { return doc.dump(2) + '\n'; }

/// Every *.json under `dir`, keyed by file name.
std::map<std::string, std::string> recorded_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      files[entry.path().filename().string()] = read_file(entry.path().string());
    }
  }
  return files;
}

void expect_same_files(const std::map<std::string, std::string>& emitted,
                       const std::string& dir) {
  const std::map<std::string, std::string> recorded = recorded_files(dir);
  EXPECT_EQ(emitted.size(), recorded.size());
  for (const auto& [name, text] : recorded) {
    const auto it = emitted.find(name);
    if (it == emitted.end()) {
      ADD_FAILURE() << name << " was recorded but not emitted";
      continue;
    }
    EXPECT_EQ(it->second, text) << name;
  }
}

std::map<std::string, std::string> campaign_reproducers(
    const explore::CampaignReport& report) {
  std::map<std::string, std::string> files;
  for (const explore::CampaignFinding& finding : report.findings) {
    const json::Value doc = finding.reproducer.to_json();
    std::string name = doc.as_object().at("scenario").as_string();
    std::replace(name.begin(), name.end(), '/', '-');
    files[name + ".json"] = file_text(doc);
  }
  return files;
}

TEST(SearchGoldens, CanaryCampaignMatchesTheRecordedOutputs) {
  explore::CampaignOptions options;
  options.space = explore::ScenarioSpace::canary();
  options.seed = 1;
  options.scenario_count = 12;
  options.jobs = 2;
  const explore::CampaignReport report = explore::run_campaign(options);
  EXPECT_EQ(file_text(report.to_json()), read_file(kDir + "/canary/report.json"));
  expect_same_files(campaign_reproducers(report), kDir + "/canary/repros");
}

TEST(SearchGoldens, DefaultCampaignMatchesTheRecordedReport) {
  explore::CampaignOptions options;
  options.seed = 3;
  options.scenario_count = 20;
  options.jobs = 2;
  const explore::CampaignReport report = explore::run_campaign(options);
  EXPECT_EQ(file_text(report.to_json()), read_file(kDir + "/clean/report.json"));
  EXPECT_TRUE(campaign_reproducers(report).empty());
}

TEST(SearchGoldens, AdversarySearchMatchesTheRecordedOutputs) {
  adversary::SearchOptions options;
  options.seed = 5;
  options.protocols = {"pbft"};
  options.grid = 6;
  options.rounds = 1;
  options.jobs = 4;
  const adversary::SearchReport report = adversary::run_search(options);
  EXPECT_EQ(file_text(report.to_json()),
            read_file(kDir + "/advsearch/report.json"));
  EXPECT_EQ(report.table(), read_file(kDir + "/advsearch/table.txt"));
  std::map<std::string, std::string> files;
  for (const adversary::WorstCase& w : report.worst) {
    if (!w.has_reproducer) continue;
    const json::Value doc = w.reproducer.to_json();
    const json::Object& o = doc.as_object();
    files[o.at("protocol").as_string() + "-" + o.at("attack").as_string() +
          ".json"] = file_text(doc);
  }
  expect_same_files(files, kDir + "/advsearch/repros");
}

}  // namespace
}  // namespace bftsim
