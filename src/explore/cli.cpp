#include "explore/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>

#include "runner/export.hpp"

namespace bftsim::explore::cli {

namespace {

[[noreturn]] void reject(const std::string& flag, const std::string& text,
                         const char* expected, const std::string& lo,
                         const std::string& hi) {
  throw UsageError(flag + ": expected " + expected + " in [" + lo + ", " + hi +
                   "], got \"" + text + "\"");
}

std::string number_text(double v) { return json::Value{v}.dump(); }

/// Adds every *.json under `dir` to `files`; prints the reason and returns
/// false when the directory cannot be read or nothing is left to replay.
bool list_reproducers(const std::string& dir, std::vector<std::string>& files) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "%s: %s\n", dir.c_str(), ec.message().c_str());
    return false;
  }
  if (files.empty()) {
    std::fprintf(stderr, "%s: no reproducer files\n", dir.c_str());
    return false;
  }
  return true;
}

/// The FAIL lines of a replay that did not reproduce.
void report_mismatch(const std::string& file, const Reproducer& repro,
                     const ReplayOutcome& outcome) {
  const char* f = file.c_str();
  const Evaluation& now = outcome.replayed;
  const Evaluation& then = repro.recorded;
  const auto fp = [](const TraceId& t) {
    return fingerprint_to_hex(t.fingerprint);
  };
  const auto n = [](const TraceId& t) {
    return static_cast<unsigned long long>(t.records);
  };
  if (repro.kind == ObjectiveKind::kVerdict) {
    if (!outcome.verdict_matches) {
      std::fprintf(stderr, "FAIL %s: expected %s violation, got %s\n", f,
                   std::string(to_string(repro.oracle())).c_str(),
                   now.verdict.to_string().c_str());
    }
    if (!outcome.fingerprint_matches) {
      std::fprintf(stderr,
                   "FAIL %s: trace fingerprint %s (%llu records), recorded "
                   "%s (%llu records)\n",
                   f, fp(now.trace).c_str(), n(now.trace),
                   fp(then.trace).c_str(), n(then.trace));
    }
    return;
  }
  if (!outcome.score_matches) {
    std::fprintf(stderr, "FAIL %s: score %s, recorded %s\n", f,
                 number_text(now.damage.score).c_str(),
                 number_text(then.damage.score).c_str());
  }
  if (!outcome.verdict_matches) {
    std::fprintf(stderr, "FAIL %s: verdict \"%s\", recorded \"%s\"\n", f,
                 now.damage.describe().c_str(), then.damage.describe().c_str());
  }
  if (!outcome.fingerprint_matches) {
    std::fprintf(stderr,
                 "FAIL %s: fingerprints attacked %s/%llu baseline %s/%llu, "
                 "recorded attacked %s/%llu baseline %s/%llu\n",
                 f, fp(now.trace).c_str(), n(now.trace),
                 fp(now.baseline).c_str(), n(now.baseline),
                 fp(then.trace).c_str(), n(then.trace),
                 fp(then.baseline).c_str(), n(then.baseline));
  }
}

}  // namespace

std::uint64_t parse_count(const std::string& flag, const std::string& text,
                          std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value < lo ||
      value > hi) {
    reject(flag, text, "a whole number", std::to_string(lo),
           std::to_string(hi));
  }
  return value;
}

double parse_number(const std::string& flag, const std::string& text,
                    double lo, double hi) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end ||
      !std::isfinite(value) || value < lo || value > hi) {
    reject(flag, text, "a number", number_text(lo), number_text(hi));
  }
  return value;
}

Args::Args(int argc, const char* const* argv) : argv_(argv, argv + argc) {}

bool Args::next() {
  while (++i_ < argv_.size()) {
    flag_ = argv_[i_];
    if (flag_ == "--out") {
      out = value();
    } else if (flag_ == "--repro-dir") {
      repro_dir = value();
    } else if (flag_ == "--replay-dir") {
      replay_dir = value();
    } else if (flag_ == "--replay") {
      // Replay mode takes no further options: every remaining argument is
      // a reproducer path, including names that begin with '-'.
      replay.assign(argv_.begin() + static_cast<std::ptrdiff_t>(i_ + 1),
                    argv_.end());
      if (replay.empty()) throw UsageError("");
      i_ = argv_.size();
    } else {
      return true;
    }
  }
  return false;
}

std::string Args::value() {
  if (i_ + 1 >= argv_.size()) throw UsageError("");
  return argv_[++i_];
}

void Args::unknown() const { throw UsageError("unknown option: " + flag_); }

int run(int argc, char** argv, const Tool& tool) {
  Args args(argc, argv);
  try {
    while (args.next()) tool.flag(args);
  } catch (const UsageError& e) {
    if (*e.what() != '\0') std::fprintf(stderr, "%s\n", e.what());
    std::fprintf(stderr, "usage: %s ", argv[0]);
    std::fputs(tool.synopsis, stderr);
    std::fprintf(stderr,
                 "       %s --replay FILE...\n       %s --replay-dir DIR\n",
                 argv[0], argv[0]);
    return 2;
  }

  std::vector<std::string> files = args.replay;
  if (!args.replay_dir.empty()) {
    if (!list_reproducers(args.replay_dir, files)) return 2;
    std::sort(files.begin(), files.end());
  }
  if (!files.empty()) return replay_files(files);

  try {
    return tool.run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool.name, e.what());
    return 2;
  }
}

int replay_files(const std::vector<std::string>& files) {
  int bad = 0;
  for (const std::string& file : files) {
    try {
      const Reproducer repro = Reproducer::from_file(file);
      const ReplayOutcome outcome = replay_reproducer(repro);
      if (!outcome.ok()) {
        ++bad;
        report_mismatch(file, repro, outcome);
      } else if (repro.kind == ObjectiveKind::kVerdict) {
        const TraceId& trace = outcome.replayed.trace;
        std::fprintf(stderr, "OK   %s: %s reproduces, fingerprint %s\n",
                     file.c_str(),
                     std::string(to_string(repro.oracle())).c_str(),
                     fingerprint_to_hex(trace.fingerprint).c_str());
      } else {
        std::fprintf(stderr, "OK   %s: score %s reproduces (%s)\n",
                     file.c_str(),
                     number_text(repro.recorded.damage.score).c_str(),
                     repro.recorded.damage.describe().c_str());
      }
    } catch (const std::exception& e) {
      ++bad;
      std::fprintf(stderr, "FAIL %s: %s\n", file.c_str(), e.what());
    }
  }
  std::fprintf(stderr, "replayed %zu reproducer(s), %d failure(s)\n",
               files.size(), bad);
  return bad == 0 ? 0 : 1;
}

std::string write_reproducer(const std::string& dir, const Reproducer& repro) {
  std::filesystem::create_directories(dir);
  const std::string file = dir + "/" + repro.file_name();
  repro.save(file);
  return file;
}

void write_report(const std::string& path, const json::Value& doc) {
  write_json_file(path, doc);
  std::fprintf(stderr, "report written to %s\n", path.c_str());
}

}  // namespace bftsim::explore::cli
