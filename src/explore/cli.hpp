// The command line both search tools share.
//
// tools/fuzz (a campaign) and tools/advsearch (an adversary search) are
// thin front ends over this file: each declares its own flags and its run,
// and everything else exists once here —
//
//  * strict number flags: a value that is not a whole (or, where asked
//    for, a finite decimal) number, has trailing characters, or is out of
//    range is a usage error;
//  * `--out FILE` and `--repro-dir DIR`;
//  * the replay mode: `--replay FILE...` takes every remaining argument as
//    a reproducer file, names that begin with '-' included, and
//    `--replay-dir DIR` every *.json in DIR. Either schema replays
//    (explore/reproducer.hpp), with one OK or FAIL line per file;
//  * the exit codes: 0 clean (every replay exact), 1 findings, refused
//    cells or replay mismatches, 2 usage or setup errors.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "explore/reproducer.hpp"

namespace bftsim::explore::cli {

/// A command line the tool cannot run. run() prints the message (when
/// there is one) and the usage text, and exits 2.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Largest `--jobs` value (0 = one worker per hardware thread).
inline constexpr std::uint64_t kMaxJobs = 1024;

/// `text` as a whole decimal number in [lo, hi]; anything else (a sign, a
/// blank, trailing characters, overflow) throws a UsageError naming `flag`.
[[nodiscard]] std::uint64_t parse_count(const std::string& flag,
                                        const std::string& text,
                                        std::uint64_t lo, std::uint64_t hi);

/// `text` as a finite decimal number in [lo, hi]; same errors.
[[nodiscard]] double parse_number(const std::string& flag,
                                  const std::string& text, double lo,
                                  double hi);

/// A cursor over argv that consumes the shared flags itself and stops at
/// each tool flag.
class Args {
 public:
  Args(int argc, const char* const* argv);

  /// Advances to the next tool flag; false when argv is exhausted.
  [[nodiscard]] bool next();
  [[nodiscard]] bool is(const char* flag) const { return flag_ == flag; }
  /// The current flag's argument (a UsageError when there is none).
  [[nodiscard]] std::string value();
  [[nodiscard]] std::uint64_t count(std::uint64_t lo, std::uint64_t hi) {
    return parse_count(flag_, value(), lo, hi);
  }
  [[nodiscard]] double number(double lo, double hi) {
    return parse_number(flag_, value(), lo, hi);
  }
  /// Rejects the current flag as unknown.
  [[noreturn]] void unknown() const;

  std::string out;                  ///< --out FILE
  std::string repro_dir;            ///< --repro-dir DIR
  std::vector<std::string> replay;  ///< --replay FILE...
  std::string replay_dir;           ///< --replay-dir DIR

 private:
  std::vector<std::string> argv_;
  std::size_t i_ = 0;
  std::string flag_;
};

/// One search tool.
struct Tool {
  const char* name;      ///< prefixes setup errors ("fuzz: ...")
  /// The run mode's synopsis after "usage: <argv0> ", ending in '\n'; the
  /// replay lines follow it.
  const char* synopsis;
  /// Parses the tool flag `args` stands at (Args::unknown() if none).
  std::function<void(Args&)> flag;
  /// Runs the campaign or search; returns the exit code.
  std::function<int(const Args&)> run;
};

/// The whole command line: parses argv, then replays (--replay /
/// --replay-dir) or runs the tool. Returns the exit code.
[[nodiscard]] int run(int argc, char** argv, const Tool& tool);

/// Replays `files`: one OK or FAIL line per file and a summary on stderr.
/// Returns 0 when every file replays exactly, 1 otherwise.
[[nodiscard]] int replay_files(const std::vector<std::string>& files);

/// Saves `repro` as DIR/<Reproducer::file_name()> and returns that path.
std::string write_reproducer(const std::string& dir, const Reproducer& repro);

/// Writes `doc` to `path` and says so on stderr.
void write_report(const std::string& path, const json::Value& doc);

}  // namespace bftsim::explore::cli
