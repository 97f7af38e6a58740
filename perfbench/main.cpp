// The bftsim benchmark program. Runs one workload (see workloads.cpp) against
// the library's public API, checks every run's outcome, and prints every
// metric by name with its unit; the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (untraced runs); with
// --trace 1 they are the per-layer ones, from a separate traced run. See
// README.md for what each metric means and which layer should move it.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--size full|tiny] [--expected PATH [--record]]
//                  [--commit SHA]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "core/memstats.hpp"
#include "pace.hpp"
#include "protocols/registry.hpp"
#include "replay.hpp"
#include "runner/runner.hpp"
#include "sim/controller.hpp"
#include "traced.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using bftsim::RunResult;
using bftsim::SimConfig;
using Clock = std::chrono::steady_clock;

/// The seed whose outcome digests are recorded in expected_digests.json.
constexpr std::uint64_t kDefaultSeed = 1;
/// Simulated-time sampling period of the timeline on traced runs.
constexpr double kTimelineTickMs = 5.0;
/// Fewest timed repeats (or sweep passes) behind a median, however short
/// --seconds is.
constexpr std::size_t kMinRepeats = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Whether another repeat fits in the measuring window: at least
/// kMinRepeats, then only while the last repeat's duration still fits, so
/// the window is not overrun by most of a run.
bool another_repeat(std::size_t done, Clock::time_point t0, double last_s,
                    double window_s) {
  return done < kMinRepeats || seconds_since(t0) + last_s <= window_s;
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// "min..max (median)" of the pace factors a run measured, for the log.
std::string pace_range(const std::vector<double>& paces) {
  if (paces.empty()) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f..%.3f (median %.3f)",
                *std::min_element(paces.begin(), paces.end()),
                *std::max_element(paces.begin(), paces.end()), median(paces));
  return buf;
}

// --- outcome check --------------------------------------------------------------

/// FNV-1a over 64-bit words. The benchmark hashes with its own function so
/// that a change to the program's hashing cannot move the recorded digests.
class Fnv {
 public:
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Outcome {
  std::uint64_t digest = 0;
  bool decided = false;
  std::string_view stop_reason;  ///< TerminationReason, as text
  /// No two honest nodes decided different values at one height. Not a
  /// failure criterion: it is part of the digest, and a violation is
  /// reported on its own (see Report::safety).
  bool consistent = false;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double latency_ms = -1.0;
  std::uint64_t attacker_actions = 0;
  std::uint64_t requests_decided = 0;
};

Outcome outcome_of(const RunResult& r) {
  Outcome o;
  const bool consistent = r.decisions_consistent();
  Fnv h;
  h.add(r.events_processed);
  h.add(r.messages_sent);
  h.add(r.bytes_sent);
  h.add(static_cast<std::uint64_t>(r.termination_time));
  h.add(r.terminated ? 1 : 0);
  h.add(consistent ? 1 : 0);
  Fnv d;
  for (const bftsim::Decision& dec : r.decisions) {
    d.add(dec.node);
    d.add(static_cast<std::uint64_t>(dec.at));
    d.add(dec.height);
    d.add(dec.value);
  }
  h.add(d.value());
  o.digest = h.value();
  o.decided = r.terminated;
  o.stop_reason = bftsim::to_string(r.termination_reason);
  o.consistent = consistent;
  o.events = r.events_processed;
  o.messages = r.messages_sent;
  o.bytes = r.bytes_sent;
  o.latency_ms = r.latency_ms();
  o.attacker_actions = r.attacker_dropped + r.attacker_delayed + r.attacker_modified +
                       r.attacker_duplicated + r.messages_injected;
  o.requests_decided = r.workload.decided;
  return o;
}

std::string undecided(const Outcome& o) {
  return "stopped undecided (" + std::string(o.stop_reason) + ")";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// --- one timed run ------------------------------------------------------------

std::uint32_t lanes_of(const SimConfig& cfg) {
  return cfg.engine.intra_jobs > 1 ? cfg.engine.intra_jobs : 1;
}

/// One run's phases in CPU seconds, plus its wall time for the layer
/// figures that compare engines.
struct TimedRun {
  RunResult result;
  double setup_s = 0.0;     ///< CPU: config validation + Controller construction
  double run_s = 0.0;       ///< CPU: Controller::run()
  double teardown_s = 0.0;  ///< CPU: Controller destruction
  double run_wall_s = 0.0;  ///< wall: Controller::run()
  std::string error;        ///< non-empty when the run threw

  [[nodiscard]] double cpu_s() const { return setup_s + run_s + teardown_s; }
};

/// Times a run in CPU seconds: the calling thread's, or the whole
/// process's when the windowed engine spreads the run over lane threads
/// (nothing else runs in the process then). CPU time leaves out the time
/// the run waits for a core, which on a shared host is other tenants' load.
TimedRun timed_run(const SimConfig& cfg) {
  const auto cpu = lanes_of(cfg) > 1 ? process_cpu_s : thread_cpu_s;
  TimedRun t;
  try {
    const double c0 = cpu();
    cfg.validate();
    auto controller = std::make_unique<bftsim::Controller>(cfg);
    const double c1 = cpu();
    const auto w1 = Clock::now();
    t.result = controller->run();
    t.run_wall_s = seconds_since(w1);
    const double c2 = cpu();
    controller.reset();
    const double c3 = cpu();
    t.setup_s = c1 - c0;
    t.run_s = c2 - c1;
    t.teardown_s = c3 - c2;
  } catch (const std::exception& e) {
    t.error = e.what();
  }
  return t;
}

/// Peak RSS a phase adds (core/memstats.hpp): trims the heap and resets the
/// kernel's peak on construction; added() is how far the peak has since
/// risen above the level then.
class RssWatch {
 public:
  RssWatch() {
    bftsim::trim_heap();
    bftsim::reset_peak_rss();
    base_ = bftsim::current_rss_bytes();
  }
  [[nodiscard]] double added() const {
    const std::size_t peak = bftsim::peak_rss_bytes();
    return peak > base_ ? static_cast<double>(peak - base_) : 0.0;
  }

 private:
  std::size_t base_ = 0;
};

/// A closed batch: `jobs` threads each take the next index when their
/// previous one finishes.
void closed_batch(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < count; i = next++) fn(i);
  };
  std::vector<std::jthread> threads;
  for (std::size_t j = 1; j < jobs; ++j) threads.emplace_back(worker);
  worker();
}

void with_timeline(SimConfig& cfg) {
  cfg.obs.timeline_tick_ms = kTimelineTickMs;
  cfg.obs.timeline_views = false;
}

/// Queue-depth and in-flight peaks over a run's timeline. A sample whose
/// in-flight count exceeds its queue depth is impossible (the program's
/// depth - timers - tombstones arithmetic wrapped below zero); it is
/// counted as an anomaly and left out of the peak, never silently.
struct Peaks {
  std::uint64_t queue_depth = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t anomalies = 0;
  void add(const RunResult& r) {
    for (const bftsim::obs::TimelineSample& s : r.timeline) {
      queue_depth = std::max(queue_depth, s.queue_depth);
      if (s.in_flight_messages > s.queue_depth) {
        ++anomalies;
      } else {
        in_flight = std::max(in_flight, s.in_flight_messages);
      }
    }
  }
  void add(const Peaks& o) {
    queue_depth = std::max(queue_depth, o.queue_depth);
    in_flight = std::max(in_flight, o.in_flight);
    anomalies += o.anomalies;
  }
};

// --- reporting ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string expected_path;
  bool record = false;
  std::string commit = "unknown";
};

class Report {
 public:
  void metric(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  void attempt() { ++attempted_; }
  /// A run failed its outcome check: counts toward failed_frac.
  void run_failed(const std::string& why) {
    ++failed_;
    note("FAILED: " + why);
  }
  /// Honest nodes decided different values: a safety violation of the
  /// simulated protocol. Recorded in the digest and listed on every run.
  void safety(const std::string& what) {
    ++inconsistent_;
    note("SAFETY: " + what + " decided inconsistently");
  }
  [[nodiscard]] std::uint64_t inconsistent() const { return inconsistent_; }
  /// A check that is not one run's outcome failed.
  void check_failed(const std::string& why) {
    correct_ = false;
    note("CHECK FAILED: " + why);
  }
  void note(const std::string& line) { std::printf("%s\n", line.c_str()); }
  void digest(const std::string& key, std::uint64_t value) {
    digests_.emplace_back(key, hex(value));
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& digests() const {
    return digests_;
  }

  void print(const Args& args) const {
    const double failed_frac = ratio(static_cast<double>(failed_),
                                     static_cast<double>(attempted_));
    std::printf("\n%s seed=%" PRIu64 " trace=%d size=%s\n", args.workload.c_str(),
                args.seed, args.trace ? 1 : 0, args.tiny ? "tiny" : "full");
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("  %-34s %.6g %s (%" PRIu64 " of %" PRIu64 " runs)\n", "failed_frac",
                failed_frac, "fraction", failed_, attempted_);
    std::printf("env %s\n", env_json(args).dump().c_str());
  }

  /// The result line, printed last; values keep all their digits.
  void print_result_line() const {
    std::string line = "{\"correct\": ";
    line += correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) line += ", ";
      line += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
  }

  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };

  static bftsim::json::Value env_json(const Args& args) {
    bftsim::json::Object env;
    env["nproc"] = static_cast<std::uint64_t>(usable_cpus());
    env["hardware_concurrency"] =
        static_cast<std::uint64_t>(std::thread::hardware_concurrency());
    env["build_type"] = PERFBENCH_BUILD_TYPE;
    env["compiler"] = PERFBENCH_COMPILER;
    env["commit"] = args.commit;
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
      if (line.rfind("model name", 0) == 0) {
        env["cpu"] = line.substr(line.find(':') + 2);
        break;
      }
    }
    return bftsim::json::Value(std::move(env));
  }

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> digests_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t inconsistent_ = 0;
  bool correct_ = true;
};

// --- expected digests -----------------------------------------------------------

/// expected_digests.json: {"seed": 1, "workloads": {name: [hex per seed] |
/// {cell: hex}}}.
class Expected {
 public:
  explicit Expected(const Args& args) : args_(args) {
    if (args.expected_path.empty()) return;
    std::ifstream in(args.expected_path);
    if (!in) return;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    doc_ = bftsim::json::parse(text);
  }

  /// Whether this run compares against (or records) the recorded digests.
  [[nodiscard]] bool applies() const {
    return !args_.expected_path.empty() && !args_.tiny && args_.seed == kDefaultSeed;
  }

  /// A single-run workload's recorded digests, one per seed.
  [[nodiscard]] std::vector<std::string> list() const {
    std::vector<std::string> out;
    const bftsim::json::Value* w = workload_entry();
    if (w == nullptr || !w->is_array()) return out;
    for (const bftsim::json::Value& v : w->as_array()) {
      if (v.is_string()) out.push_back(v.as_string());
    }
    return out;
  }

  /// A paper-sweep cell's recorded digest ("" when none).
  [[nodiscard]] std::string cell(const std::string& label) const {
    const bftsim::json::Value* w = workload_entry();
    return w != nullptr && w->is_object() ? w->get_string(label, "") : "";
  }

  void record(const Report& report) {
    bftsim::json::Object root;
    if (doc_.is_object()) root = doc_.as_object();
    root["seed"] = static_cast<std::uint64_t>(kDefaultSeed);
    bftsim::json::Object workloads;
    if (const bftsim::json::Value* w = root.find("workloads"); w && w->is_object()) {
      workloads = w->as_object();
    }
    if (args_.workload == "paper-sweep") {
      bftsim::json::Object cells;
      for (const auto& [k, v] : report.digests()) cells[k] = v;
      workloads[args_.workload] = bftsim::json::Value(std::move(cells));
    } else {
      bftsim::json::Array seeds;
      for (const auto& [k, v] : report.digests()) seeds.emplace_back(v);
      workloads[args_.workload] = bftsim::json::Value(std::move(seeds));
    }
    root["workloads"] = bftsim::json::Value(std::move(workloads));
    std::ofstream out(args_.expected_path);
    out << bftsim::json::Value(std::move(root)).dump(2) << "\n";
  }

 private:
  [[nodiscard]] const bftsim::json::Value* workload_entry() const {
    if (!doc_.is_object()) return nullptr;
    const bftsim::json::Value* ws = doc_.as_object().find("workloads");
    if (ws == nullptr || !ws->is_object()) return nullptr;
    return ws->as_object().find(args_.workload);
  }

  const Args& args_;
  bftsim::json::Value doc_;
};

/// Checks a paper-sweep cell digest against the recorded one on the
/// default seed. Returns false (failed runs) on a mismatch; a missing
/// record fails the check.
bool matches_expected(const Expected& expected, const std::string& key,
                      std::uint64_t digest, Report& report, bool recording) {
  if (!expected.applies() || recording) return true;
  const std::string want = expected.cell(key);
  if (want.empty()) {
    report.check_failed("no recorded digest for " + key);
    return true;
  }
  return want == hex(digest);
}

// --- single-run workloads ---------------------------------------------------------

std::uint32_t quorum_of(const SimConfig& cfg) {
  const auto& info = bftsim::ProtocolRegistry::instance().get(cfg.protocol);
  return 2 * info.fault_threshold(cfg.n) + 1;
}

/// Checks runs of a single-run workload. Every run of seed k must give
/// that seed's reference digest: the recorded one on the default seed,
/// otherwise the first run's.
class SingleChecker {
 public:
  SingleChecker(std::size_t seeds, const Expected& expected, Report& report,
                bool recording)
      : report_(report), ref_(seeds), recorded_(expected.applies() && !recording) {
    if (!recorded_) return;
    const std::vector<std::string> want = expected.list();
    if (want.size() != seeds) {
      report.check_failed("no recorded digests for this workload's " +
                          std::to_string(seeds) + " seeds");
      return;
    }
    for (std::size_t k = 0; k < seeds; ++k) ref_[k] = std::stoull(want[k], nullptr, 16);
  }

  void check(const TimedRun& t, std::size_t k, const std::string& what) {
    report_.attempt();
    if (!t.error.empty()) {
      report_.run_failed(what + " threw: " + t.error);
      return;
    }
    const Outcome o = outcome_of(t.result);
    if (!o.decided) {
      report_.run_failed(what + ": " + undecided(o));
      return;
    }
    if (!o.consistent) report_.safety(what);
    if (!ref_[k]) {
      ref_[k] = o.digest;
    } else if (o.digest != *ref_[k]) {
      report_.run_failed(what + " digest " + hex(o.digest) + " differs from " +
                         (recorded_ ? "the recorded " : "the first run's ") + hex(*ref_[k]));
    }
  }

  /// Adds every seed's reference digest to the report (for --record).
  void report_digests() const {
    for (std::size_t k = 0; k < ref_.size(); ++k) {
      if (ref_[k]) report_.digest(std::to_string(k), *ref_[k]);
    }
  }

 private:
  Report& report_;
  std::vector<std::optional<std::uint64_t>> ref_;
  bool recorded_;
};

std::string seed_label(const std::string& what, std::size_t k) {
  return what + " (seed " + std::to_string(k) + ")";
}

/// The median over seeds of each seed's median. Every seed weighs the same
/// however many repeats it got, so the seed mix behind a figure does not
/// depend on how fast the code under test is.
double seed_balanced_median(const std::vector<std::vector<double>>& per_seed) {
  std::vector<double> medians;
  for (const std::vector<double>& v : per_seed) {
    if (!v.empty()) medians.push_back(median(v));
  }
  return median(medians);
}

/// The mean over seeds of each seed's median: for a figure that takes one
/// of a few levels far apart depending on the seed, where a median over a
/// handful of seeds jumps between levels.
double seed_balanced_mean(const std::vector<std::vector<double>>& per_seed) {
  double sum = 0.0;
  std::size_t seeds = 0;
  for (const std::vector<double>& v : per_seed) {
    if (v.empty()) continue;
    sum += median(v);
    ++seeds;
  }
  return seeds > 0 ? sum / static_cast<double>(seeds) : 0.0;
}

/// The first run of a process also pays one-time costs (code pages, lazy
/// statics); it is checked but not timed. The timed repeats then cycle
/// through the seeds, each from a trimmed heap with the kernel's peak reset,
/// so that a run's peak RSS is its own and not what earlier runs left
/// behind in the allocator. The reference work is timed before every
/// repeat, and the CPU times are scaled to the nominal pace by the median
/// of those factors (pace.hpp): one sample is noisier than a whole run,
/// but their median follows the host's drift from one invocation to the
/// next.
void single_end_to_end(const std::vector<SimConfig>& cfgs, const Args& args,
                       SingleChecker& checker, Report& report) {
  checker.check(timed_run(cfgs.front()), 0, "first run");
  std::vector<std::vector<double>> cpu(cfgs.size()), events_per_cpu_s(cfgs.size()),
      setup(cfgs.size()), rss_mb(cfgs.size());
  std::vector<double> paces;
  std::string log;  // per repeat: seed, raw CPU seconds, pace sample
  std::size_t repeats = 0;
  double last_s = 0.0;
  const auto t0 = Clock::now();
  while (repeats < cfgs.size() || another_repeat(repeats, t0, last_s, args.seconds)) {
    const std::size_t k = repeats % cfgs.size();
    const auto w0 = Clock::now();
    const RssWatch rss;
    // After the trim: a sample taken while the previous run's memory is
    // still being handed back reads up to a quarter slow. The reference's
    // buffers are resident already, so it does not move the peak.
    const double sample = pace_factor();
    const TimedRun t = timed_run(cfgs[k]);
    checker.check(t, k, seed_label("repeat " + std::to_string(repeats), k));
    if (!t.error.empty()) break;
    rss_mb[k].push_back(rss.added() / 1e6);
    ++repeats;
    last_s = seconds_since(w0);
    paces.push_back(sample);
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %zu:%.3fs*%.3f", k, t.cpu_s(), sample);
    log += buf;
    cpu[k].push_back(t.cpu_s());
    events_per_cpu_s[k].push_back(
        ratio(static_cast<double>(t.result.events_processed), t.run_s));
    setup[k].push_back(t.setup_s);
  }
  checker.report_digests();
  const double pace = median(paces);

  std::string per_seed;
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %zu:%.3fs/%.0fMB(x%zu)", k, median(cpu[k]) * pace,
                  median(rss_mb[k]), cpu[k].size());
    per_seed += buf;
  }
  const double cpu_s = seed_balanced_median(cpu) * pace;
  report.metric("cpu_s", "s", cpu_s);
  report.metric("events_per_cpu_s", "1/s", seed_balanced_median(events_per_cpu_s) / pace);
  report.metric("setup_s", "s", seed_balanced_median(setup) * pace);
  // On pbft-n2048-lanes2 a run peaks either near 320-360 MB or near
  // 415-455 MB, about half the seeds each.
  report.metric("peak_rss_mb", "MB", seed_balanced_mean(rss_mb));
  // A percentile needs ten repeats beyond it; the few dozen repeats of a
  // single-run workload support none above the median, which is reported.
  report.metric("run_cpu_ms_p50", "ms", cpu_s * 1e3);
  report.metric("run_cpu_ms_p99", "ms", cpu_s * 1e3);
  report.note("timed repeats: " + std::to_string(repeats) + " over " +
              std::to_string(cfgs.size()) + " seeds; pace " + pace_range(paces) +
              "; median scaled CPU / peak RSS per seed:" + per_seed +
              "\nrepeats (seed:raw CPU*pace sample):" + log);
}

void single_per_layer(const std::vector<SimConfig>& cfgs, SingleChecker& checker,
                      Report& report) {
  const SimConfig& cfg = cfgs.front();
  const RssWatch rss;
  checker.check(timed_run(cfg), 0, "first run");
  const double rss_added = rss.added();
  const TimedRun plain = timed_run(cfg);
  checker.check(plain, 0, "untraced run");

  const std::uint32_t lanes = lanes_of(cfg);
  SimConfig traced_cfg = cfg;
  traced_cfg.protocol = traced_name(cfg.protocol);
  // The windowed engine samples no timeline; its depth comes from the
  // serial run of the same config below.
  if (lanes == 1) with_timeline(traced_cfg);
  collector().reset(lanes);
  const TimedRun traced = timed_run(traced_cfg);
  const TraceTotals totals = collector().take();
  checker.check(traced, 0, "traced run");
  checker.report_digests();
  const std::uint64_t traced_digest = outcome_of(traced.result).digest;
  const std::uint64_t plain_digest = outcome_of(plain.result).digest;
  report.note("transparency: traced digest " + hex(traced_digest) +
              (traced_digest == plain_digest ? " == " : " != ") + "untraced " +
              hex(plain_digest));

  Peaks peaks;
  double speedup = 0.0;
  if (lanes > 1) {
    // Windowed speedup against the serial per-node-RNG engine, whose
    // outcome is the same by design (checked like any repeat).
    SimConfig serial = cfg;
    serial.engine.intra_jobs = 1;
    const TimedRun s = timed_run(serial);
    checker.check(s, 0, "serial per-node run");
    speedup = ratio(s.run_wall_s, plain.run_wall_s);
    // The timeline samples only the classic serial engine, whose single
    // RNG stream gives another outcome of the same shape; it is run only
    // to read the queue depth and in-flight peaks.
    SimConfig classic = cfg;
    classic.engine = bftsim::EngineConfig{};
    with_timeline(classic);
    const TimedRun d = timed_run(classic);
    report.attempt();
    if (!d.error.empty() || !d.result.terminated) {
      report.run_failed("classic serial run: " +
                        (d.error.empty() ? undecided(outcome_of(d.result)) : d.error));
    }
    peaks.add(d.result);
  } else {
    peaks.add(traced.result);
  }
  if (peaks.anomalies > 0) {
    report.note("TIMELINE: " + std::to_string(peaks.anomalies) +
                " samples report more messages in flight than queued events "
                "(counter wrapped below zero); left out of net.in_flight_peak");
  }
  const NodeCounters& c = totals.sum;
  const double lane_ns = static_cast<double>(lanes) * traced.run_wall_s * 1e9;
  const double events = static_cast<double>(traced.result.events_processed);
  const double handler_ns = static_cast<double>(c.handler_ns());
  double lane_max = 0.0, lane_sum = 0.0;
  for (const std::uint64_t ns : totals.lane_handler_ns) {
    lane_max = std::max(lane_max, static_cast<double>(ns));
    lane_sum += static_cast<double>(ns);
  }
  const double lane_mean = lane_sum / static_cast<double>(totals.lane_handler_ns.size());
  const Outcome o = outcome_of(plain.result);
  const QcTimes qc = qc_times(quorum_of(cfg));

  report.metric("core.queue_ns_per_op", "ns", queue_ns_per_op(peaks.queue_depth, cfg.delay));
  report.metric("core.queue_depth_peak", "count", static_cast<double>(peaks.queue_depth));
  report.metric("core.rss_bytes_per_node", "B", rss_added / cfg.n);
  report.metric("sim.loop_residual_ns_per_event", "ns", ratio(lane_ns - handler_ns, events));
  report.metric("sim.send_ns_per_copy", "ns",
                ratio(static_cast<double>(c.send_ns), static_cast<double>(c.send_copies)));
  report.metric("sim.set_timer_ns", "ns",
                ratio(static_cast<double>(c.set_timer_ns),
                      static_cast<double>(c.set_timer_calls)));
  report.metric("sim.setup_share", "fraction", ratio(plain.setup_s, plain.cpu_s()));
  report.metric("sim.teardown_s", "s", plain.teardown_s);
  report.metric("sim.windowed.lane_busy_frac", "fraction",
                lanes > 1 ? ratio(handler_ns, lane_ns) : 0.0);
  report.metric("sim.windowed.lane_imbalance", "ratio",
                lanes > 1 ? ratio(lane_max, lane_mean) : 0.0);
  report.metric("sim.windowed.speedup", "ratio", speedup);
  report.metric("protocols.on_message_self_ns", "ns",
                ratio(static_cast<double>(c.msg_self_ns), static_cast<double>(c.msg_calls)));
  report.metric("protocols.on_message_calls", "count", static_cast<double>(c.msg_calls));
  report.metric("protocols.self_share", "fraction",
                ratio(static_cast<double>(c.msg_self_ns + c.timer_self_ns), lane_ns));
  report.metric("crypto.qc_valid_ns", "ns", qc.valid_ns);
  report.metric("crypto.qc_digest_ns", "ns", qc.digest_ns);
  report.metric("net.delay_sample_ns", "ns", delay_sample_ns(cfg.delay));
  report.metric("net.messages_sent", "count", static_cast<double>(o.messages));
  report.metric("net.bytes_sent", "B", static_cast<double>(o.bytes));
  report.metric("net.in_flight_peak", "count", static_cast<double>(peaks.in_flight));
  report.metric("runner.worker_busy_frac", "fraction", 0.0);
  report.metric("runner.runs_per_s", "1/s", 0.0);
  for (const char* cat : {"paper", "attack", "fault", "wan", "workload"}) {
    report.metric(std::string("runner.cell_ms.") + cat, "ms", 0.0);
  }
  report.metric("attacker.actions", "count", static_cast<double>(o.attacker_actions));
  report.metric("workload.requests_decided", "count", static_cast<double>(o.requests_decided));
  report.metric("protocols.inconsistent_runs", "count", static_cast<double>(report.inconsistent()));
  report.metric("trace.overhead", "ratio", ratio(traced.cpu_s(), plain.cpu_s()));
}

// --- paper-sweep --------------------------------------------------------------------

struct SweepCheck {
  std::vector<Outcome> outcomes;     ///< per run, from the verification pass
  std::vector<TimedRun> timings;     ///< result emptied; timings only
};

/// The verification pass: every run once, untraced, through the public
/// Controller so each outcome digest covers the full RunResult. Per-cell
/// digests (hash of the cell's run digests in seed order) are checked
/// against the recorded ones on the default seed.
SweepCheck verify_sweep(const std::vector<SweepCell>& cells,
                        const std::vector<SweepRun>& runs, std::size_t jobs,
                        const Expected& expected, Report& report, bool recording) {
  SweepCheck chk;
  chk.outcomes.resize(runs.size());
  chk.timings.resize(runs.size());
  closed_batch(runs.size(), jobs, [&](std::size_t i) {
    TimedRun t = timed_run(runs[i].cfg);
    if (t.error.empty()) chk.outcomes[i] = outcome_of(t.result);
    t.result = RunResult{};
    chk.timings[i] = std::move(t);
  });
  std::vector<Fnv> cell_hash(cells.size());
  std::vector<bool> cell_ok(cells.size(), true);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    report.attempt();
    const std::string& label = cells[runs[i].cell].label;
    if (!chk.timings[i].error.empty()) {
      report.run_failed(label + " seed " + std::to_string(runs[i].cfg.seed) +
                        " threw: " + chk.timings[i].error);
      cell_ok[runs[i].cell] = false;
    } else if (!chk.outcomes[i].decided) {
      report.run_failed(label + " seed " + std::to_string(runs[i].cfg.seed) +
                        ": " + undecided(chk.outcomes[i]));
      cell_ok[runs[i].cell] = false;
    } else if (!chk.outcomes[i].consistent) {
      report.safety(label + " seed " + std::to_string(runs[i].cfg.seed));
    }
    cell_hash[runs[i].cell].add(chk.outcomes[i].digest);
  }
  std::vector<bool> cell_mismatch(cells.size(), false);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    report.digest(cells[c].label, cell_hash[c].value());
    if (cell_ok[c] &&
        !matches_expected(expected, cells[c].label, cell_hash[c].value(), report,
                          recording)) {
      report.note("cell " + cells[c].label + " digest " + hex(cell_hash[c].value()) +
                  " differs from the recorded one");
      cell_mismatch[c] = true;
    }
  }
  // The runs of a cell whose digest differs are failed runs.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (cell_mismatch[runs[i].cell]) {
      report.run_failed(cells[runs[i].cell].label + " seed " +
                        std::to_string(runs[i].cfg.seed) +
                        " is in a cell whose digest differs");
    }
  }
  return chk;
}

/// One pass through the library's own sweep runner: one point per run
/// (repeats = 1), so each point's Aggregate holds exactly that run. Each
/// run is checked against the verification pass on every field the runner
/// reports. Returns per-run wall ms (setup + run, as the runner times it).
struct RunnerPass {
  double wall_s = 0.0;
  std::vector<double> run_ms;
};

RunnerPass runner_pass(const std::vector<SweepCell>& cells, const std::vector<SweepRun>& runs,
                       const SweepCheck& chk, std::size_t jobs, Report& report) {
  std::vector<SimConfig> points;
  points.reserve(runs.size());
  for (const SweepRun& r : runs) points.push_back(r.cfg);
  RunnerPass pass;
  const auto t0 = Clock::now();
  const bftsim::SweepOutcome out = bftsim::run_sweep_guarded(points, 1, jobs);
  pass.wall_s = seconds_since(t0);

  for (const bftsim::RunFailure& f : out.failures) {
    report.note("runner failure " + f.label + ": " + f.error);
  }
  pass.run_ms.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    report.attempt();
    const bftsim::PointOutcome& p = out.points.at(i);
    const bftsim::Aggregate& a = p.aggregate;
    const Outcome& want = chk.outcomes[i];
    const bool same = p.tally.failed == 0 && p.tally.decided == 1 && a.runs == 1 &&
                      a.timeouts == 0 &&
                      a.events.mean == static_cast<double>(want.events) &&
                      a.messages.mean == static_cast<double>(want.messages) &&
                      a.latency_ms.mean == want.latency_ms &&
                      a.workload_decided == want.requests_decided;
    if (!same) {
      report.run_failed(cells[runs[i].cell].label + " seed " +
                        std::to_string(runs[i].cfg.seed) +
                        ": runner outcome differs from the verified run");
    }
    pass.run_ms.push_back(a.wall_seconds_total * 1e3);
  }
  return pass;
}

/// One timed pass over every sweep run in a closed batch of `jobs` threads,
/// each run timed in its thread's CPU seconds. Every run's digest is
/// checked against the verification pass.
struct TimedPass {
  double cpu_s = 0.0;      ///< CPU of all runs, set-up to teardown
  double run_cpu_s = 0.0;  ///< CPU in Controller::run()
  double events = 0.0;
  std::vector<double> run_ms;  ///< CPU ms per run
};

TimedPass timed_pass(const std::vector<SweepCell>& cells, const std::vector<SweepRun>& runs,
                     const SweepCheck& chk, std::size_t jobs, Report& report) {
  struct Timed {
    std::uint64_t digest = 0;
    std::string error;
    double cpu_s = 0.0;
    double run_s = 0.0;
    std::uint64_t events = 0;
  };
  std::vector<Timed> out(runs.size());
  closed_batch(runs.size(), jobs, [&](std::size_t i) {
    const TimedRun t = timed_run(runs[i].cfg);
    out[i] = {outcome_of(t.result).digest, t.error, t.cpu_s(), t.run_s,
              t.result.events_processed};
  });
  TimedPass pass;
  pass.run_ms.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    report.attempt();
    if (!out[i].error.empty() || out[i].digest != chk.outcomes[i].digest) {
      report.run_failed(cells[runs[i].cell].label + " seed " +
                        std::to_string(runs[i].cfg.seed) +
                        (out[i].error.empty() ? ": digest differs from the verified run"
                                              : " threw: " + out[i].error));
    }
    pass.cpu_s += out[i].cpu_s;
    pass.run_cpu_s += out[i].run_s;
    pass.events += static_cast<double>(out[i].events);
    pass.run_ms.push_back(out[i].cpu_s * 1e3);
  }
  return pass;
}

/// Peak RSS one sweep run adds, on the cell whose runs need the most: the
/// first three runs of every cell, one at a time, each from a trimmed heap
/// with the kernel's peak reset; each cell's median, the largest over
/// cells. The timed passes' own peak is not used, because it depends on
/// which runs the two workers happen to overlap. Each run is checked
/// against the verification pass.
double sweep_run_rss_mb(const std::vector<SweepCell>& cells, const std::vector<SweepRun>& runs,
                        const SweepCheck& chk, Report& report) {
  std::vector<std::vector<double>> per_cell(cells.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::vector<double>& mb = per_cell[runs[i].cell];
    if (mb.size() == 3) continue;
    const RssWatch rss;
    const TimedRun t = timed_run(runs[i].cfg);
    mb.push_back(rss.added() / 1e6);
    report.attempt();
    if (!t.error.empty() || outcome_of(t.result).digest != chk.outcomes[i].digest) {
      report.run_failed(cells[runs[i].cell].label + " seed " +
                        std::to_string(runs[i].cfg.seed) +
                        ": memory run differs from the verified run");
    }
  }
  double peak = 0.0;
  for (const std::vector<double>& mb : per_cell) peak = std::max(peak, median(mb));
  return peak;
}

/// Timed passes until the window closes, the reference work timed before
/// each; CPU times are scaled by the median of those pace factors, as on
/// the single-run workloads.
void sweep_end_to_end(const std::vector<SweepCell>& cells, const std::vector<SweepRun>& runs,
                      const SweepCheck& chk, std::size_t jobs, const Args& args,
                      Report& report) {
  std::vector<double> cpu, events_per_cpu_s, run_ms, paces;
  const auto t0 = Clock::now();
  double last_s = 0.0;
  while (another_repeat(cpu.size(), t0, last_s, args.seconds)) {
    const auto w0 = Clock::now();
    paces.push_back(pace_factor());
    const TimedPass pass = timed_pass(cells, runs, chk, jobs, report);
    last_s = seconds_since(w0);
    cpu.push_back(pass.cpu_s);
    events_per_cpu_s.push_back(ratio(pass.events, pass.run_cpu_s));
    run_ms.insert(run_ms.end(), pass.run_ms.begin(), pass.run_ms.end());
  }
  const double pace = median(paces);
  // Set-up of one run of every cell, each cell at its median over the
  // verification pass. Cells differ several-fold in set-up cost, so a
  // median over all runs would sit on the boundary between cells and jump
  // between them.
  std::vector<std::vector<double>> cell_setup(cells.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    cell_setup[runs[i].cell].push_back(chk.timings[i].setup_s);
  }
  double setup_s = 0.0;
  for (const std::vector<double>& v : cell_setup) setup_s += median(v);
  report.metric("cpu_s", "s", median(cpu) * pace);
  report.metric("events_per_cpu_s", "1/s", median(events_per_cpu_s) / pace);
  report.metric("setup_s", "s", setup_s * pace);
  report.metric("peak_rss_mb", "MB", sweep_run_rss_mb(cells, runs, chk, report));
  report.metric("run_cpu_ms_p50", "ms", median(run_ms) * pace);
  report.metric("run_cpu_ms_p99", "ms", percentile(run_ms, 0.99) * pace);
  std::string log;
  for (std::size_t i = 0; i < cpu.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), " %.3fs*%.3f", cpu[i], paces[i]);
    log += buf;
  }
  report.note("timed passes: " + std::to_string(cpu.size()) + " x " +
              std::to_string(runs.size()) + " runs in " + std::to_string(cells.size()) +
              " cells, jobs=" + std::to_string(jobs) + "; " +
              std::to_string(run_ms.size() - static_cast<std::size_t>(std::ceil(
                                                 0.99 * static_cast<double>(run_ms.size())))) +
              " runs lie beyond p99; pace " + pace_range(paces) +
              "\npasses (raw CPU*pace sample):" + log);
}

void sweep_per_layer(const std::vector<SweepCell>& cells, const std::vector<SweepRun>& runs,
                     const SweepCheck& chk, std::size_t jobs, Report& report) {
  // Runner layer: one untraced pass through run_sweep_guarded.
  const RssWatch rss;
  const RunnerPass pass = runner_pass(cells, runs, chk, jobs, report);
  const double rss_added = rss.added();
  double busy_ms = 0.0;
  std::map<std::string, std::pair<double, double>> cat_ms;  // sum ms, runs
  for (std::size_t i = 0; i < runs.size(); ++i) {
    busy_ms += pass.run_ms[i];
    auto& [sum, count] = cat_ms[cells[runs[i].cell].category];
    sum += pass.run_ms[i];
    count += 1.0;
  }

  // Traced pass over every run whose behaviour does not depend on the
  // protocol's name; the rest are listed, never traced under a wrong name.
  std::vector<std::size_t> traced_runs;
  for (const SweepCell& c : cells) {
    if (c.name_dependent) report.note("trace skip: " + c.label + " (attack reads cfg.protocol)");
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!cells[runs[i].cell].name_dependent) traced_runs.push_back(i);
  }
  // Untraced baseline of the same runs, just before the traced pass, so
  // both are timed warm; trace.overhead compares the two.
  struct Brief {
    std::uint64_t digest = 0;
    bool ok = false;
    double run_wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t events = 0;
    Peaks peaks;
  };
  const auto brief_pass = [&](bool traced) {
    std::vector<Brief> out(traced_runs.size());
    closed_batch(traced_runs.size(), jobs, [&](std::size_t k) {
      SimConfig cfg = runs[traced_runs[k]].cfg;
      if (traced) {
        cfg.protocol = traced_name(cfg.protocol);
        with_timeline(cfg);
      }
      const TimedRun t = timed_run(cfg);
      out[k] = {outcome_of(t.result).digest, t.error.empty(), t.run_wall_s, t.cpu_s(),
                t.result.events_processed, {}};
      out[k].peaks.add(t.result);
    });
    return out;
  };
  const std::vector<Brief> plain = brief_pass(false);
  collector().reset(1);
  const std::vector<Brief> traced = brief_pass(true);
  const TraceTotals totals = collector().take();

  Peaks peak;
  double traced_run_s = 0.0, traced_cpu = 0.0, plain_cpu = 0.0, traced_events = 0.0;
  std::size_t transparent = 0;
  for (std::size_t k = 0; k < traced_runs.size(); ++k) {
    const std::size_t i = traced_runs[k];
    const std::string what = cells[runs[i].cell].label + " seed " +
                             std::to_string(runs[i].cfg.seed);
    report.attempt();
    if (!plain[k].ok || plain[k].digest != chk.outcomes[i].digest) {
      report.run_failed(what + ": repeat digest differs from the verified run");
    }
    report.attempt();
    if (traced[k].ok && traced[k].digest == chk.outcomes[i].digest) {
      ++transparent;
    } else {
      report.run_failed(what + ": traced digest differs from the untraced one");
    }
    peak.add(traced[k].peaks);
    traced_run_s += traced[k].run_wall_s;
    traced_cpu += traced[k].cpu_s;
    plain_cpu += plain[k].cpu_s;
    traced_events += static_cast<double>(traced[k].events);
  }
  report.note("transparency: " + std::to_string(transparent) + " of " +
              std::to_string(traced_runs.size()) + " traced runs match their untraced digest");
  if (peak.anomalies > 0) {
    report.note("TIMELINE: " + std::to_string(peak.anomalies) +
                " samples report more messages in flight than queued events "
                "(counter wrapped below zero); left out of net.in_flight_peak");
  }

  double setup_s = 0.0, teardown_s = 0.0, cpu_s = 0.0;
  std::uint64_t messages = 0, bytes = 0, attacker_actions = 0, requests = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    setup_s += chk.timings[i].setup_s;
    teardown_s += chk.timings[i].teardown_s;
    cpu_s += chk.timings[i].cpu_s();
    messages += chk.outcomes[i].messages;
    bytes += chk.outcomes[i].bytes;
    attacker_actions += chk.outcomes[i].attacker_actions;
    requests += chk.outcomes[i].requests_decided;
  }

  const NodeCounters& c = totals.sum;
  const double run_ns = traced_run_s * 1e9;
  const SimConfig& any = runs.front().cfg;
  const QcTimes qc = qc_times(quorum_of(any));
  report.metric("core.queue_ns_per_op", "ns", queue_ns_per_op(peak.queue_depth, any.delay));
  report.metric("core.queue_depth_peak", "count", static_cast<double>(peak.queue_depth));
  report.metric("core.rss_bytes_per_node", "B",
                rss_added / (static_cast<double>(any.n) * static_cast<double>(jobs)));
  report.metric("sim.loop_residual_ns_per_event", "ns",
                ratio(run_ns - static_cast<double>(c.handler_ns()), traced_events));
  report.metric("sim.send_ns_per_copy", "ns",
                ratio(static_cast<double>(c.send_ns), static_cast<double>(c.send_copies)));
  report.metric("sim.set_timer_ns", "ns",
                ratio(static_cast<double>(c.set_timer_ns),
                      static_cast<double>(c.set_timer_calls)));
  report.metric("sim.setup_share", "fraction", ratio(setup_s, cpu_s));
  report.metric("sim.teardown_s", "s", teardown_s);
  report.metric("sim.windowed.lane_busy_frac", "fraction", 0.0);
  report.metric("sim.windowed.lane_imbalance", "ratio", 0.0);
  report.metric("sim.windowed.speedup", "ratio", 0.0);
  report.metric("protocols.on_message_self_ns", "ns",
                ratio(static_cast<double>(c.msg_self_ns), static_cast<double>(c.msg_calls)));
  report.metric("protocols.on_message_calls", "count", static_cast<double>(c.msg_calls));
  report.metric("protocols.self_share", "fraction",
                ratio(static_cast<double>(c.msg_self_ns + c.timer_self_ns), run_ns));
  report.metric("crypto.qc_valid_ns", "ns", qc.valid_ns);
  report.metric("crypto.qc_digest_ns", "ns", qc.digest_ns);
  report.metric("net.delay_sample_ns", "ns", delay_sample_ns(any.delay));
  report.metric("net.messages_sent", "count", static_cast<double>(messages));
  report.metric("net.bytes_sent", "B", static_cast<double>(bytes));
  report.metric("net.in_flight_peak", "count", static_cast<double>(peak.in_flight));
  report.metric("runner.worker_busy_frac", "fraction",
                ratio(busy_ms / 1e3, static_cast<double>(jobs) * pass.wall_s));
  report.metric("runner.runs_per_s", "1/s",
                ratio(static_cast<double>(runs.size()), pass.wall_s));
  for (const char* cat : {"paper", "attack", "fault", "wan", "workload"}) {
    const auto it = cat_ms.find(cat);
    report.metric(std::string("runner.cell_ms.") + cat, "ms",
                  it == cat_ms.end() ? 0.0 : ratio(it->second.first, it->second.second));
  }
  report.metric("attacker.actions", "count", static_cast<double>(attacker_actions));
  report.metric("workload.requests_decided", "count", static_cast<double>(requests));
  report.metric("protocols.inconsistent_runs", "count", static_cast<double>(report.inconsistent()));
  report.metric("trace.overhead", "ratio", ratio(traced_cpu, plain_cpu));
}

// --- main -----------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--size full|tiny] [--expected PATH [--record]] "
               "[--commit SHA]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else if (key == "--size") a.tiny = value == "tiny";
      else if (key == "--expected") a.expected_path = value;
      else if (key == "--commit") a.commit = value;
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.record && (a.seed != kDefaultSeed || a.tiny || a.expected_path.empty())) {
    usage("--record needs --expected, the default seed and the full size");
  }
  return a;
}

int run(const Args& args) {
  if (args.trace) register_traced_protocols();
  Expected expected(args);
  Report report;
  const std::size_t jobs = bench_threads();
  // Allocates the reference work's buffers now, before any RSS baseline.
  if (!args.trace) static_cast<void>(pace_factor());

  if (args.workload == "paper-sweep") {
    const std::vector<SweepCell> cells = paper_sweep_cells();
    const std::vector<SweepRun> runs = paper_sweep_runs(cells, args.seed, args.tiny);
    const SweepCheck chk = verify_sweep(cells, runs, jobs, expected, report, args.record);
    if (args.trace) {
      sweep_per_layer(cells, runs, chk, jobs, report);
    } else {
      sweep_end_to_end(cells, runs, chk, jobs, args, report);
    }
  } else {
    const std::vector<SimConfig> cfgs =
        single_run_configs(args.workload, args.seed, args.tiny);
    SingleChecker checker(cfgs.size(), expected, report, args.record);
    if (args.trace) {
      single_per_layer(cfgs, checker, report);
    } else {
      single_end_to_end(cfgs, args, checker, report);
    }
  }

  if (args.record) expected.record(report);
  report.print(args);
  report.print_result_line();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
