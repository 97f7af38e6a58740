#include "explore/reproducer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "core/config_check.hpp"
#include "runner/export.hpp"

namespace bftsim::explore {

namespace {

[[nodiscard]] std::uint64_t parse_hex64(const std::string& s,
                                        const std::string& path) {
  if (s.empty() || s.size() > 16) {
    cfgcheck::fail(path, "expected a hex string of 1..16 digits");
  }
  std::uint64_t value = 0;
  for (const char c : s) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<std::uint64_t>(c - 'A' + 10);
    else cfgcheck::fail(path, "bad hex digit in \"" + s + "\"");
  }
  return value;
}

[[nodiscard]] std::uint64_t hex_at(const json::Value& v,
                                   const std::string& path,
                                   const std::string& key) {
  return parse_hex64(v.get_string(key, "0"), path + "." + key);
}

[[nodiscard]] std::uint64_t uint_at(const json::Value& v,
                                    const std::string& key) {
  return static_cast<std::uint64_t>(v.get_int(key, 0));
}

[[nodiscard]] const json::Value& member(const json::Value& v,
                                        const std::string& path,
                                        const std::string& key) {
  const json::Value* m = v.as_object().find(key);
  if (m == nullptr) cfgcheck::fail(path + "." + key, "missing");
  return *m;
}

}  // namespace

std::string Reproducer::file_name() const {
  if (kind == ObjectiveKind::kDamage) {
    return config.protocol + "-" + config.attack + ".json";
  }
  std::string name = id;
  std::replace(name.begin(), name.end(), '/', '-');
  return name + ".json";
}

json::Value Reproducer::to_json() const {
  json::Object o;
  const auto count = [](std::size_t n) {
    return static_cast<std::uint64_t>(n);
  };
  if (kind == ObjectiveKind::kDamage) {
    o["schema"] = kAdvReproducerSchema;
    o["id"] = id;
    o["search_seed"] = seed;
    o["protocol"] = config.protocol;
    o["attack"] = config.attack;
    o["damage"] = recorded.damage.to_json();
    o["attacked_fingerprint"] = fingerprint_to_hex(recorded.trace.fingerprint);
    o["attacked_records"] = recorded.trace.records;
    o["baseline_fingerprint"] =
        fingerprint_to_hex(recorded.baseline.fingerprint);
    o["baseline_records"] = recorded.baseline.records;
  } else {
    o["schema"] = kReproducerSchema;
    o["scenario"] = id;
    o["campaign_seed"] = seed;
    o["index"] = index;
    o["oracle"] = std::string(to_string(oracle()));
    o["diagnosis"] = recorded.verdict.diagnosis;
    o["trace_fingerprint"] = fingerprint_to_hex(recorded.trace.fingerprint);
    o["trace_records"] = recorded.trace.records;
  }
  o["shrink_steps"] = count(shrink_steps);
  o["shrink_runs"] = count(shrink_runs);
  o["config"] = config.to_json();
  return json::Value{std::move(o)};
}

Reproducer Reproducer::from_json(const json::Value& v, const std::string& path) {
  Reproducer repro;
  const std::string schema = v.get_string("schema", "");
  if (schema == kAdvReproducerSchema) {
    repro.kind = ObjectiveKind::kDamage;
    cfgcheck::require_keys(
        v, path,
        {"schema", "id", "search_seed", "protocol", "attack", "damage",
         "attacked_fingerprint", "attacked_records", "baseline_fingerprint",
         "baseline_records", "shrink_steps", "shrink_runs", "config"});
    repro.id = v.get_string("id", "");
    repro.seed = uint_at(v, "search_seed");
    repro.recorded.damage = adversary::DamageReport::from_json(
        member(v, path, "damage"), path + ".damage");
    repro.recorded.trace = {hex_at(v, path, "attacked_fingerprint"),
                            uint_at(v, "attacked_records")};
    repro.recorded.baseline = {hex_at(v, path, "baseline_fingerprint"),
                               uint_at(v, "baseline_records")};
  } else if (schema == kReproducerSchema) {
    cfgcheck::require_keys(v, path,
                           {"schema", "scenario", "campaign_seed", "index",
                            "oracle", "diagnosis", "trace_fingerprint",
                            "trace_records", "shrink_steps", "shrink_runs",
                            "config"});
    repro.id = v.get_string("scenario", "");
    repro.seed = uint_at(v, "campaign_seed");
    repro.index = uint_at(v, "index");
    repro.recorded.verdict.ok = false;
    repro.recorded.verdict.violated =
        oracle_from_string(v.get_string("oracle", ""));
    repro.recorded.verdict.diagnosis = v.get_string("diagnosis", "");
    repro.recorded.trace = {hex_at(v, path, "trace_fingerprint"),
                            uint_at(v, "trace_records")};
  } else {
    cfgcheck::fail(path + ".schema",
                   "expected \"" + std::string(kReproducerSchema) + "\" or \"" +
                       kAdvReproducerSchema + "\", got \"" + schema + "\"");
  }
  repro.shrink_steps = static_cast<std::size_t>(uint_at(v, "shrink_steps"));
  repro.shrink_runs = static_cast<std::size_t>(uint_at(v, "shrink_runs"));
  repro.config = SimConfig::from_json(member(v, path, "config"));
  if (repro.kind == ObjectiveKind::kDamage) {
    // The labels feed the table and the file names; a hand-edited label
    // that disagrees with the config would silently replay something else.
    const auto check_label = [&](const std::string& key,
                                 const std::string& actual) {
      if (v.get_string(key, "") != actual) {
        cfgcheck::fail(path + "." + key, "does not match config." + key +
                                             " \"" + actual + "\"");
      }
    };
    check_label("protocol", repro.config.protocol);
    check_label("attack", repro.config.attack);
  }
  return repro;
}

Reproducer Reproducer::from_file(const std::string& file) {
  return from_json(json::parse_file(file));
}

void Reproducer::save(const std::string& file) const {
  std::ofstream out(file);
  if (!out) throw std::runtime_error("cannot write reproducer: " + file);
  out << to_json().dump(2) << '\n';
}

ReplayOutcome replay_reproducer(const Reproducer& repro) {
  ReplayOutcome outcome;
  outcome.replayed = evaluate(repro.config, repro.kind);
  const Evaluation& now = outcome.replayed;
  const Evaluation& then = repro.recorded;
  if (repro.kind == ObjectiveKind::kDamage) {
    // Exact equality is intentional: the score is deterministic double
    // arithmetic over run products, and JSON numbers round-trip bit-exactly.
    outcome.score_matches = now.damage.score == then.damage.score;
    outcome.verdict_matches =
        now.damage.stalled == then.damage.stalled &&
        now.damage.safety_violated == then.damage.safety_violated;
  } else {
    outcome.verdict_matches = Objective::verdict(repro.oracle()).met_by(now);
  }
  outcome.fingerprint_matches =
      now.trace == then.trace && now.baseline == then.baseline;
  return outcome;
}

}  // namespace bftsim::explore
