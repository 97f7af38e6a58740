// Trace-sink tests: every sink backend must observe the same record
// sequence the in-memory Trace would hold, with the same fingerprint, and
// the streaming formats must round-trip records exactly.
#include "obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/config.hpp"
#include "core/trace.hpp"
#include "sim/simulation.hpp"

namespace bftsim {
namespace {

std::string temp_path(const std::string& name) {
  // PID-qualified: ctest runs each test in its own process, possibly in
  // parallel, and the parameterized suites would otherwise collide on
  // identically named files in the shared temp directory.
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

SimConfig traced_config(std::uint64_t seed = 11) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 4;
  cfg.seed = seed;
  cfg.decisions = 2;
  cfg.record_trace = true;
  return cfg;
}

TraceRecord sample_record(TraceKind kind, Time at) {
  TraceRecord rec;
  rec.kind = kind;
  rec.at = at;
  rec.a = 1;
  rec.b = 2;
  rec.type = PayloadType::kPbftPrepare;
  rec.digest = 0xdeadbeefcafef00dULL;
  rec.msg_id = 42;
  rec.view = 3;
  rec.value = 0xffffffffffffffffULL;  // full 64 bits must survive JSONL
  return rec;
}

TEST(TraceSinkTest, MemorySinkMatchesLegacyTrace) {
  Trace direct;
  Trace sunk;
  obs::MemoryTraceSink sink(sunk);
  for (int i = 0; i < 5; ++i) {
    const TraceRecord rec = sample_record(TraceKind::kSend, i * 10);
    direct.add(rec);
    sink.on_record(rec);
  }
  ASSERT_EQ(sunk.size(), direct.size());
  EXPECT_EQ(sunk.fingerprint(), direct.fingerprint());
  EXPECT_EQ(sink.fingerprint(), direct.fingerprint());
  EXPECT_EQ(sink.count(), direct.size());
}

TEST(TraceSinkTest, EmptySinkFingerprintMatchesEmptyTrace) {
  Trace empty;
  obs::MemoryTraceSink sink(empty);
  EXPECT_EQ(sink.fingerprint(), empty.fingerprint());
  EXPECT_EQ(sink.fingerprint(), kTraceFingerprintSeed);
}

class TraceSinkFormatTest
    : public ::testing::TestWithParam<TraceSinkKind> {};

TEST_P(TraceSinkFormatTest, RoundTripsRecordsExactly) {
  const std::string path = temp_path("roundtrip.trace");
  Trace original;
  {
    ObsConfig obs;
    obs.sink = GetParam();
    obs.trace_path = path;
    Trace unused;
    auto sink = obs::make_trace_sink(obs, unused);
    const TraceKind kinds[] = {TraceKind::kSend, TraceKind::kDeliver,
                               TraceKind::kDrop, TraceKind::kDecide,
                               TraceKind::kViewChange, TraceKind::kCorrupt};
    Time at = 0;
    for (const TraceKind kind : kinds) {
      TraceRecord rec = sample_record(kind, at += 7);
      if (kind == TraceKind::kDecide) rec.type = PayloadType::kUnknown;
      original.add(rec);
      sink->on_record(rec);
    }
    // A user kind registered under a "quoted \"name\"" exercises JSONL
    // escaping.
    TraceRecord tricky = sample_record(TraceKind::kSend, at += 7);
    tricky.type = PayloadType::kUserBase;
    PayloadTypeRegistry::instance().add(tricky.type,
                                        "with \"quotes\" and \\slashes\\");
    original.add(tricky);
    sink->on_record(tricky);
    sink->flush();
    EXPECT_EQ(sink->fingerprint(), original.fingerprint());
    EXPECT_EQ(sink->count(), original.size());
  }

  obs::TraceReader reader(path);
  EXPECT_EQ(reader.format(), GetParam());
  const Trace loaded = obs::read_trace_file(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const TraceRecord& a = original.records()[i];
    const TraceRecord& b = loaded.records()[i];
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.at, b.at) << "record " << i;
    EXPECT_EQ(a.a, b.a) << "record " << i;
    EXPECT_EQ(a.b, b.b) << "record " << i;
    EXPECT_EQ(a.type, b.type) << "record " << i;
    EXPECT_EQ(a.digest, b.digest) << "record " << i;
    EXPECT_EQ(a.msg_id, b.msg_id) << "record " << i;
    EXPECT_EQ(a.view, b.view) << "record " << i;
    EXPECT_EQ(a.value, b.value) << "record " << i;
  }
}

TEST_P(TraceSinkFormatTest, StreamedRunMatchesMemoryRun) {
  SimConfig memory_cfg = traced_config();
  const RunResult memory_run = run_simulation(memory_cfg);
  ASSERT_GT(memory_run.trace.size(), 0u);
  EXPECT_EQ(memory_run.trace_fingerprint, memory_run.trace.fingerprint());
  EXPECT_EQ(memory_run.trace_records, memory_run.trace.size());

  const std::string path = temp_path("streamed.trace");
  SimConfig streamed_cfg = traced_config();
  streamed_cfg.obs.sink = GetParam();
  streamed_cfg.obs.trace_path = path;
  const RunResult streamed_run = run_simulation(streamed_cfg);

  // Streaming must not change the run, only where the trace goes.
  EXPECT_EQ(streamed_run.events_processed, memory_run.events_processed);
  EXPECT_EQ(streamed_run.messages_sent, memory_run.messages_sent);
  EXPECT_EQ(streamed_run.trace_fingerprint, memory_run.trace_fingerprint);
  EXPECT_EQ(streamed_run.trace_records, memory_run.trace_records);
  EXPECT_TRUE(streamed_run.trace.empty());  // nothing held in RAM

  const Trace loaded = obs::read_trace_file(path);
  EXPECT_EQ(loaded.size(), memory_run.trace.size());
  EXPECT_EQ(loaded.fingerprint(), memory_run.trace.fingerprint());
}

TEST_P(TraceSinkFormatTest, DeterminismSameSeedSameFingerprint) {
  const std::string path_a = temp_path("det_a.trace");
  const std::string path_b = temp_path("det_b.trace");
  SimConfig cfg = traced_config(29);
  cfg.obs.sink = GetParam();

  cfg.obs.trace_path = path_a;
  const RunResult a = run_simulation(cfg);
  cfg.obs.trace_path = path_b;
  const RunResult b = run_simulation(cfg);

  EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(obs::read_trace_file(path_a).fingerprint(),
            obs::read_trace_file(path_b).fingerprint());
}

INSTANTIATE_TEST_SUITE_P(Formats, TraceSinkFormatTest,
                         ::testing::Values(TraceSinkKind::kJsonl,
                                           TraceSinkKind::kBinary),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(TraceSinkTest, StreamingSinkImpliesTracing) {
  // A streaming sink produces a trace file even when record_trace is off:
  // selecting jsonl/binary is an explicit request for a trace.
  const std::string path = temp_path("implied.trace");
  SimConfig cfg = traced_config();
  cfg.record_trace = false;
  cfg.obs.sink = TraceSinkKind::kJsonl;
  cfg.obs.trace_path = path;
  const RunResult result = run_simulation(cfg);
  EXPECT_GT(result.trace_records, 0u);
  EXPECT_GT(obs::read_trace_file(path).size(), 0u);
}

TEST(TraceSinkTest, UnopenablePathThrows) {
  EXPECT_THROW(obs::JsonlTraceSink("/nonexistent-dir/x.jsonl"),
               std::runtime_error);
  EXPECT_THROW(obs::BinaryTraceSink("/nonexistent-dir/x.trace"),
               std::runtime_error);
  EXPECT_THROW(obs::TraceReader("/nonexistent-dir/x.trace"),
               std::runtime_error);
}

TEST(TraceReaderTest, MalformedJsonlReportsRecordIndex) {
  const std::string path = temp_path("bad.jsonl");
  {
    std::ofstream out(path);
    out << R"({"kind":"send","at":1,"a":0,"b":1,"type":"pbft/prepare","digest":"00000000000000ff","msg":1,"view":0,"value":"0"})"
        << "\n";
    out << "this is not json\n";
  }
  obs::TraceReader reader(path);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.digest, 0xffu);
  try {
    (void)reader.next(rec);
    FAIL() << "expected malformed record to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos)
        << e.what();
  }
}

// --- Malformed-input battery -----------------------------------------------
// Hand-assembled binary files exercise each corruption the reader guards
// against; every error must name the file and the index of the record at
// which decoding stopped, so a corrupt multi-gigabyte trace is diagnosable.

constexpr char kMagic[8] = {'B', 'F', 'T', 'R', 'A', 'C', 'E', '\x01'};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// A string-interning frame: tag 0x02, id, length, bytes.
void put_string_frame(std::string& out, std::uint32_t id,
                      const std::string& s) {
  out.push_back('\x02');
  put_u32(out, id);
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// A record frame: tag 0x01, kind, at, a, b, type_id, digest, msg, view, value.
void put_record_frame(std::string& out, std::uint8_t kind,
                      std::uint32_t type_id) {
  out.push_back('\x01');
  out.push_back(static_cast<char>(kind));
  put_u64(out, 100);     // at
  put_u32(out, 0);       // a
  put_u32(out, 1);       // b
  put_u32(out, type_id);
  put_u64(out, 0);       // digest
  put_u64(out, 7);       // msg
  put_u64(out, 0);       // view
  put_u64(out, 0);       // value
}

std::string write_binary(const std::string& name, const std::string& body) {
  const std::string path = temp_path(name);
  std::ofstream out(path, std::ios::binary);
  out.write(kMagic, sizeof kMagic);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  return path;
}

/// Reads records until the reader throws; returns the message, failing the
/// test when no error surfaces.
std::string read_until_error(const std::string& path) {
  obs::TraceReader reader(path);
  TraceRecord rec;
  try {
    while (reader.next(rec)) {
    }
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << path << ": expected a decode error";
  return {};
}

TEST(TraceReaderTest, TruncatedStringFrameReportsRecordIndex) {
  std::string body;
  put_string_frame(body, 0, "pbft/prepare");
  put_record_frame(body, 0, 0);
  body += '\x02';      // a second string frame...
  put_u32(body, 1);    // ...with its length header cut off
  const std::string msg =
      read_until_error(write_binary("trunc_string.trace", body));
  EXPECT_NE(msg.find("record 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("truncated string frame"), std::string::npos) << msg;
}

TEST(TraceReaderTest, OutOfOrderStringTableReportsCorruption) {
  std::string body;
  put_string_frame(body, 3, "skipped-ids");  // ids must be dense from 0
  const std::string msg =
      read_until_error(write_binary("bad_table.trace", body));
  EXPECT_NE(msg.find("record 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("corrupt string table"), std::string::npos) << msg;
}

TEST(TraceReaderTest, DanglingStringIdReportsRecordIndex) {
  std::string body;
  put_string_frame(body, 0, "pbft/prepare");
  put_record_frame(body, 0, 0);
  put_record_frame(body, 0, 9);  // references a string never interned
  const std::string msg =
      read_until_error(write_binary("dangling_id.trace", body));
  EXPECT_NE(msg.find("record 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dangling string id"), std::string::npos) << msg;
}

TEST(TraceReaderTest, BadRecordKindReportsRecordIndex) {
  std::string body;
  put_string_frame(body, 0, "pbft/prepare");
  put_record_frame(body, 0xee, 0);
  const std::string msg =
      read_until_error(write_binary("bad_kind.trace", body));
  EXPECT_NE(msg.find("record 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bad record kind"), std::string::npos) << msg;
}

TEST(TraceReaderTest, UnknownFrameTagReportsRecordIndex) {
  std::string body;
  put_string_frame(body, 0, "pbft/prepare");
  put_record_frame(body, 0, 0);
  body += '\x7f';  // neither a record nor a string frame
  const std::string msg =
      read_until_error(write_binary("bad_tag.trace", body));
  EXPECT_NE(msg.find("record 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown frame tag"), std::string::npos) << msg;
}

TEST(TraceReaderTest, JsonlNonObjectLineReportsRecordIndex) {
  const std::string path = temp_path("non_object.jsonl");
  {
    std::ofstream out(path);
    out << R"({"kind":"send","at":1,"a":0,"b":1,"type":"pbft/prepare","digest":"0","msg":1,"view":0,"value":"0"})"
        << "\n[1,2,3]\n";
  }
  const std::string msg = read_until_error(path);
  EXPECT_NE(msg.find("record 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("not an object"), std::string::npos) << msg;
}

TEST(TraceReaderTest, JsonlUnknownKindReportsRecordIndex) {
  const std::string path = temp_path("bad_kind.jsonl");
  {
    std::ofstream out(path);
    out << R"({"kind":"teleport","at":1,"a":0,"b":1,"type":"pbft/prepare","digest":"0","msg":1,"view":0,"value":"0"})"
        << "\n";
  }
  const std::string msg = read_until_error(path);
  EXPECT_NE(msg.find("record 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown trace kind"), std::string::npos) << msg;
}

TEST(TraceReaderTest, JsonlBadHexFieldReportsRecordIndex) {
  const std::string path = temp_path("bad_hex.jsonl");
  {
    std::ofstream out(path);
    out << R"({"kind":"send","at":1,"a":0,"b":1,"type":"pbft/prepare","digest":"xyzzy","msg":1,"view":0,"value":"0"})"
        << "\n";
  }
  const std::string msg = read_until_error(path);
  EXPECT_NE(msg.find("record 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bad hex field"), std::string::npos) << msg;
}

TEST(TraceReaderTest, JsonlUnregisteredTypeNamesRecordAndName) {
  const std::string path = temp_path("unknown_type.jsonl");
  {
    std::ofstream out(path);
    out << R"({"kind":"send","at":1,"a":0,"b":1,"type":"no/such-kind","digest":"0","msg":1,"view":0,"value":"0"})"
        << "\n";
  }
  const std::string msg = read_until_error(path);
  EXPECT_NE(msg.find("record 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown message type \"no/such-kind\""),
            std::string::npos)
      << msg;
}

TEST(TraceReaderTest, BinaryUnregisteredTypeNamesRecordAndName) {
  std::string body;
  put_string_frame(body, 0, "pbft/prepare");
  put_record_frame(body, 0, 0);
  put_string_frame(body, 1, "no/such-kind");
  put_record_frame(body, 0, 1);
  const std::string msg =
      read_until_error(write_binary("unknown_type.trace", body));
  EXPECT_NE(msg.find("record 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown message type \"no/such-kind\""),
            std::string::npos)
      << msg;
}

TEST_P(TraceSinkFormatTest, UnregisteredTypeFailsTheWrite) {
  // A kind without a registered name could not be read back.
  ObsConfig obs;
  obs.sink = GetParam();
  obs.trace_path = temp_path("unregistered.trace");
  Trace unused;
  auto sink = obs::make_trace_sink(obs, unused);
  TraceRecord rec = sample_record(TraceKind::kSend, 1);
  rec.type = static_cast<PayloadType>(to_index(PayloadType::kUserBase) + 42);
  EXPECT_THROW(sink->on_record(rec), std::runtime_error);
}

TEST(TraceReaderTest, TruncatedBinaryThrows) {
  const std::string src = temp_path("trunc_src.trace");
  {
    obs::BinaryTraceSink sink(src);
    sink.on_record(sample_record(TraceKind::kSend, 1));
    sink.on_record(sample_record(TraceKind::kDeliver, 2));
    sink.flush();
  }
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string dst = temp_path("trunc_dst.trace");
  {
    std::ofstream out(dst, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 10));  // cut mid-record
  }
  obs::TraceReader reader(dst);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_THROW((void)reader.next(rec), std::runtime_error);
}

TEST(ObsConfigTest, DefaultsAreDisabled) {
  const ObsConfig obs;
  EXPECT_FALSE(obs.enabled());
  EXPECT_FALSE(obs.streaming());
  EXPECT_FALSE(obs.timeline_enabled());
}

TEST(ObsConfigTest, ParsesAndRoundTrips) {
  const json::Value v = json::parse(
      R"({"sink":"binary","trace_path":"/tmp/x.trace","timeline_tick_ms":5.0,)"
      R"("timeline_views":false})");
  const ObsConfig obs = ObsConfig::from_json(v);
  EXPECT_EQ(obs.sink, TraceSinkKind::kBinary);
  EXPECT_EQ(obs.trace_path, "/tmp/x.trace");
  EXPECT_DOUBLE_EQ(obs.timeline_tick_ms, 5.0);
  EXPECT_FALSE(obs.timeline_views);
  const ObsConfig again = ObsConfig::from_json(obs.to_json());
  EXPECT_EQ(again.sink, obs.sink);
  EXPECT_EQ(again.trace_path, obs.trace_path);
}

TEST(ObsConfigTest, RejectsUnknownSinkWithPath) {
  const json::Value v = json::parse(R"({"sink":"parquet"})");
  try {
    (void)ObsConfig::from_json(v);
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("$.obs.sink"), std::string::npos)
        << e.what();
  }
}

TEST(ObsConfigTest, RejectsStreamingWithoutPath) {
  const json::Value v = json::parse(R"({"sink":"jsonl"})");
  try {
    (void)ObsConfig::from_json(v);
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("$.obs.trace_path"),
              std::string::npos)
        << e.what();
  }
}

TEST(ObsConfigTest, RejectsUnknownKeys) {
  const json::Value v = json::parse(R"({"sink":"memory","sinks":"typo"})");
  EXPECT_THROW((void)ObsConfig::from_json(v), std::invalid_argument);
}

TEST(ObsConfigTest, SimConfigCarriesObsBlock) {
  const json::Value v = json::parse(
      R"({"protocol":"pbft","n":4,)"
      R"("obs":{"sink":"jsonl","trace_path":"/tmp/t.jsonl"}})");
  const SimConfig cfg = SimConfig::from_json(v);
  EXPECT_TRUE(cfg.obs.streaming());
  const json::Value out = cfg.to_json();
  ASSERT_NE(out.as_object().find("obs"), nullptr);
}

}  // namespace
}  // namespace bftsim
