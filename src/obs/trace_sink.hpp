// Trace sinks: where the controller's trace records go.
//
// The historical behavior — accumulate every TraceRecord in an in-memory
// Trace attached to RunResult — is one implementation (MemoryTraceSink).
// The streaming sinks write each record to disk as it happens, either as
// JSON Lines (one object per record, greppable) or as a compact binary
// format (~5x smaller, for million-event runs), so the run never holds the
// whole trace in RAM. Every sink maintains the same order-sensitive
// fingerprint an in-memory Trace would produce, which is what makes
// determinism checks ("same seed => same fingerprint") format-independent.
//
// TraceReader reads either on-disk format back into TraceRecords, one
// record at a time; tools/trace_inspect is the CLI over it.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "obs/obs_config.hpp"

namespace bftsim::obs {

/// Destination for the trace records of one run. on_record() is the single
/// seam the controller emits through; implementations only decide storage.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Accepts the next trace record (accounting + storage).
  void on_record(const TraceRecord& rec) {
    fingerprint_ = hash_combine(fingerprint_, rec.fingerprint());
    ++count_;
    write(rec);
  }

  /// Completes any buffered output. Called once at run end; throws
  /// std::runtime_error when the sink's storage failed.
  virtual void flush() {}

  /// Order-sensitive fingerprint over every record seen so far; equals
  /// Trace::fingerprint() of the same record sequence.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// Number of records seen so far.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 protected:
  virtual void write(const TraceRecord& rec) = 0;

 private:
  std::uint64_t fingerprint_ = kTraceFingerprintSeed;
  std::uint64_t count_ = 0;
};

/// Appends records to a caller-owned Trace (the historical in-memory path).
class MemoryTraceSink final : public TraceSink {
 public:
  explicit MemoryTraceSink(Trace& target) : target_(target) {}

 protected:
  void write(const TraceRecord& rec) override { target_.add(rec); }

 private:
  Trace& target_;
};

/// Streams one JSON object per record ("\n"-delimited) to a file. Keys are
/// fixed and ordered; digest/value are hex strings so the full 64 bits
/// round-trip through the double-based JSON layer.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Throws std::runtime_error when `path` cannot be opened for writing.
  explicit JsonlTraceSink(const std::string& path);

  void flush() override;

 protected:
  void write(const TraceRecord& rec) override;

 private:
  std::string path_;
  std::ofstream out_;
  std::string line_;  ///< reused per-record formatting buffer
};

/// Streams the compact binary trace format: an 8-byte magic header, then
/// self-delimiting frames — a payload type's registered name is written
/// once, in a string frame, and records refer to it by index, so a record
/// is 45 bytes regardless of name length.
class BinaryTraceSink final : public TraceSink {
 public:
  /// Throws std::runtime_error when `path` cannot be opened for writing.
  explicit BinaryTraceSink(const std::string& path);

  void flush() override;

 protected:
  void write(const TraceRecord& rec) override;

 private:
  static constexpr std::uint32_t kNotInterned = 0xffffffffu;

  [[nodiscard]] std::uint32_t intern(PayloadType type);

  std::string path_;
  std::ofstream out_;
  std::vector<std::uint32_t> string_ids_;  ///< on-wire id, by to_index(tag)
  std::uint32_t strings_ = 0;              ///< string frames written
};

/// Builds the sink selected by `obs` for a run whose in-memory trace (when
/// the memory sink is selected) lives in `memory_target`. Throws
/// std::runtime_error when a streaming sink cannot open its output file.
[[nodiscard]] std::unique_ptr<TraceSink> make_trace_sink(const ObsConfig& obs,
                                                         Trace& memory_target);

/// Reads a trace file in either streaming format, one record at a time.
/// The format is auto-detected from the file's first bytes. Payload type
/// names map back to tags through PayloadTypeRegistry, so a custom
/// protocol's names must be registered before its traces are read.
class TraceReader {
 public:
  /// Throws std::runtime_error when the file cannot be opened or is in
  /// neither trace format.
  explicit TraceReader(const std::string& path);

  /// Reads the next record into `out`. Returns false at end of file;
  /// throws std::runtime_error on a malformed record.
  [[nodiscard]] bool next(TraceRecord& out);

  /// The detected on-disk format (kJsonl or kBinary).
  [[nodiscard]] TraceSinkKind format() const noexcept { return format_; }

 private:
  [[nodiscard]] bool next_jsonl(TraceRecord& out);
  [[nodiscard]] bool next_binary(TraceRecord& out);

  std::string path_;
  std::ifstream in_;
  TraceSinkKind format_ = TraceSinkKind::kJsonl;
  std::vector<PayloadType> types_;  ///< binary string table, by id
  std::uint64_t record_index_ = 0;  ///< for error messages
};

/// Convenience: reads a whole trace file into an in-memory Trace.
[[nodiscard]] Trace read_trace_file(const std::string& path);

}  // namespace bftsim::obs
