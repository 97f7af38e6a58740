// Streaming trace sink implementations and the format-autodetecting
// reader. Both on-disk formats are record-streams with no trailing footer,
// so a crashed run leaves a readable prefix; the fingerprint lives in the
// sink (and in RunResult), not in the file.
#include "obs/trace_sink.hpp"

#include <cstdio>
#include <stdexcept>

#include "core/json.hpp"

namespace bftsim::obs {

namespace {

// Binary format: 8-byte magic, then self-delimiting frames.
constexpr char kBinaryMagic[8] = {'B', 'F', 'T', 'R', 'A', 'C', 'E', '\x01'};
constexpr std::uint8_t kFrameRecord = 0x01;
constexpr std::uint8_t kFrameString = 0x02;
constexpr std::uint32_t kMaxTypeStringLen = 1u << 16;

void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

[[nodiscard]] bool read_u8(std::istream& in, std::uint8_t& v) {
  const int c = in.get();
  if (c == std::char_traits<char>::eof()) return false;
  v = static_cast<std::uint8_t>(c);
  return true;
}

[[nodiscard]] bool read_u32(std::istream& in, std::uint32_t& v) {
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    std::uint8_t byte = 0;
    if (!read_u8(in, byte)) return false;
    out |= static_cast<std::uint32_t>(byte) << (8 * i);
  }
  v = out;
  return true;
}

[[nodiscard]] bool read_u64(std::istream& in, std::uint64_t& v) {
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint8_t byte = 0;
    if (!read_u8(in, byte)) return false;
    out |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  v = out;
  return true;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_hex64(std::string& out, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  out += buf;
}

[[nodiscard]] TraceKind kind_from_name(const std::string& name,
                                       const std::string& where) {
  for (const TraceKind kind :
       {TraceKind::kSend, TraceKind::kDeliver, TraceKind::kDrop,
        TraceKind::kTimerFire, TraceKind::kDecide, TraceKind::kViewChange,
        TraceKind::kCorrupt}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::runtime_error(where + ": unknown trace kind \"" + name + "\"");
}

[[nodiscard]] std::uint64_t parse_hex64(const std::string& s,
                                        const std::string& where) {
  if (s.empty() || s.size() > 16) {
    throw std::runtime_error(where + ": bad hex field \"" + s + "\"");
  }
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw std::runtime_error(where + ": bad hex field \"" + s + "\"");
    }
  }
  return v;
}

/// The name a trace file records for `type`. A message kind without a
/// registered name could not be read back, so it fails the write.
[[nodiscard]] const std::string& traced_name(PayloadType type) {
  const std::string& name = PayloadTypeRegistry::instance().name(type);
  if (name.empty() && type != PayloadType::kUnknown) {
    throw std::runtime_error("trace sink: payload type " +
                             std::to_string(to_index(type)) +
                             " has no registered name");
  }
  return name;
}

/// The tag registered under a trace file's `name`.
[[nodiscard]] PayloadType type_from_name(const std::string& name,
                                         const std::string& where) {
  if (const auto type = PayloadTypeRegistry::instance().find(name)) {
    return *type;
  }
  throw std::runtime_error(where + ": unknown message type \"" + name + "\"");
}

[[nodiscard]] std::ofstream open_for_write(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("trace sink: cannot open " + path);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// JsonlTraceSink
// ---------------------------------------------------------------------------

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : path_(path), out_(open_for_write(path)) {}

void JsonlTraceSink::write(const TraceRecord& rec) {
  line_.clear();
  line_ += "{\"kind\":";
  append_json_string(line_, to_string(rec.kind));
  line_ += ",\"at\":";
  line_ += std::to_string(rec.at);
  line_ += ",\"a\":";
  line_ += std::to_string(rec.a);
  line_ += ",\"b\":";
  line_ += std::to_string(rec.b);
  line_ += ",\"type\":";
  append_json_string(line_, traced_name(rec.type));
  line_ += ",\"digest\":";
  append_hex64(line_, rec.digest);
  line_ += ",\"msg\":";
  line_ += std::to_string(rec.msg_id);
  line_ += ",\"view\":";
  line_ += std::to_string(rec.view);
  line_ += ",\"value\":";
  append_hex64(line_, rec.value);
  line_ += "}\n";
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

void JsonlTraceSink::flush() {
  out_.flush();
  if (!out_) throw std::runtime_error("trace sink: write failed: " + path_);
}

// ---------------------------------------------------------------------------
// BinaryTraceSink
// ---------------------------------------------------------------------------

BinaryTraceSink::BinaryTraceSink(const std::string& path)
    : path_(path), out_(open_for_write(path)) {
  out_.write(kBinaryMagic, sizeof kBinaryMagic);
}

std::uint32_t BinaryTraceSink::intern(PayloadType type) {
  const std::size_t index = to_index(type);
  if (index >= string_ids_.size()) {
    string_ids_.resize(index + 1, kNotInterned);
  }
  if (string_ids_[index] != kNotInterned) return string_ids_[index];
  const std::string& name = traced_name(type);
  const std::uint32_t id = strings_++;
  string_ids_[index] = id;
  std::string frame;
  append_u8(frame, kFrameString);
  append_u32(frame, id);
  append_u32(frame, static_cast<std::uint32_t>(name.size()));
  frame += name;
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  return id;
}

void BinaryTraceSink::write(const TraceRecord& rec) {
  const std::uint32_t type_id = intern(rec.type);
  std::string frame;
  frame.reserve(54);
  append_u8(frame, kFrameRecord);
  append_u8(frame, static_cast<std::uint8_t>(rec.kind));
  append_u64(frame, static_cast<std::uint64_t>(rec.at));
  append_u32(frame, rec.a);
  append_u32(frame, rec.b);
  append_u32(frame, type_id);
  append_u64(frame, rec.digest);
  append_u64(frame, rec.msg_id);
  append_u64(frame, rec.view);
  append_u64(frame, rec.value);
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
}

void BinaryTraceSink::flush() {
  out_.flush();
  if (!out_) throw std::runtime_error("trace sink: write failed: " + path_);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<TraceSink> make_trace_sink(const ObsConfig& obs,
                                           Trace& memory_target) {
  switch (obs.sink) {
    case TraceSinkKind::kMemory:
      return std::make_unique<MemoryTraceSink>(memory_target);
    case TraceSinkKind::kJsonl:
      return std::make_unique<JsonlTraceSink>(obs.trace_path);
    case TraceSinkKind::kBinary:
      return std::make_unique<BinaryTraceSink>(obs.trace_path);
  }
  throw std::runtime_error("trace sink: unknown sink kind");
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
  if (!in_) throw std::runtime_error("trace reader: cannot open " + path);
  char magic[sizeof kBinaryMagic] = {};
  in_.read(magic, sizeof magic);
  if (in_.gcount() == sizeof magic &&
      std::char_traits<char>::compare(magic, kBinaryMagic, sizeof magic) == 0) {
    format_ = TraceSinkKind::kBinary;
    return;
  }
  // Not the binary magic: treat as JSONL and restart from the beginning.
  in_.clear();
  in_.seekg(0);
  format_ = TraceSinkKind::kJsonl;
}

bool TraceReader::next(TraceRecord& out) {
  const bool ok = format_ == TraceSinkKind::kBinary ? next_binary(out)
                                                    : next_jsonl(out);
  if (ok) ++record_index_;
  return ok;
}

bool TraceReader::next_jsonl(TraceRecord& out) {
  std::string line;
  for (;;) {
    if (!std::getline(in_, line)) return false;
    if (!line.empty()) break;  // tolerate blank lines
  }
  const std::string where =
      path_ + ": record " + std::to_string(record_index_);
  json::Value v;
  try {
    v = json::parse(line);
  } catch (const json::Error& e) {
    throw std::runtime_error(where + ": " + e.what());
  }
  if (!v.is_object()) throw std::runtime_error(where + ": not an object");
  out = TraceRecord{};
  out.kind = kind_from_name(v.get_string("kind", ""), where);
  out.at = static_cast<Time>(v.get_int("at", 0));
  out.a = static_cast<NodeId>(
      static_cast<std::uint32_t>(v.get_int("a", kNoNode)));
  out.b = static_cast<NodeId>(
      static_cast<std::uint32_t>(v.get_int("b", kNoNode)));
  out.digest = parse_hex64(v.get_string("digest", "0"), where);
  out.msg_id = static_cast<std::uint64_t>(v.get_int("msg", 0));
  out.view = static_cast<View>(v.get_int("view", 0));
  out.value = parse_hex64(v.get_string("value", "0"), where);
  out.type = type_from_name(v.get_string("type", ""), where);
  return true;
}

bool TraceReader::next_binary(TraceRecord& out) {
  const std::string where =
      path_ + ": record " + std::to_string(record_index_);
  for (;;) {
    std::uint8_t tag = 0;
    if (!read_u8(in_, tag)) return false;  // clean EOF
    if (tag == kFrameString) {
      std::uint32_t id = 0;
      std::uint32_t len = 0;
      if (!read_u32(in_, id) || !read_u32(in_, len)) {
        throw std::runtime_error(where + ": truncated string frame");
      }
      if (id != types_.size() || len > kMaxTypeStringLen) {
        throw std::runtime_error(where + ": corrupt string table");
      }
      std::string s(len, '\0');
      in_.read(s.data(), static_cast<std::streamsize>(len));
      if (static_cast<std::uint32_t>(in_.gcount()) != len) {
        throw std::runtime_error(where + ": truncated string frame");
      }
      types_.push_back(type_from_name(s, where));
      continue;
    }
    if (tag != kFrameRecord) {
      throw std::runtime_error(where + ": unknown frame tag");
    }
    std::uint8_t kind = 0;
    std::uint64_t at = 0;
    std::uint32_t a = 0, b = 0, type_id = 0;
    std::uint64_t digest = 0, msg_id = 0, view = 0, value = 0;
    if (!read_u8(in_, kind) || !read_u64(in_, at) || !read_u32(in_, a) ||
        !read_u32(in_, b) || !read_u32(in_, type_id) ||
        !read_u64(in_, digest) || !read_u64(in_, msg_id) ||
        !read_u64(in_, view) || !read_u64(in_, value)) {
      throw std::runtime_error(where + ": truncated record");
    }
    if (kind > static_cast<std::uint8_t>(TraceKind::kCorrupt)) {
      throw std::runtime_error(where + ": bad record kind");
    }
    if (type_id >= types_.size()) {
      throw std::runtime_error(where + ": dangling string id");
    }
    out = TraceRecord{};
    out.kind = static_cast<TraceKind>(kind);
    out.at = static_cast<Time>(at);
    out.a = a;
    out.b = b;
    out.type = types_[type_id];
    out.digest = digest;
    out.msg_id = msg_id;
    out.view = view;
    out.value = value;
    return true;
  }
}

Trace read_trace_file(const std::string& path) {
  TraceReader reader(path);
  Trace trace;
  TraceRecord rec;
  while (reader.next(rec)) trace.add(std::move(rec));
  return trace;
}

}  // namespace bftsim::obs
