#include "wq/protocol.h"

#include <atomic>
#include <cctype>
#include <limits>

#include "obs/recorder.h"
#include "serde/pickle.h"

namespace lfm::wq {
namespace {

// The frame type byte (header byte 3); the prefix before it is in protocol.h.
enum FrameType : uint8_t {
  kFrameTask = 1,
  kFrameResult = 2,
  kFrameTaskBatch = 3,
  kFrameResultBatch = 4,
  kFrameHello = 5,
  kFrameFile = 6,
  kFrameControl = 7,
  kFrameStats = 8,
  kFrameTelemetry = 9,
};

// Decode-side frame body cap (see protocol.h). Relaxed atomics: the limit is
// configuration, not synchronization.
std::atomic<size_t> g_max_frame_body_bytes{kDefaultMaxFrameBodyBytes};

// --- wire metrics -------------------------------------------------------------
obs::Count wire_frames_encoded{"wire.frames_encoded"};
obs::Count wire_bytes_encoded{"wire.bytes_encoded"};
obs::Count wire_frames_decoded{"wire.frames_decoded"};
obs::Count wire_bytes_decoded{"wire.bytes_decoded"};
obs::Spread wire_encoded_batch_size{"wire.encoded_batch_size", 1.0, 1e5, 48};

void count_encoded(size_t bytes, size_t messages) {
  wire_frames_encoded.add();
  wire_bytes_encoded.add(static_cast<int64_t>(bytes));
  wire_encoded_batch_size.observe(static_cast<double>(messages));
}

void count_decoded(size_t bytes) {
  wire_frames_decoded.add();
  wire_bytes_decoded.add(static_cast<int64_t>(bytes));
}

// --- frame bodies -----------------------------------------------------------

void validate_task_tokens(const TaskMessage& msg) {
  if (!valid_token(msg.category)) throw Error("protocol: invalid category token");
  for (const auto& f : msg.infiles) {
    if (!valid_token(f.name)) throw Error("protocol: invalid file name " + f.name);
  }
  for (const auto& name : msg.outfiles) {
    if (!valid_token(name)) throw Error("protocol: invalid file name " + name);
  }
}

size_t str_field_size(size_t n) { return serde::varint_size(n) + n; }

size_t task_body_size(const TaskMessage& msg) {
  size_t n = serde::varint_size(msg.task_id);
  n += str_field_size(msg.category.size());
  n += str_field_size(msg.command_line.size());
  n += 24;  // alloc: three IEEE doubles
  n += serde::varint_size(msg.infiles.size());
  for (const auto& f : msg.infiles) {
    n += str_field_size(f.name.size());
    n += serde::varint_size(serde::zigzag(f.size_bytes));
    n += 1;  // cacheable
  }
  n += serde::varint_size(msg.outfiles.size());
  for (const auto& name : msg.outfiles) n += str_field_size(name.size());
  // Trace context extension: present only when traced, so untraced frames
  // stay byte-identical.
  if (msg.trace_id != 0) {
    n += serde::varint_size(msg.trace_id) + serde::varint_size(msg.parent_span);
  }
  return n;
}

size_t result_body_size(const ResultMessage& msg) {
  size_t n = serde::varint_size(msg.task_id);
  n += serde::varint_size(serde::zigzag(msg.exit_code));
  n += 1;  // flags
  if (msg.exhausted) n += str_field_size(msg.exhausted_resource.size());
  n += 8;  // cores_used
  n += serde::varint_size(serde::zigzag(msg.memory_peak_bytes));
  n += serde::varint_size(serde::zigzag(msg.disk_peak_bytes));
  n += 8;  // wall_seconds
  if (!msg.payload.empty()) n += str_field_size(msg.payload.size());
  if (msg.trace_id != 0) n += serde::varint_size(msg.trace_id);
  return n;
}

size_t hello_body_size(const HelloMessage& msg) {
  return str_field_size(msg.worker_name.size()) + 1 + 24;
}

size_t control_body_size(const ControlMessage& msg) {
  return 1 + serde::varint_size(msg.nonce) + 8 +
         (msg.peer_time != 0.0 ? 8 : 0);
}

size_t stats_body_size(const StatsMessage& msg) {
  return str_field_size(msg.source.size()) +
         serde::varint_size(serde::zigzag(msg.workers)) +
         serde::varint_size(serde::zigzag(msg.pending)) +
         serde::varint_size(serde::zigzag(msg.completed)) +
         serde::varint_size(serde::zigzag(msg.fanout_bytes)) +
         serde::varint_size(serde::zigzag(msg.fanout_files)) +
         serde::varint_size(serde::zigzag(msg.cache_files)) +
         serde::varint_size(serde::zigzag(msg.cache_bytes));
}

size_t telemetry_event_size(const obs::TelemetryEvent& ev) {
  return 1 +  // ph
         serde::varint_size(ev.pid) + serde::varint_size(ev.tid) +
         serde::varint_size(ev.trace_id) + 16 +  // ts, dur
         str_field_size(ev.name.size()) + str_field_size(ev.cat.size()) +
         str_field_size(ev.akey0.size()) + 8 +
         str_field_size(ev.akey1.size()) + 8 +
         str_field_size(ev.skey.size()) + str_field_size(ev.sval.size());
}

size_t telemetry_body_size(const TelemetryMessage& msg) {
  size_t n = str_field_size(msg.source.size());
  n += serde::varint_size(msg.process_id);
  n += 8;  // clock_offset
  n += serde::varint_size(serde::zigzag(msg.dropped));
  n += serde::varint_size(msg.events.size());
  for (const auto& ev : msg.events) n += telemetry_event_size(ev);
  n += serde::varint_size(msg.counters.size());
  for (const auto& [name, value] : msg.counters) {
    n += str_field_size(name.size()) + serde::varint_size(serde::zigzag(value));
  }
  n += serde::varint_size(msg.gauges.size());
  for (const auto& [name, value] : msg.gauges) {
    n += str_field_size(name.size()) + 8;
  }
  return n;
}

// Frames are written straight into the std::string the encoders return:
// building a batch frame (~145 KB at batch=128) in a scratch buffer and
// copying it out doubled the memory traffic (see BENCH_wire.json).
using FrameWriter = serde::Writer<std::string>;

void write_task_body(const TaskMessage& msg, FrameWriter& w) {
  w.varint(msg.task_id);
  w.str(msg.category);
  w.str(msg.command_line);
  w.real(msg.allocation.cores);
  w.real(msg.allocation.memory_bytes);
  w.real(msg.allocation.disk_bytes);
  w.varint(msg.infiles.size());
  for (const auto& f : msg.infiles) {
    w.str(f.name);
    w.svarint(f.size_bytes);
    w.u8(f.cacheable ? 1 : 0);
  }
  w.varint(msg.outfiles.size());
  for (const auto& name : msg.outfiles) w.str(name);
  if (msg.trace_id != 0) {
    w.varint(msg.trace_id);
    w.varint(msg.parent_span);
  }
}

void write_result_body(const ResultMessage& msg, FrameWriter& w) {
  w.varint(msg.task_id);
  w.svarint(msg.exit_code);
  uint8_t flags = 0;
  if (msg.exhausted) flags |= 1;
  if (!msg.payload.empty()) flags |= 2;
  w.u8(flags);
  if (msg.exhausted) {
    if (!valid_token(msg.exhausted_resource)) {
      throw Error("protocol: invalid resource token");
    }
    w.str(msg.exhausted_resource);
  }
  w.real(msg.cores_used);
  w.svarint(msg.memory_peak_bytes);
  w.svarint(msg.disk_peak_bytes);
  w.real(msg.wall_seconds);
  if (!msg.payload.empty()) w.bytes(serde::BytesView(msg.payload));
  if (msg.trace_id != 0) w.varint(msg.trace_id);
}

void write_hello_body(const HelloMessage& msg, FrameWriter& w) {
  w.str(msg.worker_name);
  w.u8(kFrameVersion);
  w.real(msg.capacity.cores);
  w.real(msg.capacity.memory_bytes);
  w.real(msg.capacity.disk_bytes);
}

void write_control_body(const ControlMessage& msg, FrameWriter& w) {
  w.u8(static_cast<uint8_t>(msg.type));
  w.varint(msg.nonce);
  w.real(msg.timestamp);
  if (msg.peer_time != 0.0) w.real(msg.peer_time);
}

void write_stats_body(const StatsMessage& msg, FrameWriter& w) {
  w.str(msg.source);
  w.svarint(msg.workers);
  w.svarint(msg.pending);
  w.svarint(msg.completed);
  w.svarint(msg.fanout_bytes);
  w.svarint(msg.fanout_files);
  w.svarint(msg.cache_files);
  w.svarint(msg.cache_bytes);
}

void write_telemetry_body(const TelemetryMessage& msg, FrameWriter& w) {
  w.str(msg.source);
  w.varint(msg.process_id);
  w.real(msg.clock_offset);
  w.svarint(msg.dropped);
  w.varint(msg.events.size());
  for (const auto& ev : msg.events) {
    w.u8(static_cast<uint8_t>(ev.ph));
    w.varint(ev.pid);
    w.varint(ev.tid);
    w.varint(ev.trace_id);
    w.real(ev.ts);
    w.real(ev.dur);
    w.str(ev.name);
    w.str(ev.cat);
    w.str(ev.akey0);
    w.real(ev.aval0);
    w.str(ev.akey1);
    w.real(ev.aval1);
    w.str(ev.skey);
    w.str(ev.sval);
  }
  w.varint(msg.counters.size());
  for (const auto& [name, value] : msg.counters) {
    w.str(name);
    w.svarint(value);
  }
  w.varint(msg.gauges.size());
  for (const auto& [name, value] : msg.gauges) {
    w.str(name);
    w.real(value);
  }
}

void write_frame_header(FrameWriter& w, uint8_t type, size_t body_len) {
  w.u8(kFrameMagic0);
  w.u8(kFrameMagic1);
  w.u8(kFrameVersion);
  w.u8(type);
  w.varint(body_len);
}

size_t frame_size(size_t body_len) {
  return kFrameFixedHeader + serde::varint_size(body_len) + body_len;
}

TaskMessage read_task_body(serde::Reader& r) {
  TaskMessage msg;
  msg.task_id = r.varint();
  msg.category = std::string(r.str());
  msg.command_line = std::string(r.str());
  msg.allocation.cores = r.real();
  msg.allocation.memory_bytes = r.real();
  msg.allocation.disk_bytes = r.real();
  const size_t n_in = r.varint();
  msg.infiles.reserve(std::min<size_t>(n_in, r.remaining()));
  for (size_t i = 0; i < n_in; ++i) {
    TaskMessage::FileStanza f;
    f.name = std::string(r.str());
    f.size_bytes = r.svarint();
    const uint8_t cacheable = r.u8();
    if (cacheable > 1) throw Error("protocol: bad cacheable byte");
    f.cacheable = cacheable == 1;
    msg.infiles.push_back(std::move(f));
  }
  const size_t n_out = r.varint();
  msg.outfiles.reserve(std::min<size_t>(n_out, r.remaining()));
  for (size_t i = 0; i < n_out; ++i) msg.outfiles.push_back(std::string(r.str()));
  // Trailing trace-context extension. The reader is always bounded to
  // exactly one body (parse_frame for single frames, the entry sub-reader
  // for batches), so "bytes remain" means "extension present".
  if (r.remaining() > 0) {
    msg.trace_id = r.varint();
    msg.parent_span = r.varint();
  }
  if (msg.task_id == 0) throw Error("protocol: missing task id");
  return msg;
}

ResultMessage read_result_body(serde::Reader& r) {
  ResultMessage msg;
  msg.task_id = r.varint();
  const int64_t code = r.svarint();
  if (code < std::numeric_limits<int>::min() ||
      code > std::numeric_limits<int>::max()) {
    throw Error("protocol: exit code out of range");
  }
  msg.exit_code = static_cast<int>(code);
  const uint8_t flags = r.u8();
  if (flags > 3) throw Error("protocol: unknown result flags");
  if (flags & 1) {
    msg.exhausted = true;
    msg.exhausted_resource = std::string(r.str());
  }
  msg.cores_used = r.real();
  msg.memory_peak_bytes = r.svarint();
  msg.disk_peak_bytes = r.svarint();
  msg.wall_seconds = r.real();
  if (flags & 2) {
    const serde::BytesView payload = r.bytes();
    msg.payload.assign(payload.begin(), payload.end());
  }
  if (r.remaining() > 0) msg.trace_id = r.varint();
  if (msg.task_id == 0) throw Error("protocol: missing task id");
  return msg;
}

HelloMessage read_hello_body(serde::Reader& r) {
  HelloMessage msg;
  msg.worker_name = std::string(r.str());
  if (r.u8() != kFrameVersion) throw Error("protocol: bad hello version");
  msg.capacity.cores = r.real();
  msg.capacity.memory_bytes = r.real();
  msg.capacity.disk_bytes = r.real();
  if (msg.worker_name.empty()) throw Error("protocol: missing worker name");
  return msg;
}

FileMessage read_file_body(serde::Reader& r) {
  FileMessage msg;
  msg.name = std::string(r.str());
  const uint8_t cacheable = r.u8();
  if (cacheable > 1) throw Error("protocol: bad cacheable byte");
  msg.cacheable = cacheable == 1;
  const serde::BytesView content = r.bytes();
  msg.content.assign(content.begin(), content.end());
  if (msg.name.empty()) throw Error("protocol: missing file name");
  return msg;
}

ControlMessage read_control_body(serde::Reader& r) {
  ControlMessage msg;
  const uint8_t type = r.u8();
  if (type < 1 || type > 3) throw Error("protocol: unknown control type");
  msg.type = static_cast<ControlType>(type);
  msg.nonce = r.varint();
  msg.timestamp = r.real();
  if (r.remaining() > 0) msg.peer_time = r.real();
  return msg;
}

StatsMessage read_stats_body(serde::Reader& r) {
  StatsMessage msg;
  msg.source = std::string(r.str());
  msg.workers = r.svarint();
  msg.pending = r.svarint();
  msg.completed = r.svarint();
  msg.fanout_bytes = r.svarint();
  msg.fanout_files = r.svarint();
  msg.cache_files = r.svarint();
  msg.cache_bytes = r.svarint();
  if (msg.source.empty()) throw Error("protocol: missing stats source");
  return msg;
}

TelemetryMessage read_telemetry_body(serde::Reader& r) {
  TelemetryMessage msg;
  msg.source = std::string(r.str());
  msg.process_id = r.varint();
  msg.clock_offset = r.real();
  msg.dropped = r.svarint();
  const size_t n_events = r.varint();
  msg.events.reserve(std::min<size_t>(n_events, r.remaining()));
  for (size_t i = 0; i < n_events; ++i) {
    obs::TelemetryEvent ev;
    ev.ph = static_cast<char>(r.u8());
    ev.pid = static_cast<uint32_t>(r.varint());
    ev.tid = r.varint();
    ev.trace_id = r.varint();
    ev.ts = r.real();
    ev.dur = r.real();
    ev.name = std::string(r.str());
    ev.cat = std::string(r.str());
    ev.akey0 = std::string(r.str());
    ev.aval0 = r.real();
    ev.akey1 = std::string(r.str());
    ev.aval1 = r.real();
    ev.skey = std::string(r.str());
    ev.sval = std::string(r.str());
    msg.events.push_back(std::move(ev));
  }
  const size_t n_counters = r.varint();
  msg.counters.reserve(std::min<size_t>(n_counters, r.remaining()));
  for (size_t i = 0; i < n_counters; ++i) {
    std::string name(r.str());
    const int64_t value = r.svarint();
    msg.counters.emplace_back(std::move(name), value);
  }
  const size_t n_gauges = r.varint();
  msg.gauges.reserve(std::min<size_t>(n_gauges, r.remaining()));
  for (size_t i = 0; i < n_gauges; ++i) {
    std::string name(r.str());
    const double value = r.real();
    msg.gauges.emplace_back(std::move(name), value);
  }
  if (msg.source.empty()) throw Error("protocol: missing telemetry source");
  return msg;
}

struct Frame {
  uint8_t type = 0;
  serde::Reader body{nullptr, 0};
};

// Validate the frame header and return a reader over exactly the body.
Frame parse_frame(const std::string& wire) {
  serde::Reader r(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
  if (r.u8() != kFrameMagic0 || r.u8() != kFrameMagic1) {
    throw Error("protocol: bad frame magic");
  }
  const uint8_t version = r.u8();
  if (version != kFrameVersion) {
    throw Error("protocol: unsupported wire version " + std::to_string(version));
  }
  Frame frame;
  frame.type = r.u8();
  const uint64_t body_len = r.varint();
  // Reject a hostile/corrupt length prefix against the configured cap BEFORE
  // any comparison that could be read as "keep buffering": a crafted 16-byte
  // header claiming a 2^60-byte body must die here, not OOM a reassembler.
  if (body_len > g_max_frame_body_bytes.load(std::memory_order_relaxed)) {
    throw Error("protocol: frame body length " + std::to_string(body_len) +
                " exceeds limit " +
                std::to_string(g_max_frame_body_bytes.load(std::memory_order_relaxed)));
  }
  if (body_len != r.remaining()) {
    throw Error(body_len > r.remaining() ? "protocol: truncated frame"
                                         : "protocol: trailing garbage after frame");
  }
  frame.body = serde::Reader(
      reinterpret_cast<const uint8_t*>(wire.data()) + r.pos(), r.remaining());
  return frame;
}

// Reader errors come branded "pickle:"; rebrand for protocol consumers
// while passing protocol-originated errors through untouched.
[[noreturn]] void rethrow_as_protocol(const Error& e) {
  const std::string what = e.what();
  if (what.rfind("protocol:", 0) == 0) throw e;
  throw Error("protocol: malformed frame (" + what + ")");
}

template <typename Fn>
auto protocol_guard(Fn&& fn) {
  try {
    return fn();
  } catch (const Error& e) {
    rethrow_as_protocol(e);
  }
}

template <typename Message>
std::string encode_frame(const Message& msg, uint8_t type, size_t body_len,
                         void (*write_body)(const Message&, FrameWriter&)) {
  std::string out;
  out.reserve(frame_size(body_len));
  FrameWriter w(out);
  write_frame_header(w, type, body_len);
  write_body(msg, w);
  count_encoded(out.size(), 1);
  return out;
}

template <typename Message>
std::string encode_batch_frame(const std::vector<Message>& msgs, uint8_t type,
                               size_t (*body_size)(const Message&),
                               void (*write_body)(const Message&, FrameWriter&)) {
  std::vector<size_t> sizes;
  sizes.reserve(msgs.size());
  size_t body_len = serde::varint_size(msgs.size());
  for (const auto& msg : msgs) {
    sizes.push_back(body_size(msg));
    body_len += serde::varint_size(sizes.back()) + sizes.back();
  }
  std::string out;
  out.reserve(frame_size(body_len));
  FrameWriter w(out);
  write_frame_header(w, type, body_len);
  w.varint(msgs.size());
  for (size_t i = 0; i < msgs.size(); ++i) {
    w.varint(sizes[i]);
    write_body(msgs[i], w);
  }
  count_encoded(out.size(), msgs.size());
  return out;
}

// Single-frame decode: header parse, type check, body read, trailing-
// garbage check.
template <typename Message>
Message decode_frame(const std::string& wire, uint8_t type, const char* what,
                     Message (*read_body)(serde::Reader&)) {
  count_decoded(wire.size());
  return protocol_guard([&] {
    Frame frame = parse_frame(wire);
    if (frame.type != type) {
      throw Error(std::string("protocol: expected '") + what + "' message");
    }
    Message msg = read_body(frame.body);
    if (frame.body.remaining() != 0) throw Error("protocol: trailing garbage after frame");
    return msg;
  });
}

// Batch decode; a single-message frame of `single_type` is a batch of one.
template <typename Message>
std::vector<Message> decode_batch_frame(const std::string& wire, uint8_t single_type,
                                        uint8_t batch_type,
                                        Message (*read_body)(serde::Reader&)) {
  count_decoded(wire.size());
  return protocol_guard([&] {
    Frame frame = parse_frame(wire);
    std::vector<Message> out;
    if (frame.type == single_type) {
      out.push_back(read_body(frame.body));
      if (frame.body.remaining() != 0) {
        throw Error("protocol: trailing garbage after frame");
      }
      return out;
    }
    if (frame.type != batch_type) {
      throw Error("protocol: unexpected frame type " + std::to_string(frame.type));
    }
    const uint64_t count = frame.body.varint();
    out.reserve(std::min<size_t>(count, frame.body.remaining()));
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t len = frame.body.varint();
      if (len > frame.body.remaining()) throw Error("protocol: truncated frame");
      // Bound each entry to its own reader: the body readers treat "bytes
      // remain" as "trailing extension present", which must mean bytes of
      // THIS entry, not of the ones that follow it in the batch.
      serde::Reader entry(frame.body.raw(len), len);
      out.push_back(read_body(entry));
      if (entry.remaining() != 0) {
        throw Error("protocol: batch entry length mismatch");
      }
    }
    if (frame.body.remaining() != 0) {
      throw Error("protocol: trailing garbage after frame");
    }
    return out;
  });
}

}  // namespace

bool valid_token(const std::string& token) {
  if (token.empty()) return false;
  for (const char c : token) {
    if (std::isspace(static_cast<unsigned char>(c)) ||
        std::iscntrl(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

std::string encode(const TaskMessage& msg) {
  validate_task_tokens(msg);
  return encode_frame(msg, kFrameTask, task_body_size(msg), write_task_body);
}

std::string encode(const ResultMessage& msg) {
  return encode_frame(msg, kFrameResult, result_body_size(msg), write_result_body);
}

std::string encode(const HelloMessage& msg) {
  if (!valid_token(msg.worker_name)) throw Error("protocol: invalid worker name");
  return encode_frame(msg, kFrameHello, hello_body_size(msg), write_hello_body);
}

std::string encode_file_header(const std::string& name, bool cacheable,
                               size_t content_size) {
  if (!valid_token(name)) throw Error("protocol: invalid file name " + name);
  const size_t body_len =
      str_field_size(name.size()) + 1 + str_field_size(content_size);
  std::string out;
  out.reserve(frame_size(body_len) - content_size);
  FrameWriter w(out);
  write_frame_header(w, kFrameFile, body_len);
  w.str(name);
  w.u8(cacheable ? 1 : 0);
  w.varint(content_size);
  count_encoded(frame_size(body_len), 1);
  return out;
}

std::string encode(const FileMessage& msg) {
  std::string out = encode_file_header(msg.name, msg.cacheable, msg.content.size());
  out.append(reinterpret_cast<const char*>(msg.content.data()), msg.content.size());
  return out;
}

std::string encode(const ControlMessage& msg) {
  return encode_frame(msg, kFrameControl, control_body_size(msg), write_control_body);
}

std::string encode(const StatsMessage& msg) {
  if (!valid_token(msg.source)) throw Error("protocol: invalid stats source");
  return encode_frame(msg, kFrameStats, stats_body_size(msg), write_stats_body);
}

std::string encode(const TelemetryMessage& msg) {
  if (!valid_token(msg.source)) throw Error("protocol: invalid telemetry source");
  return encode_frame(msg, kFrameTelemetry, telemetry_body_size(msg),
                      write_telemetry_body);
}

std::string encode_batch(const std::vector<TaskMessage>& msgs) {
  for (const auto& msg : msgs) validate_task_tokens(msg);
  return encode_batch_frame(msgs, kFrameTaskBatch, task_body_size, write_task_body);
}

std::string encode_batch(const std::vector<ResultMessage>& msgs) {
  return encode_batch_frame(msgs, kFrameResultBatch, result_body_size,
                            write_result_body);
}

TaskMessage decode_task(const std::string& wire) {
  return decode_frame(wire, kFrameTask, "task", read_task_body);
}

ResultMessage decode_result(const std::string& wire) {
  return decode_frame(wire, kFrameResult, "result", read_result_body);
}

HelloMessage decode_hello(const std::string& wire) {
  return decode_frame(wire, kFrameHello, "hello", read_hello_body);
}

FileMessage decode_file(const std::string& wire) {
  return decode_frame(wire, kFrameFile, "put", read_file_body);
}

ControlMessage decode_control(const std::string& wire) {
  return decode_frame(wire, kFrameControl, "control", read_control_body);
}

StatsMessage decode_stats(const std::string& wire) {
  return decode_frame(wire, kFrameStats, "stats", read_stats_body);
}

TelemetryMessage decode_telemetry(const std::string& wire) {
  return decode_frame(wire, kFrameTelemetry, "telemetry", read_telemetry_body);
}

std::vector<TaskMessage> decode_task_batch(const std::string& wire) {
  return decode_batch_frame(wire, kFrameTask, kFrameTaskBatch, read_task_body);
}

std::vector<ResultMessage> decode_result_batch(const std::string& wire) {
  return decode_batch_frame(wire, kFrameResult, kFrameResultBatch, read_result_body);
}

MessageKind classify(const std::string& wire) {
  if (wire.size() < kFrameFixedHeader) throw Error("protocol: truncated frame");
  if (static_cast<uint8_t>(wire[0]) != kFrameMagic0 ||
      static_cast<uint8_t>(wire[1]) != kFrameMagic1 ||
      static_cast<uint8_t>(wire[2]) != kFrameVersion) {
    throw Error("protocol: bad frame magic");
  }
  const uint8_t type = static_cast<uint8_t>(wire[3]);
  switch (type) {
    case kFrameTask: return MessageKind::kTask;
    case kFrameResult: return MessageKind::kResult;
    case kFrameTaskBatch: return MessageKind::kTaskBatch;
    case kFrameResultBatch: return MessageKind::kResultBatch;
    case kFrameHello: return MessageKind::kHello;
    case kFrameFile: return MessageKind::kFile;
    case kFrameControl: return MessageKind::kControl;
    case kFrameStats: return MessageKind::kStats;
    case kFrameTelemetry: return MessageKind::kTelemetry;
  }
  throw Error("protocol: unexpected frame type " + std::to_string(type));
}

size_t max_frame_body_bytes() {
  return g_max_frame_body_bytes.load(std::memory_order_relaxed);
}

void set_max_frame_body_bytes(size_t limit) {
  g_max_frame_body_bytes.store(limit == 0 ? kDefaultMaxFrameBodyBytes : limit,
                               std::memory_order_relaxed);
}

}  // namespace lfm::wq
