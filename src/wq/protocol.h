// Work Queue wire protocol: the messages exchanged between master and
// workers, carrying what §III.A describes — a Unix command line, explicit
// input and output files, and the resource allocation — plus the worker's
// result report with measured usage for the labeler.
//
// One wire format: length-prefixed binary frames. Each frame opens with the
// header 0xF7 'Q' 0x02 <type> and a varint body length; fields are varints
// and raw payload bytes, reusing the serde wire primitives.
// A batch frame packs many task dispatches or result returns into one
// network message, which is how the master amortizes per-message cost when
// draining its ready queue per worker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/resources.h"
#include "obs/collector.h"
#include "serde/value.h"
#include "util/error.h"

namespace lfm::wq {

// --- decode-side hardening ---------------------------------------------------
// Upper bound on a single frame's body accepted by the decode paths and by
// the net layer's incremental reassembler. A hostile or corrupt varint
// length prefix is rejected against this limit *before* any buffering or
// allocation happens, so a 16-byte crafted header cannot make a decoder
// reserve gigabytes. Process-wide; the default (64 MiB) is
// far above any legitimate message. Encoders are not checked — a peer that
// encodes above the receiver's limit simply gets its frame rejected.
size_t max_frame_body_bytes();
void set_max_frame_body_bytes(size_t limit);
inline constexpr size_t kDefaultMaxFrameBodyBytes = 64ull << 20;

// Every frame opens with the prefix 0xF7 'Q' 0x02 and one type byte; the
// body length (a varint) and the body follow.
inline constexpr uint8_t kFrameMagic0 = 0xF7;
inline constexpr uint8_t kFrameMagic1 = 'Q';
inline constexpr uint8_t kFrameVersion = 2;
inline constexpr size_t kFrameFixedHeader = 4;

// Master -> worker: run this task.
struct TaskMessage {
  uint64_t task_id = 0;
  std::string category;
  std::string command_line;  // e.g. "python lfm_wrapper.py fn.pkl args.pkl"
  alloc::Resources allocation;
  struct FileStanza {
    std::string name;
    int64_t size_bytes = 0;
    bool cacheable = false;
  };
  std::vector<FileStanza> infiles;
  std::vector<std::string> outfiles;
  // Distributed-trace context, minted once at the root when the task is
  // submitted and carried to whichever process ultimately runs it. Zero
  // means "untraced": frames only append these as trailing extension
  // fields when trace_id != 0, so default-constructed messages stay
  // byte-identical to the pre-extension encoding.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

// Worker -> master: the attempt finished.
struct ResultMessage {
  uint64_t task_id = 0;
  int exit_code = 0;
  bool exhausted = false;
  std::string exhausted_resource;
  // Measured peaks, for the labeler.
  double cores_used = 0.0;
  int64_t memory_peak_bytes = 0;
  int64_t disk_peak_bytes = 0;
  double wall_seconds = 0.0;
  // Pickled function result (Python-function tasks), as raw length-prefixed
  // bytes.
  serde::Bytes payload;
  // Echo of the task's trace id (same trailing-extension rules as
  // TaskMessage: absent on the wire when zero).
  uint64_t trace_id = 0;
};

// --- transport control messages (src/net/) ----------------------------------
// Worker -> master, first message on a fresh connection: who is connecting
// and what it offers. The body keeps a version byte, always 2; a hello
// carrying any other value is rejected.
struct HelloMessage {
  std::string worker_name;
  alloc::Resources capacity;  // what the worker node offers
};

// Master -> worker: stage an input file into the worker's transferable-file
// cache before the task that names it (real Work Queue's "put"). TCP
// ordering guarantees the file lands before the task on the same connection.
struct FileMessage {
  std::string name;
  bool cacheable = false;
  serde::Bytes content;
};

// Connection-keepalive and shutdown control. Pings carry the sender's clock;
// the peer echoes the body back as a pong, giving the sender an RTT sample.
// Bye tells a worker the run is over: drain, don't reconnect.
enum class ControlType : uint8_t { kPing = 1, kPong = 2, kBye = 3 };
struct ControlMessage {
  ControlType type = ControlType::kPing;
  uint64_t nonce = 0;
  double timestamp = 0.0;  // sender's clock seconds, echoed in the pong
  // Pong only: the responder's own clock at the moment it replied. The
  // pinger combines (timestamp, peer_time, receipt time) into a midpoint
  // clock-offset sample (obs::ClockOffsetEstimator). Trailing extension:
  // absent on the wire when zero, so pre-extension peers interoperate.
  double peer_time = 0.0;
};

// Foreman -> root (src/fed/): periodic shard telemetry, aggregated upward so
// the root sees the whole tree's health without polling every worker. Also
// doubles as link activity for the root's idle bookkeeping.
struct StatsMessage {
  std::string source;             // foreman name
  int64_t workers = 0;            // live worker connections on this shard
  int64_t pending = 0;            // tasks queued or in flight locally
  int64_t completed = 0;          // results relayed upward so far
  int64_t fanout_bytes = 0;       // bytes this shard sent to its workers
  int64_t fanout_files = 0;       // file stanzas staged to workers
  int64_t cache_files = 0;        // files the foreman holds
  int64_t cache_bytes = 0;        // their bytes
};

// Any process -> its upstream (worker -> foreman -> root): a batch of trace
// events plus metric snapshots, shipped on the result/stats cadence so the
// root's obs::Collector can merge the whole tree into one timeline.
// `clock_offset` is the cumulative sender-clock-
// minus-receiver-clock estimate accumulated across relay hops; `dropped`
// counts events the sender discarded under backpressure.
struct TelemetryMessage {
  std::string source;      // process name (worker/foreman), a valid_token
  uint64_t process_id = 0; // OS pid of the originating process
  double clock_offset = 0.0;
  int64_t dropped = 0;
  std::vector<obs::TelemetryEvent> events;
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};

// What kind of message a wire string holds, decided from the frame type
// byte without decoding the body — the net layer's inbound demux. Throws on
// a bad header or an unknown type.
enum class MessageKind {
  kTask,
  kResult,
  kTaskBatch,
  kResultBatch,
  kHello,
  kFile,
  kControl,
  kStats,
  kTelemetry,
};
MessageKind classify(const std::string& wire);

// Serialize one message as one frame.
std::string encode(const TaskMessage& msg);
std::string encode(const ResultMessage& msg);
std::string encode(const HelloMessage& msg);
std::string encode(const FileMessage& msg);
std::string encode(const ControlMessage& msg);
std::string encode(const StatsMessage& msg);
std::string encode(const TelemetryMessage& msg);

// A file frame's header: every byte before the content. It and the
// `content_size` content bytes that follow it make up exactly
// encode(FileMessage{name, cacheable, content}), so a sender holding the
// content in a shared buffer sends the two parts without joining them
// (net::Connection::send(head, payload)).
std::string encode_file_header(const std::string& name, bool cacheable,
                               size_t content_size);

// Serialize many messages into one batch frame (one network send).
std::string encode_batch(const std::vector<TaskMessage>& msgs);
std::string encode_batch(const std::vector<ResultMessage>& msgs);

// Parse; throws lfm::Error with the offending input on malformed bytes.
TaskMessage decode_task(const std::string& wire);
ResultMessage decode_result(const std::string& wire);
HelloMessage decode_hello(const std::string& wire);
FileMessage decode_file(const std::string& wire);
ControlMessage decode_control(const std::string& wire);
StatsMessage decode_stats(const std::string& wire);
TelemetryMessage decode_telemetry(const std::string& wire);

// Parse a batch frame. A single-message frame decodes as a batch of one.
std::vector<TaskMessage> decode_task_batch(const std::string& wire);
std::vector<ResultMessage> decode_result_batch(const std::string& wire);

// Names on the wire (files, categories, peers, sources) are non-empty and
// free of whitespace and control characters.
bool valid_token(const std::string& token);

}  // namespace lfm::wq
