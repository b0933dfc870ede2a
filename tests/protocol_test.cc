// Tests for the Work Queue wire protocol codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "wq/protocol.h"

namespace lfm::wq {
namespace {

TaskMessage sample_task() {
  TaskMessage msg;
  msg.task_id = 42;
  msg.category = "hep-analysis";
  msg.command_line = "python lfm_wrapper.py fn.pkl 'arg one' --flag";
  msg.allocation = alloc::Resources{2.0, 1500000000.0, 2000000000.0};
  msg.infiles.push_back({"hep-conda-env.tar.gz", 240000000, true});
  msg.infiles.push_back({"events-00001.root", 500000, false});
  msg.outfiles.push_back("hist-00001.pkl");
  return msg;
}

ResultMessage sample_result() {
  ResultMessage msg;
  msg.task_id = 7;
  msg.exit_code = 0;
  msg.cores_used = 1.85;
  msg.memory_peak_bytes = 88000000;
  msg.disk_peak_bytes = 880000000;
  msg.wall_seconds = 63.25;
  msg.payload = serde::Bytes{0x00, 0xFF, 0x7A, 0x0A, 0x20, 0xF7};
  return msg;
}

TEST(Protocol, TaskRoundtrip) {
  const TaskMessage original = sample_task();
  const TaskMessage back = decode_task(encode(original));
  EXPECT_EQ(back.task_id, 42u);
  EXPECT_EQ(back.category, "hep-analysis");
  EXPECT_EQ(back.command_line, original.command_line);
  EXPECT_DOUBLE_EQ(back.allocation.cores, 2.0);
  EXPECT_DOUBLE_EQ(back.allocation.memory_bytes, 1.5e9);
  ASSERT_EQ(back.infiles.size(), 2u);
  EXPECT_EQ(back.infiles[0].name, "hep-conda-env.tar.gz");
  EXPECT_EQ(back.infiles[0].size_bytes, 240000000);
  EXPECT_TRUE(back.infiles[0].cacheable);
  EXPECT_FALSE(back.infiles[1].cacheable);
  ASSERT_EQ(back.outfiles.size(), 1u);
  EXPECT_EQ(back.outfiles[0], "hist-00001.pkl");

  // Integer fields are exact: 2^53 + 1 is the first integer a double cannot
  // represent, and sizes may be negative.
  constexpr int64_t kBoundary = (int64_t{1} << 53) + 1;
  for (const int64_t size : {kBoundary, int64_t{-5}, INT64_MAX, INT64_MIN}) {
    TaskMessage t = sample_task();
    t.infiles[0].size_bytes = size;
    EXPECT_EQ(decode_task(encode(t)).infiles[0].size_bytes, size);
  }
}

TEST(Protocol, ResultRoundtrip) {
  const ResultMessage msg = sample_result();
  const ResultMessage back = decode_result(encode(msg));
  EXPECT_EQ(back.task_id, 7u);
  EXPECT_EQ(back.exit_code, 0);
  EXPECT_FALSE(back.exhausted);
  EXPECT_DOUBLE_EQ(back.cores_used, 1.85);
  EXPECT_EQ(back.memory_peak_bytes, 88000000);
  EXPECT_DOUBLE_EQ(back.wall_seconds, 63.25);
  EXPECT_EQ(back.payload, msg.payload);

  // Exact integers above the double range, negative peaks, and negative
  // exit codes (-9: killed by SIGKILL).
  constexpr int64_t kBoundary = (int64_t{1} << 53) + 1;
  for (const int64_t peak : {kBoundary, -kBoundary, INT64_MAX, INT64_MIN}) {
    ResultMessage r = sample_result();
    r.memory_peak_bytes = peak;
    r.disk_peak_bytes = peak + (peak < 0 ? 2 : -2);
    const ResultMessage rback = decode_result(encode(r));
    EXPECT_EQ(rback.memory_peak_bytes, r.memory_peak_bytes);
    EXPECT_EQ(rback.disk_peak_bytes, r.disk_peak_bytes);
  }
  for (const int code : {-9, -1, INT32_MIN, INT32_MAX}) {
    ResultMessage r = sample_result();
    r.exit_code = code;
    EXPECT_EQ(decode_result(encode(r)).exit_code, code);
  }
}

TEST(Protocol, ExhaustionReport) {
  ResultMessage msg;
  msg.task_id = 9;
  msg.exit_code = -1;
  msg.exhausted = true;
  msg.exhausted_resource = "memory";
  msg.wall_seconds = 10.0;
  const ResultMessage back = decode_result(encode(msg));
  EXPECT_TRUE(back.exhausted);
  EXPECT_EQ(back.exhausted_resource, "memory");
  EXPECT_EQ(back.exit_code, -1);
}

TEST(Protocol, CommandLineRoundtripsVerbatim) {
  TaskMessage msg = sample_task();
  msg.command_line = "sh -c 'echo 100% done\ttab\nnewline'";
  const TaskMessage back = decode_task(encode(msg));
  EXPECT_EQ(back.command_line, msg.command_line);
}

TEST(Protocol, RejectsInvalidTokens) {
  TaskMessage msg = sample_task();
  msg.category = "has space";
  EXPECT_THROW(encode(msg), Error);
  msg = sample_task();
  msg.infiles[0].name = "bad\nname";
  EXPECT_THROW(encode(msg), Error);
}

TEST(Protocol, TaskBatchRoundtrip) {
  std::vector<TaskMessage> batch;
  for (int i = 0; i < 5; ++i) {
    TaskMessage msg = sample_task();
    msg.task_id = 100 + static_cast<uint64_t>(i);
    msg.command_line = "run step " + std::to_string(i);
    batch.push_back(std::move(msg));
  }
  const std::vector<TaskMessage> back = decode_task_batch(encode_batch(batch));
  ASSERT_EQ(back.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(back[static_cast<size_t>(i)].task_id, 100u + static_cast<uint64_t>(i));
    EXPECT_EQ(back[static_cast<size_t>(i)].command_line, "run step " + std::to_string(i));
  }
}

TEST(Protocol, ResultBatchRoundtrip) {
  std::vector<ResultMessage> batch;
  for (int i = 0; i < 4; ++i) {
    ResultMessage msg = sample_result();
    msg.task_id = 200 + static_cast<uint64_t>(i);
    batch.push_back(std::move(msg));
  }
  const std::vector<ResultMessage> back = decode_result_batch(encode_batch(batch));
  ASSERT_EQ(back.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(back[static_cast<size_t>(i)].task_id, 200u + static_cast<uint64_t>(i));
    EXPECT_EQ(back[static_cast<size_t>(i)].payload, sample_result().payload);
  }
}

TEST(Protocol, SingleMessageDecodesAsBatchOfOne) {
  const std::vector<TaskMessage> back = decode_task_batch(encode(sample_task()));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].task_id, 42u);
}

TEST(Protocol, PayloadTravelsRaw) {
  ResultMessage msg = sample_result();
  msg.payload.assign(4096, 0xAB);  // incompressible-looking raw bytes
  const std::string wire = encode(msg);
  // The payload's bytes appear verbatim; the rest of the frame is a few
  // dozen bytes of header and fields, not a 4/3 text encoding.
  const std::string raw(msg.payload.begin(), msg.payload.end());
  EXPECT_NE(wire.find(raw), std::string::npos);
  EXPECT_LT(wire.size(), msg.payload.size() + 64);
}

TEST(Protocol, RejectsTruncatedFrame) {
  const std::string wire = encode(sample_task());
  for (const size_t keep : {size_t{0}, size_t{1}, size_t{3}, wire.size() / 2,
                            wire.size() - 1}) {
    EXPECT_THROW(decode_task(wire.substr(0, keep)), Error) << "keep=" << keep;
  }
  // Trailing garbage after the frame body is also an error.
  EXPECT_THROW(decode_task(wire + "x"), Error);
}

TEST(Protocol, RejectsWrongMessageKind) {
  EXPECT_THROW(decode_result(encode(sample_task())), Error);
  ResultMessage r;
  r.task_id = 1;
  r.wall_seconds = 1.0;
  EXPECT_THROW(decode_task(encode(r)), Error);
}

TEST(Protocol, ValidTokenRules) {
  EXPECT_TRUE(valid_token("env.tar.gz"));
  EXPECT_TRUE(valid_token("a-b_c.1"));
  EXPECT_FALSE(valid_token(""));
  EXPECT_FALSE(valid_token("a b"));
  EXPECT_FALSE(valid_token("a\tb"));
}

TEST(Protocol, HelloRoundtrip) {
  HelloMessage msg;
  msg.worker_name = "node-17.cluster";
  msg.capacity = alloc::Resources{16.0, 64e9, 500e9};
  const std::string wire = encode(msg);
  EXPECT_EQ(classify(wire), MessageKind::kHello);
  const HelloMessage back = decode_hello(wire);
  EXPECT_EQ(back.worker_name, "node-17.cluster");
  EXPECT_DOUBLE_EQ(back.capacity.cores, 16.0);
  EXPECT_DOUBLE_EQ(back.capacity.memory_bytes, 64e9);

  // The body's version byte (just before the three capacity doubles) is
  // always 2, and a hello carrying any other value is rejected.
  const size_t version_at = wire.size() - 25;
  EXPECT_EQ(wire[version_at], '\x02');
  for (const char other : {'\x00', '\x01', '\x03', '\xFF'}) {
    std::string bad = wire;
    bad[version_at] = other;
    EXPECT_THROW(decode_hello(bad), Error) << "version byte " << int(other);
  }
}

TEST(Protocol, FileRoundtrip) {
  FileMessage msg;
  msg.name = "fn-7.py";
  msg.cacheable = true;
  msg.content = serde::Bytes{0x00, 0x0A, 0xF7, 'e', 'n', 'd', '\n', 0xFF};
  const std::string wire = encode(msg);
  EXPECT_EQ(classify(wire), MessageKind::kFile);
  const FileMessage back = decode_file(wire);
  EXPECT_EQ(back.name, "fn-7.py");
  EXPECT_TRUE(back.cacheable);
  EXPECT_EQ(back.content, msg.content);

  FileMessage empty;
  empty.name = "empty.pkl";
  const FileMessage back2 = decode_file(encode(empty));
  EXPECT_TRUE(back2.content.empty());
  EXPECT_FALSE(back2.cacheable);
}

TEST(Protocol, ControlRoundtrip) {
  for (ControlType type :
       {ControlType::kPing, ControlType::kPong, ControlType::kBye}) {
    ControlMessage msg{type, 12345678901234ull, 1722.034512345};
    const std::string wire = encode(msg);
    EXPECT_EQ(classify(wire), MessageKind::kControl);
    const ControlMessage back = decode_control(wire);
    EXPECT_EQ(back.type, type);
    EXPECT_EQ(back.nonce, 12345678901234ull);
    EXPECT_DOUBLE_EQ(back.timestamp, 1722.034512345);
  }
}

TEST(Protocol, StatsRoundtrip) {
  StatsMessage msg;
  msg.source = "foreman-3";
  msg.workers = 12;
  msg.pending = 345;
  msg.completed = 678901;
  msg.fanout_bytes = 9876543210;
  msg.fanout_files = 4321;
  msg.cache_files = 512;
  msg.cache_bytes = 1073741824;
  const std::string wire = encode(msg);
  EXPECT_EQ(classify(wire), MessageKind::kStats);
  const StatsMessage back = decode_stats(wire);
  EXPECT_EQ(back.source, "foreman-3");
  EXPECT_EQ(back.workers, 12);
  EXPECT_EQ(back.pending, 345);
  EXPECT_EQ(back.completed, 678901);
  EXPECT_EQ(back.fanout_bytes, 9876543210);
  EXPECT_EQ(back.fanout_files, 4321);
  EXPECT_EQ(back.cache_files, 512);
  EXPECT_EQ(back.cache_bytes, 1073741824);

  // Default-valued telemetry still names its source; an empty source is
  // rejected (it would make the root's per-shard bookkeeping ambiguous).
  StatsMessage minimal;
  minimal.source = "f";
  const StatsMessage back2 = decode_stats(encode(minimal));
  EXPECT_EQ(back2.source, "f");
  EXPECT_EQ(back2.workers, 0);
  StatsMessage anonymous;
  EXPECT_THROW(decode_stats(encode(anonymous)), Error);
}

TEST(Protocol, ClassifyDistinguishesEveryKind) {
  EXPECT_EQ(classify(encode(sample_task())), MessageKind::kTask);
  EXPECT_EQ(classify(encode(sample_result())), MessageKind::kResult);
  EXPECT_EQ(classify(encode(HelloMessage{"w", {}})), MessageKind::kHello);
  EXPECT_EQ(classify(encode(FileMessage{"f", false, {}})), MessageKind::kFile);
  EXPECT_EQ(classify(encode(ControlMessage{})), MessageKind::kControl);
  EXPECT_EQ(classify(encode(StatsMessage{"f", 1, 0, 0, 0, 0, 0, 0})),
            MessageKind::kStats);
  EXPECT_EQ(classify(encode(TelemetryMessage{"t", 1, 0.0, 0, {}, {}, {}})),
            MessageKind::kTelemetry);
  EXPECT_EQ(classify(encode_batch(std::vector<TaskMessage>{sample_task(),
                                                           sample_task()})),
            MessageKind::kTaskBatch);
  EXPECT_EQ(classify(encode_batch(std::vector<ResultMessage>{sample_result(),
                                                             sample_result()})),
            MessageKind::kResultBatch);
  EXPECT_THROW(classify(""), Error);
  EXPECT_THROW(classify("bogus 1 2\nend\n"), Error);
  EXPECT_THROW(classify(std::string("\xF7Q\x01\x01\x00", 5)), Error);
  // An unknown type byte is reported as the byte's value, not sign-extended.
  try {
    classify(std::string("\xF7Q\x02\xF0\x00", 5));
    FAIL() << "type 0xF0 classified";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected frame type 240"),
              std::string::npos)
        << e.what();
  }
}

// --- distributed tracing extensions ------------------------------------------

TEST(Protocol, TraceIdRoundTripsOnTaskAndResult) {
  TaskMessage t = sample_task();
  t.trace_id = 0xDEADBEEFCAFE1234ull;
  t.parent_span = 77;
  const TaskMessage tback = decode_task(encode(t));
  EXPECT_EQ(tback.trace_id, 0xDEADBEEFCAFE1234ull);
  EXPECT_EQ(tback.parent_span, 77u);

  ResultMessage r = sample_result();
  r.trace_id = 0xDEADBEEFCAFE1234ull;
  const ResultMessage rback = decode_result(encode(r));
  EXPECT_EQ(rback.trace_id, 0xDEADBEEFCAFE1234ull);
}

TEST(Protocol, UntracedFramesCarryNoExtensionBytes) {
  // trace_id == 0 must leave the encoding byte-identical to a codec that
  // never heard of tracing: the extension is trailing and conditional.
  TaskMessage t = sample_task();
  const std::string before = encode(t);
  t.trace_id = 0;
  t.parent_span = 0;
  EXPECT_EQ(encode(t), before);
  t.trace_id = 5;
  EXPECT_GT(encode(t).size(), before.size());
  // Decoding the untraced frame leaves the fields defaulted.
  const TaskMessage back = decode_task(before);
  EXPECT_EQ(back.trace_id, 0u);
  EXPECT_EQ(back.parent_span, 0u);
}

TEST(Protocol, TracedBatchEntriesStayBounded) {
  // The regression this guards: per-entry extension reads must not consume
  // the next entry's bytes in a batch frame. Mix traced and untraced.
  std::vector<TaskMessage> tasks{sample_task(), sample_task(), sample_task()};
  tasks[0].trace_id = 1111;
  tasks[2].trace_id = 3333;
  tasks[2].parent_span = 4;
  const std::vector<TaskMessage> back =
      decode_task_batch(encode_batch(tasks));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].trace_id, 1111u);
  EXPECT_EQ(back[1].trace_id, 0u);
  EXPECT_EQ(back[2].trace_id, 3333u);
  EXPECT_EQ(back[2].parent_span, 4u);

  std::vector<ResultMessage> results{sample_result(), sample_result()};
  results[1].trace_id = 2222;
  const std::vector<ResultMessage> rback =
      decode_result_batch(encode_batch(results));
  ASSERT_EQ(rback.size(), 2u);
  EXPECT_EQ(rback[0].trace_id, 0u);
  EXPECT_EQ(rback[1].trace_id, 2222u);
}

TEST(Protocol, MaxWidthTraceExtensionsRoundtrip) {
  // The encoders reserve each body's exact size; a wrong size for the
  // trace extensions would misframe the body and fail the decode.
  TaskMessage t = sample_task();
  t.trace_id = 0xFFFFFFFFFFFFFFFFull;  // max-width varint
  t.parent_span = 1;
  const TaskMessage tback = decode_task(encode(t));
  EXPECT_EQ(tback.trace_id, t.trace_id);
  EXPECT_EQ(tback.parent_span, 1u);
  ResultMessage r = sample_result();
  r.trace_id = 300;
  EXPECT_EQ(decode_result(encode(r)).trace_id, 300u);
}

TEST(Protocol, ControlPeerTimeRoundtrip) {
  ControlMessage ping{ControlType::kPong, 42, 1234.5};
  ping.peer_time = 987.654321;
  const ControlMessage back = decode_control(encode(ping));
  EXPECT_DOUBLE_EQ(back.peer_time, 987.654321);
  // Absent field decodes as zero — and adds no bytes to the frame.
  ControlMessage plain{ControlType::kPong, 42, 1234.5};
  const std::string wire = encode(plain);
  EXPECT_LT(wire.size(), encode(ping).size());
  EXPECT_DOUBLE_EQ(decode_control(wire).peer_time, 0.0);
}

TEST(Protocol, TelemetryRoundtrip) {
  TelemetryMessage msg;
  msg.source = "worker-3";
  msg.process_id = 4242;
  msg.clock_offset = -0.125;
  msg.dropped = 17;
  obs::TelemetryEvent ev;
  ev.ph = 'X';
  ev.pid = 2;
  ev.tid = 99;
  ev.trace_id = 0xABCDEF0123456789ull;
  ev.ts = 12.5;
  ev.dur = 0.25;
  ev.name = "lfm.run";
  ev.cat = "worker";
  ev.akey0 = "rss_mb";
  ev.aval0 = 88.0;
  ev.skey = "outcome";
  ev.sval = "success";
  msg.events.push_back(ev);
  obs::TelemetryEvent instant;
  instant.ph = 'i';
  instant.name = "net.dispatch";
  instant.cat = "net";
  msg.events.push_back(instant);
  msg.counters.push_back({"net.results", 12});
  msg.gauges.push_back({"net.write_queue_bytes", 4096.0});

  const std::string wire = encode(msg);
  EXPECT_EQ(classify(wire), MessageKind::kTelemetry);
  const TelemetryMessage back = decode_telemetry(wire);
  EXPECT_EQ(back.source, "worker-3");
  EXPECT_EQ(back.process_id, 4242u);
  EXPECT_DOUBLE_EQ(back.clock_offset, -0.125);
  EXPECT_EQ(back.dropped, 17);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[0].ph, 'X');
  EXPECT_EQ(back.events[0].trace_id, 0xABCDEF0123456789ull);
  EXPECT_DOUBLE_EQ(back.events[0].ts, 12.5);
  EXPECT_DOUBLE_EQ(back.events[0].dur, 0.25);
  EXPECT_EQ(back.events[0].name, "lfm.run");
  EXPECT_EQ(back.events[0].akey0, "rss_mb");
  EXPECT_DOUBLE_EQ(back.events[0].aval0, 88.0);
  EXPECT_EQ(back.events[0].skey, "outcome");
  EXPECT_EQ(back.events[0].sval, "success");
  EXPECT_EQ(back.events[1].ph, 'i');
  EXPECT_EQ(back.events[1].name, "net.dispatch");
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].first, "net.results");
  EXPECT_EQ(back.counters[0].second, 12);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(back.gauges[0].second, 4096.0);

  TelemetryMessage bad;  // empty source fails validation
  EXPECT_THROW(encode(bad), Error);
}

TEST(Protocol, OversizedFrameLengthRejectedBeforeAllocation) {
  // A hostile header claiming a body far past the cap: magic, version, type,
  // then a varint length of ~2^62 bytes. The decoder must reject it from the
  // header alone — it cannot wait for (or try to buffer) the claimed body.
  const std::string wire{'\xF7', 'Q', 2, 1,
                         '\xFF', '\xFF', '\xFF', '\xFF', '\xFF',
                         '\xFF', '\xFF', '\xFF', '\x3F'};
  EXPECT_THROW(decode_task(wire), Error);
  try {
    decode_task(wire);
    FAIL() << "oversized frame accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

TEST(Protocol, FrameBodyLimitIsConfigurable) {
  EXPECT_EQ(max_frame_body_bytes(), kDefaultMaxFrameBodyBytes);
  set_max_frame_body_bytes(256);
  FileMessage big;
  big.name = "blob";
  big.content.assign(1024, 0xAB);
  const std::string wire = encode(big);
  EXPECT_THROW(decode_file(wire), Error);
  // Raising the limit back admits the same bytes.
  set_max_frame_body_bytes(0);  // 0 restores the default
  EXPECT_EQ(max_frame_body_bytes(), kDefaultMaxFrameBodyBytes);
  const FileMessage back = decode_file(wire);
  EXPECT_EQ(back.content.size(), 1024u);
}

// One frame of every kind, batch frames included, with the optional
// fields both present and absent.
std::vector<std::pair<std::string, std::string>> every_frame_kind() {
  std::vector<std::pair<std::string, std::string>> frames;
  TaskMessage traced = sample_task();
  traced.trace_id = 0xFFFFFFFFFFFFFFFFull;
  traced.parent_span = 77;
  frames.emplace_back("task", encode(sample_task()));
  frames.emplace_back("task traced", encode(traced));
  ResultMessage exhausted = sample_result();
  exhausted.exit_code = -9;
  exhausted.exhausted = true;
  exhausted.exhausted_resource = "memory";
  exhausted.payload.clear();
  exhausted.trace_id = 300;
  ResultMessage big = sample_result();
  big.payload.assign(300, 0xAB);
  frames.emplace_back("result", encode(sample_result()));
  frames.emplace_back("result exhausted traced", encode(exhausted));
  frames.emplace_back("result 300-byte payload", encode(big));
  frames.emplace_back("hello", encode(HelloMessage{"node-17", {16.0, 64e9, 500e9}}));
  FileMessage file;
  file.name = "env.tar.gz";
  file.cacheable = true;
  file.content.assign(200, 0x5A);
  frames.emplace_back("file", encode(file));
  frames.emplace_back("ping", encode(ControlMessage{ControlType::kPing, 300, 12.5}));
  ControlMessage pong{ControlType::kPong, 300, 12.5};
  pong.peer_time = 99.25;
  frames.emplace_back("pong", encode(pong));
  frames.emplace_back("bye", encode(ControlMessage{ControlType::kBye, 0, 3.0}));
  StatsMessage stats;
  stats.source = "foreman-1";
  stats.workers = 4;
  stats.pending = -1;
  stats.completed = 1 << 20;
  stats.fanout_bytes = INT64_MAX;
  stats.fanout_files = 3;
  stats.cache_files = 2;
  stats.cache_bytes = 4096;
  frames.emplace_back("stats", encode(stats));
  TelemetryMessage telemetry;
  telemetry.source = "worker-3";
  telemetry.process_id = 4242;
  telemetry.clock_offset = -0.0125;
  telemetry.dropped = 5;
  obs::TelemetryEvent span;
  span.ph = 'X';
  span.pid = 2;
  span.tid = 300;
  span.trace_id = 0xFEEDull;
  span.ts = 1.5;
  span.dur = 0.25;
  span.name = "lfm.run";
  span.cat = "lfm";
  span.akey0 = "rss";
  span.aval0 = 1e6;
  span.akey1 = "cores";
  span.aval1 = 0.5;
  span.skey = "fn";
  span.sval = "mix";
  obs::TelemetryEvent instant;
  instant.name = "bye";
  telemetry.events = {span, instant};
  telemetry.counters = {{"tasks", 12}, {"drops", -3}};
  telemetry.gauges = {{"rss_mb", 4.5}};
  frames.emplace_back("telemetry", encode(telemetry));
  std::vector<TaskMessage> tasks{sample_task(), traced, sample_task()};
  tasks[2].task_id = 1u << 20;
  frames.emplace_back("task batch", encode_batch(tasks));
  frames.emplace_back("result batch",
                      encode_batch(std::vector<ResultMessage>{sample_result(), exhausted, big}));
  return frames;
}

TEST(Protocol, EveryFrameKindEncodesToTheRecordedBytes) {
  // Digests (hash64) of each frame's bytes, recorded from the encoders as
  // they stood before the frames were written through serde::Writer. Any
  // change to any frame's bytes changes its digest.
  const std::vector<std::pair<std::string, uint64_t>> recorded = {
      {"task", 0x2388aeb489b39914ull},
      {"task traced", 0xbfc603e397e42d5aull},
      {"result", 0x71f200170d11ced8ull},
      {"result exhausted traced", 0x3e20e950ecc8ba97ull},
      {"result 300-byte payload", 0xc053dbf1d15531f0ull},
      {"hello", 0xcf71a9ad5fcdacf6ull},
      {"file", 0xa2e1daae3c1bebbdull},
      {"ping", 0x67a9b405e85d507aull},
      {"pong", 0x10b3a78f1fcebef0ull},
      {"bye", 0x2d7d8af6728befbaull},
      {"stats", 0x812f41d8966e5a6full},
      {"telemetry", 0x1d224ba007676684ull},
      {"task batch", 0xbe5ea995d7a4711dull},
      {"result batch", 0x8748157a688858c4ull},
  };
  const auto frames = every_frame_kind();
  ASSERT_EQ(frames.size(), recorded.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].first, recorded[i].first);
    EXPECT_EQ(hash64(frames[i].second), recorded[i].second)
        << frames[i].first << ": 0x" << std::hex << hash64(frames[i].second);
  }
}

}  // namespace
}  // namespace lfm::wq
