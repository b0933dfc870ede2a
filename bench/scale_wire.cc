// Wire protocol throughput: single frames vs batch frames, for the two
// message shapes the data plane carries — task dispatches (many small
// fields) and payload-bearing results (the pickled function return travels
// as raw bytes).
//
// Prints a throughput/bytes table and, with --json, writes the same rows
// machine-readably (BENCH_wire.json in CI). With --check, exits nonzero
// unless every row's bytes/msg equals the recorded table (kExpectedBytes)
// and result/v2+batch round-trips at least kMinResultBatchRate msgs/s.
// --check runs at the default count, the one the byte table was recorded
// at.
//
// Usage:
//   scale_wire                        # default: 20000 messages per mode
//   scale_wire N                      # explicit message count
//   scale_wire --json BENCH_wire.json --check 20000
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "serde/pickle.h"
#include "wq/protocol.h"

namespace {

using namespace lfm;

constexpr size_t kBatch = 128;        // messages per batch frame
constexpr size_t kPayloadItems = 64;  // entries in the pickled result dict
constexpr size_t kDefaultCount = 20000;

// --check gates. The encoding is deterministic, so at kDefaultCount each
// row's bytes/msg (in row order: task/v2, task/v2+batch, result/v2,
// result/v2+batch) must equal the value BENCH_wire.json has carried since
// the v2 frame format was introduced.
constexpr double kExpectedBytes[] = {159.9, 156.0, 1166.2, 1162.2};
// Half the result/v2+batch rate committed to BENCH_wire.json before the v1
// text codec was retired (1,452,602 msgs/s). It replaces ">= 5x the v1 row
// on the same run", which allowed ~645k msgs/s at the committed numbers.
constexpr double kMinResultBatchRate = 726000.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A realistic function result: a pickled dict of scalars and a bytes blob,
// ~1 KB on the wire — the shape the funcX-style Python tasks return.
serde::Bytes make_payload(std::mt19937_64& rng) {
  serde::ValueDict d;
  serde::ValueList samples;
  for (size_t i = 0; i < kPayloadItems; ++i) {
    samples.push_back(serde::Value(static_cast<double>(rng() % 100000) / 100.0));
  }
  d["samples"] = serde::Value(std::move(samples));
  serde::Bytes blob(512);
  for (auto& b : blob) b = static_cast<uint8_t>(rng());
  d["blob"] = serde::Value(std::move(blob));
  d["status"] = serde::Value(std::string("ok"));
  d["n"] = serde::Value(static_cast<int64_t>(kPayloadItems));
  return serde::dumps(serde::Value(std::move(d)));
}

std::vector<wq::TaskMessage> make_tasks(size_t count) {
  std::vector<wq::TaskMessage> tasks;
  tasks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    wq::TaskMessage msg;
    msg.task_id = i + 1;
    msg.category = "hep-analysis";
    msg.command_line = "python lfm_wrapper.py fn.pkl args.pkl --out hist.pkl";
    msg.allocation = alloc::Resources{2.0, 1.5e9, 2.0e9};
    msg.infiles.push_back({"hep-conda-env.tar.gz", 240000000, true});
    msg.infiles.push_back({"events-" + std::to_string(i % 997) + ".root",
                           static_cast<int64_t>(500000 + i % 4096), false});
    msg.outfiles.push_back("hist-" + std::to_string(i % 997) + ".pkl");
    tasks.push_back(std::move(msg));
  }
  return tasks;
}

std::vector<wq::ResultMessage> make_results(size_t count) {
  std::mt19937_64 rng(0xBEEF);
  const serde::Bytes payload = make_payload(rng);
  std::vector<wq::ResultMessage> results;
  results.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    wq::ResultMessage msg;
    msg.task_id = i + 1;
    msg.exit_code = 0;
    msg.cores_used = 1.85;
    msg.memory_peak_bytes = 88000000 + static_cast<int64_t>(i % 8192);
    msg.disk_peak_bytes = 880000000;
    msg.wall_seconds = 63.25;
    msg.payload = payload;
    results.push_back(std::move(msg));
  }
  return results;
}

struct Row {
  std::string mode;
  double msgs_per_sec = 0.0;
  double bytes_per_msg = 0.0;
};

// Encode + decode every message (round trip, as the master/worker pair pays
// it); returns per-message throughput and wire bytes.
template <typename Msg, typename Decode>
Row run_single(const char* mode, const std::vector<Msg>& msgs, Decode decode) {
  size_t bytes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& msg : msgs) {
    const std::string wire = wq::encode(msg);
    bytes += wire.size();
    (void)decode(wire);
  }
  const double dt = seconds_since(t0);
  return {mode, static_cast<double>(msgs.size()) / dt,
          static_cast<double>(bytes) / static_cast<double>(msgs.size())};
}

template <typename Msg, typename DecodeBatch>
Row run_batched(const char* mode, const std::vector<Msg>& msgs,
                DecodeBatch decode_batch) {
  // Partition outside the timed region: the master drains its ready queue
  // into per-worker vectors anyway, so batch assembly is not wire cost.
  std::vector<std::vector<Msg>> batches;
  for (size_t start = 0; start < msgs.size(); start += kBatch) {
    const size_t end = std::min(msgs.size(), start + kBatch);
    batches.emplace_back(msgs.begin() + static_cast<long>(start),
                         msgs.begin() + static_cast<long>(end));
  }
  size_t bytes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& batch : batches) {
    const std::string wire = wq::encode_batch(batch);
    bytes += wire.size();
    (void)decode_batch(wire);
  }
  const double dt = seconds_since(t0);
  return {mode, static_cast<double>(msgs.size()) / dt,
          static_cast<double>(bytes) / static_cast<double>(msgs.size())};
}

void print_row(const Row& row) {
  std::printf("%-24s %14.0f %14.1f\n", row.mode.c_str(), row.msgs_per_sec,
              row.bytes_per_msg);
}

void write_json(const char* path, size_t count, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "scale_wire: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"scale_wire\",\n");
  std::fprintf(f, "  \"messages_per_mode\": %zu,\n", count);
  std::fprintf(f, "  \"batch_size\": %zu,\n", kBatch);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"msgs_per_sec\": %.0f, "
                 "\"bytes_per_msg\": %.1f}%s\n",
                 rows[i].mode.c_str(), rows[i].msgs_per_sec, rows[i].bytes_per_msg,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  size_t count = kDefaultCount;
  const char* json_path = nullptr;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      count = static_cast<size_t>(std::strtoull(argv[i], nullptr, 10));
    }
  }
  if (count == 0) count = kDefaultCount;
  if (check && count != kDefaultCount) {
    std::fprintf(stderr, "scale_wire: --check runs at %zu messages per mode\n",
                 kDefaultCount);
    return 2;
  }

  const std::vector<wq::TaskMessage> tasks = make_tasks(count);
  const std::vector<wq::ResultMessage> results = make_results(count);

  const auto decode_task = [](const std::string& w) { return wq::decode_task(w); };
  const auto decode_result = [](const std::string& w) {
    return wq::decode_result(w);
  };
  const auto decode_task_batch = [](const std::string& w) {
    return wq::decode_task_batch(w);
  };
  const auto decode_result_batch = [](const std::string& w) {
    return wq::decode_result_batch(w);
  };

  std::vector<Row> rows;
  rows.push_back(run_single("task/v2", tasks, decode_task));
  rows.push_back(run_batched("task/v2+batch", tasks, decode_task_batch));
  rows.push_back(run_single("result/v2", results, decode_result));
  rows.push_back(run_batched("result/v2+batch", results, decode_result_batch));

  std::printf("wire protocol round-trip throughput (%zu messages per mode, "
              "batch=%zu)\n",
              count, kBatch);
  std::printf("%-24s %14s %14s\n", "mode", "msgs/sec", "bytes/msg");
  for (const auto& row : rows) print_row(row);

  if (json_path) write_json(json_path, count, rows);

  if (check) {
    bool ok = true;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (std::lround(rows[i].bytes_per_msg * 10) != std::lround(kExpectedBytes[i] * 10)) {
        std::fprintf(stderr, "FAIL: %s %.1f bytes/msg, expected %.1f\n",
                     rows[i].mode.c_str(), rows[i].bytes_per_msg, kExpectedBytes[i]);
        ok = false;
      }
    }
    const Row& batched_result = rows.back();
    if (batched_result.msgs_per_sec < kMinResultBatchRate) {
      std::fprintf(stderr, "FAIL: %s %.0f msgs/s < %.0f\n",
                   batched_result.mode.c_str(), batched_result.msgs_per_sec,
                   kMinResultBatchRate);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("check passed: bytes/msg as recorded, %s >= %.0f msgs/s\n",
                batched_result.mode.c_str(), kMinResultBatchRate);
  }
  return 0;
}
