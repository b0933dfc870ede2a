#include "layers.h"

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/journal.h"
#include "monitor/lfm.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/socket.h"
#include "obs/recorder.h"
#include "pkg/chunk.h"
#include "pysrc/interp.h"
#include "pysrc/parse_cache.h"
#include "serde/pickle.h"
#include "util/error.h"

namespace lfmbench {

using namespace lfm;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// Times repeated calls, records each timed repetition as a span, and adds
// the resulting metrics to a report.
class Prober {
 public:
  explicit Prober(Report& report) : report_(report) {}

  // Adds `metric` = `scale` x the median over `reps` repetitions of seconds
  // per operation, where one call of `fn` performs `ops` operations and
  // each repetition repeats the call for at least `rep_s` seconds.
  template <class F>
  void per_op(const char* metric, const char* unit, double scale,
              const char* span, F&& fn, double ops, int reps = 7,
              double rep_s = 0.02) {
    report_.add(metric, scale * per_op_s(span, fn, ops, reps, rep_s), unit,
                static_cast<size_t>(reps));
  }

  // Per-call seconds of each single call, one span per call.
  template <class F>
  std::vector<double> each_s(const char* span, F&& fn, size_t calls) {
    obs::Recorder& rec = obs::Recorder::global();
    std::vector<double> v;
    for (size_t i = 0; i < calls; ++i) {
      const double ts = rec.now();
      const double t0 = now_s();
      fn(i);
      const double dt = now_s() - t0;
      rec.complete(obs::kPidHost, kLane, ts, dt, span, "perfbench");
      v.push_back(dt);
    }
    return v;
  }

  Report& report() { return report_; }

 private:
  static constexpr uint64_t kLane = 0xBE7C;  // trace lane of the probe spans

  template <class F>
  double per_op_s(const char* span, F&& fn, double ops, int reps,
                  double rep_s) {
    obs::Recorder& rec = obs::Recorder::global();
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
      const double ts = rec.now();
      const double t0 = now_s();
      size_t calls = 0;
      double t = t0;
      do {
        fn();
        ++calls;
        t = now_s();
      } while (t - t0 < rep_s);
      rec.complete(obs::kPidHost, kLane, ts, t - t0, span, "perfbench");
      v.push_back((t - t0) / (static_cast<double>(calls) * ops));
    }
    return median(v);
  }

  Report& report_;
};

// The workload's own messages: one group's tasks, their staged files and
// their results, plus the values its payloads carry.
struct Sample {
  std::vector<wq::TaskMessage> tasks;
  wq::FileSet files;
  std::vector<wq::ResultMessage> results;
  std::vector<serde::Bytes> pickles;  // serde probe inputs
};

Sample sample_for(const Workload& w,
                  const std::vector<pkg::PackedEnvironment>& packs) {
  Sample s;
  const Shape& shape = w.shape();
  wq::LocalWorkerOptions options;
  options.poll_interval = 0.001;
  wq::LocalWorker local(options);
  for (size_t i = 0; i < shape.group_size; ++i) {
    const uint64_t id = i + 1;
    wq::ResultMessage res;
    res.task_id = id;
    switch (shape.kind) {
      case Kind::kEchoBurst:
        s.tasks.push_back(echo_task(id, shape.name));
        res.payload = w.payload();
        break;
      case Kind::kPyShort: {
        auto [task, files] = py_task(w.seed(), id);
        res = local.execute(task, files);
        s.pickles.push_back(files.at(task.infiles.at(1).name));  // the args
        s.tasks.push_back(std::move(task));
        for (auto& [name, bytes] : files) s.files.emplace(name, std::move(bytes));
        break;
      }
      case Kind::kEnvShip: {
        const size_t e = zipf_env(w.seed(), 0, packs.size());
        wq::TaskMessage t = echo_task(id, shape.name);
        t.infiles.push_back({env_file_name(e),
                             static_cast<int64_t>(packs[e].tar->size()), true});
        s.tasks.push_back(std::move(t));
        s.files.emplace(env_file_name(e), *packs[e].tar);
        res.payload = w.payload();
        break;
      }
    }
    s.pickles.push_back(res.payload);
    s.results.push_back(std::move(res));
  }
  return s;
}

void probe_serde(Prober& p, const Sample& s) {
  std::vector<serde::Value> values;
  for (const serde::Bytes& b : s.pickles) values.push_back(serde::loads(b));
  const double n = static_cast<double>(values.size());
  p.per_op("serde.dumps_us", "us", 1e6, "serde.dumps", [&] {
    for (const serde::Value& v : values) (void)serde::dumps(v);
  }, n);
  p.per_op("serde.loads_view_us", "us", 1e6, "serde.loads_view", [&] {
    for (const serde::Bytes& b : s.pickles) (void)serde::loads_view(b);
  }, n);
}

void probe_wq(Prober& p, const Sample& s, const wq::FileSet& file_inputs) {
  const double n = static_cast<double>(s.tasks.size());
  const std::string task_batch = wq::encode_batch(s.tasks);
  const std::string result_batch = wq::encode_batch(s.results);
  std::vector<std::string> result_frames;
  for (const wq::ResultMessage& r : s.results) result_frames.push_back(wq::encode(r));

  p.per_op("wq.encode_task_batch_us_per_task", "us", 1e6, "wq.encode_batch(tasks)",
           [&] { (void)wq::encode_batch(s.tasks); }, n);
  p.per_op("wq.decode_task_batch_us_per_task", "us", 1e6, "wq.decode_task_batch",
           [&] { (void)wq::decode_task_batch(task_batch); }, n);
  p.per_op("wq.encode_result_batch_us_per_task", "us", 1e6,
           "wq.encode_batch(results)", [&] { (void)wq::encode_batch(s.results); },
           n);
  p.per_op("wq.decode_result_batch_us_per_task", "us", 1e6,
           "wq.decode_result_batch",
           [&] { (void)wq::decode_result_batch(result_batch); }, n);
  p.per_op("wq.decode_result_us", "us", 1e6, "wq.decode_result", [&] {
    for (const std::string& f : result_frames) (void)wq::decode_result(f);
  }, n);

  double file_bytes = 0.0;
  for (const auto& [name, bytes] : file_inputs) file_bytes += bytes.size();
  p.per_op("wq.file_frame_us_per_mb", "us/MB", 1e6, "wq.encode+decode_file", [&] {
    for (const auto& [name, bytes] : file_inputs) {
      (void)wq::decode_file(wq::encode(wq::FileMessage{name, true, bytes}));
    }
  }, file_bytes / kMiB);
  p.report().add("wq.bytes_per_task",
                 static_cast<double>(task_batch.size() + result_batch.size()) / n,
                 "B", s.tasks.size());
}

// One v2 batch frame echoed over a loopback TCP connection pair driven by
// one net::EventLoop.
void probe_loop_roundtrip(Prober& p, const std::string& frame) {
  const int listen_fd = net::listen_tcp(0);
  const int client_fd = net::connect_tcp("127.0.0.1", net::local_port(listen_fd));
  const int server_fd = ::accept(listen_fd, nullptr, nullptr);
  ::close(listen_fd);
  if (server_fd < 0) throw Error("perfbench: loopback accept failed");
  net::set_nodelay(client_fd);
  net::set_nodelay(server_fd);
  net::EventLoop loop;
  auto client = std::make_shared<net::Connection>(loop, client_fd, 1);
  auto server = std::make_shared<net::Connection>(loop, server_fd, 2);
  server->set_on_message(
      [](net::Connection& c, std::string&& wire) { c.send(std::move(wire)); });
  client->set_on_message([&loop](net::Connection&, std::string&&) { loop.stop(); });
  client->start();
  server->start();
  p.per_op("net.loop_roundtrip_us", "us", 1e6, "net.loop_roundtrip", [&] {
    client->send(frame);
    loop.run();
  }, 1.0);
  client->close("done");
  server->close("done");
}

void probe_net(Prober& p, const Sample& s) {
  // The top-link stream of 16 groups: the group's staged files once, then
  // per group its task batch down and its result batch up.
  const std::string task_batch = wq::encode_batch(s.tasks);
  const std::string result_batch = wq::encode_batch(s.results);
  std::string stream;
  size_t frames = 0;
  for (const auto& [name, bytes] : s.files) {
    stream += wq::encode(wq::FileMessage{name, true, bytes});
    ++frames;
  }
  for (int g = 0; g < 16; ++g) {
    stream += task_batch;
    stream += result_batch;
    frames += 2;
  }
  constexpr size_t kReadSize = 64 * 1024;
  p.per_op("net.frame_split_us_per_frame", "us", 1e6, "net.FrameSplitter", [&] {
    net::FrameSplitter splitter;
    std::string msg;
    for (size_t off = 0; off < stream.size(); off += kReadSize) {
      splitter.feed(stream.data() + off, std::min(kReadSize, stream.size() - off));
      while (splitter.next(msg)) {
      }
    }
  }, static_cast<double>(frames));
  probe_loop_roundtrip(p, task_batch);
}

void probe_pkg(Prober& p, const EnvSet& set) {
  std::vector<pkg::PackedEnvironment> packs;
  const double e = static_cast<double>(set.envs.size());
  p.per_op("pkg.pack_s_per_env", "s", 1.0, "pkg.packed_environment",
           [&] { packs = pack_cold(set); }, e, 5, 0.0);
  double bytes = 0.0;
  for (const pkg::PackedEnvironment& pe : packs) bytes += pe.tar->size();
  std::vector<pkg::ChunkManifest> manifests;
  std::unique_ptr<pkg::ChunkStore> store;
  p.per_op("pkg.chunk_into_store_ms_per_mb", "ms/MB", 1e3, "pkg.chunk_into_store",
           [&] {
             store = std::make_unique<pkg::ChunkStore>();
             manifests.clear();
             for (const pkg::PackedEnvironment& pe : packs) {
               manifests.push_back(pkg::chunk_into_store(pe.tar, *store));
             }
           },
           bytes / kMiB, 5, 0.0);
  p.per_op("pkg.reassemble_ms_per_mb", "ms/MB", 1e3, "pkg.reassemble", [&] {
    for (const pkg::ChunkManifest& m : manifests) (void)pkg::reassemble(m, *store);
  }, bytes / kMiB, 5, 0.0);
  // Archive bytes per stored byte once every sibling shares the store.
  p.report().add("pkg.dedup_ratio",
                 bytes / static_cast<double>(store->stats().bytes), "ratio",
                 set.envs.size());
}

void probe_python(Prober& p, uint64_t seed, const std::string& tmpdir) {
  constexpr size_t kCalls = 16;
  std::vector<PyCall> calls;
  for (size_t i = 0; i < kCalls; ++i) calls.push_back(py_call(seed, i));

  p.per_op("pysrc.parse_cold_us", "us", 1e6, "pysrc.parse_module_shared", [&] {
    pysrc::clear_parse_cache();
    (void)pysrc::parse_module_shared(kPyModule);
  }, 1.0);
  const auto module = pysrc::parse_module_shared(kPyModule);
  p.per_op("pysrc.call_us", "us", 1e6, "pysrc.run_python_function", [&] {
    for (const PyCall& c : calls) {
      (void)pysrc::run_python_function(module, c.function, c.args.as_list());
    }
  }, static_cast<double>(kCalls));

  // The worker's task body, called directly and under the monitor with its
  // library-default options.
  auto body_for = [&](const PyCall& c) {
    return monitor::TaskFn([&module, fn = c.function](const serde::Value& a) {
      return pysrc::run_python_function(module, fn, a.as_list());
    });
  };
  int64_t polls = 0;
  monitor::MonitorOptions options;
  options.on_poll = [&polls](const monitor::ResourceUsage&) { ++polls; };
  const std::vector<double> monitored =
      p.each_s("monitor.run_monitored", [&](size_t i) {
        const monitor::TaskOutcome out =
            monitor::run_monitored(body_for(calls[i]), calls[i].args, options);
        if (!out.ok()) throw Error("perfbench: monitored call failed: " + out.error);
      }, kCalls);
  const std::vector<double> direct = p.each_s("monitor.direct_call", [&](size_t i) {
    (void)body_for(calls[i])(calls[i].args);
  }, kCalls);
  Report& report = p.report();
  report.add("monitor.run_monitored_ms", 1e3 * median(monitored), "ms", kCalls);
  report.add("monitor.overhead_ms", 1e3 * (median(monitored) - median(direct)),
             "ms", kCalls);
  report.add("monitor.polls_per_task",
             static_cast<double>(polls) / static_cast<double>(kCalls), "count",
             kCalls);

  chaos::Journal journal(tmpdir + "/probe.journal");
  uint64_t id = 0;
  constexpr int kBatch = 1000;
  p.per_op("chaos.journal_completed_us", "us", 1e6, "chaos.Journal::completed",
           [&] {
             for (int k = 0; k < kBatch; ++k) {
               journal.completed(++id, alloc::Resources{1.0, 64e6, 0.0}, 0.0);
             }
           },
           kBatch, 5);
}

}  // namespace

void probe_layers(const Workload& workload, const std::string& tmpdir,
                  Report& report) {
  obs::Recorder& rec = obs::Recorder::global();
  rec.set_enabled(true);
  rec.clear();
  Prober p(report);

  const std::unique_ptr<EnvSet> envs = make_env_set(workload.seed());
  const std::vector<pkg::PackedEnvironment> packs = pack_cold(*envs);
  const Sample sample = sample_for(workload, packs);
  wq::FileSet file_inputs = sample.files;
  if (file_inputs.empty()) {
    for (size_t e = 0; e < packs.size(); ++e) {
      file_inputs.emplace(env_file_name(e), *packs[e].tar);
    }
  }

  probe_serde(p, sample);
  probe_wq(p, sample, file_inputs);
  probe_net(p, sample);
  probe_pkg(p, *envs);
  probe_python(p, workload.seed(), tmpdir);

  rec.set_enabled(false);
  rec.clear();
}

}  // namespace lfmbench
