// Tests for the TCP transport runtime (src/net/): frame reassembly under
// adversarial fragmentation, the epoll event loop, connection plumbing, an
// end-to-end master<->worker-process run over real loopback sockets with
// an injected connection drop, a worker's side-by-side LFMs, and the one
// liveness rule against SIGKILLed and SIGSTOPped workers.
#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/journal.h"
#include "fed/root_master.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "obs/collector.h"
#include "obs/http_export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "net/framing.h"
#include "net/master_service.h"
#include "net/socket.h"
#include "net/worker_client.h"
#include "serde/pickle.h"
#include "support/json_parse.h"
#include "util/error.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::net {
namespace {

wq::TaskMessage simple_task(uint64_t id) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = "net-test";
  t.command_line = "exit 0";
  t.allocation = alloc::Resources{1.0, 512e6, 1e9};
  return t;
}

std::vector<std::string> split_all(FrameSplitter& splitter) {
  std::vector<std::string> out;
  std::string message;
  while (splitter.next(message)) out.push_back(message);
  return out;
}

// --- FrameSplitter -----------------------------------------------------------

TEST(FrameSplitter, OneByteDrip) {
  const std::string wire = wq::encode(simple_task(7));
  FrameSplitter splitter;
  std::string message;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    splitter.feed(wire.data() + i, 1);
    EXPECT_FALSE(splitter.next(message)) << "complete at byte " << i;
  }
  splitter.feed(wire.data() + wire.size() - 1, 1);
  ASSERT_TRUE(splitter.next(message));
  EXPECT_EQ(message, wire);
  EXPECT_EQ(splitter.buffered(), 0u);
  EXPECT_FALSE(splitter.next(message));
}

TEST(FrameSplitter, CoalescedKindsInOneFeed) {
  // Five frames of different kinds arriving as one TCP segment, each cut
  // at its own length prefix.
  wq::ResultMessage r;
  r.task_id = 3;
  r.payload = serde::Bytes{'e', 'n', 'd', '\n', 0xF7, 'Q', 2};  // traps naive scans
  const std::vector<std::string> wires = {
      wq::encode(simple_task(1)),
      wq::encode(wq::FileMessage{"f.pkl", true, serde::Bytes{0xF7, 'Q', 2, 1}}),
      wq::encode(r),
      wq::encode_batch(std::vector<wq::TaskMessage>{simple_task(4), simple_task(5)}),
      wq::encode(wq::ControlMessage{wq::ControlType::kPing, 1, 2.5}),
  };
  std::string stream;
  for (const std::string& w : wires) stream += w;
  FrameSplitter splitter;
  splitter.feed(stream);
  const std::vector<std::string> out = split_all(splitter);
  ASSERT_EQ(out.size(), wires.size());
  for (size_t i = 0; i < wires.size(); ++i) EXPECT_EQ(out[i], wires[i]);
  EXPECT_EQ(splitter.buffered(), 0u);
}

TEST(FrameSplitter, FragmentBoundaryInsideHeader) {
  // Split inside the 4-byte fixed header and inside the length varint.
  const std::string wire = wq::encode(simple_task(11));
  for (size_t cut = 1; cut < 6 && cut < wire.size(); ++cut) {
    FrameSplitter splitter;
    std::string message;
    splitter.feed(wire.data(), cut);
    EXPECT_FALSE(splitter.next(message));
    splitter.feed(wire.data() + cut, wire.size() - cut);
    ASSERT_TRUE(splitter.next(message)) << "cut at " << cut;
    EXPECT_EQ(message, wire);
  }
}

TEST(FrameSplitter, OversizedLengthRejectedFromHeaderAlone) {
  // 2^62-byte claimed body: must throw once the varint completes, without
  // waiting for (or buffering) any body bytes.
  const std::string header{'\xF7', 'Q', 2, 1,
                           '\xFF', '\xFF', '\xFF', '\xFF', '\xFF',
                           '\xFF', '\xFF', '\xFF', '\x3F'};
  FrameSplitter splitter;
  std::string message;
  EXPECT_THROW(
      {
        splitter.feed(header);
        splitter.next(message);
      },
      Error);
}

TEST(FrameSplitter, NonFrameBytesRejectedAsSoonAsFed) {
  // Each input is a wrong byte in the 0xF7 'Q' 0x02 prefix, with nothing
  // after it: the splitter must not wait for a length or a body first.
  for (const std::string& bad : {std::string("G"), std::string("\xF7X"),
                                 std::string("\xF7Q\x01")}) {
    FrameSplitter splitter;
    std::string message;
    splitter.feed(bad);
    EXPECT_THROW(splitter.next(message), Error) << "input size " << bad.size();
  }
}

TEST(FrameSplitter, ManySmallMessagesUnderLimitPass) {
  // The frame cap applies per message, not to the connection's total
  // traffic.
  wq::set_max_frame_body_bytes(4096);
  FrameSplitter splitter;
  const std::string wire = wq::encode(wq::ControlMessage{});
  size_t delivered = 0;
  std::string message;
  for (int i = 0; i < 500; ++i) {
    splitter.feed(wire);
    while (splitter.next(message)) ++delivered;
  }
  EXPECT_EQ(delivered, 500u);
  wq::set_max_frame_body_bytes(0);
}

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.run_after(0.03, [&] { order.push_back(3); });
  loop.run_after(0.01, [&] { order.push_back(1); });
  loop.run_after(0.02, [&] {
    order.push_back(2);
    loop.run_after(0.02, [&] {
      order.push_back(4);
      loop.stop();
    });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  bool fired = false;
  const uint64_t id = loop.run_after(0.01, [&] { fired = true; });
  loop.cancel_timer(id);
  loop.run_after(0.03, [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, RunEveryRepeatsUntilCancelled) {
  EventLoop loop;
  int fires = 0;
  uint64_t id = 0;
  id = loop.run_every(0.01, [&] {
    if (++fires == 3) {
      loop.cancel_timer(id);
      loop.run_after(0.03, [&] { loop.stop(); });
    }
  });
  loop.run();
  EXPECT_EQ(fires, 3);
}

TEST(EventLoop, PostFromAnotherThreadWakesLoop) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    loop.post([&] {
      ran.store(true);
      loop.stop();
    });
  });
  loop.run();
  poster.join();
  EXPECT_TRUE(ran.load());
}

// --- Connection / Listener ---------------------------------------------------

TEST(Connection, EchoAcrossRealSockets) {
  EventLoop loop;
  Listener listener(loop, 0);
  std::vector<std::shared_ptr<Connection>> server_conns;
  listener.set_on_accept([&](int fd) {
    auto conn = std::make_shared<Connection>(loop, fd, 100);
    conn->set_on_message(
        [](Connection& c, std::string&& wire) { c.send(std::move(wire)); });
    server_conns.push_back(conn);
    conn->start();
  });
  listener.start();

  const int fd = connect_tcp("127.0.0.1", listener.port());
  ASSERT_GE(fd, 0);
  auto client = std::make_shared<Connection>(loop, fd, 1);
  std::vector<std::string> echoed;
  const std::vector<std::string> sent = {
      wq::encode(simple_task(1)),
      wq::encode(wq::FileMessage{"f.pkl", false, serde::Bytes{1, 2}}),
      wq::encode(wq::ControlMessage{}),
  };
  client->set_on_message([&](Connection&, std::string&& wire) {
    echoed.push_back(std::move(wire));
    if (echoed.size() == sent.size()) loop.stop();
  });
  client->start();
  for (const std::string& w : sent) client->send(w);
  loop.run_after(5.0, [&] { loop.stop(); });  // watchdog
  loop.run();
  EXPECT_EQ(echoed, sent);
  EXPECT_EQ(client->messages_out(), 3);
  EXPECT_EQ(client->messages_in(), 3);
  client->close("test done");
}

TEST(Connection, MidFrameEofReportedAsSuch) {
  EventLoop loop;
  Listener listener(loop, 0);
  std::string close_reason;
  std::shared_ptr<Connection> server;
  listener.set_on_accept([&](int fd) {
    server = std::make_shared<Connection>(loop, fd, 100);
    server->set_on_close([&](Connection&, const std::string& reason) {
      close_reason = reason;
      loop.stop();
    });
    server->start();
  });
  listener.start();

  const int fd = connect_tcp("127.0.0.1", listener.port());
  ASSERT_GE(fd, 0);
  // A frame header promising 100 body bytes, then only 4, then close.
  const std::string partial{'\xF7', 'Q', 2, 1, 100, 'a', 'b', 'c', 'd'};
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  ::close(fd);
  loop.run_after(5.0, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(close_reason, "mid-frame eof");
}

TEST(Connection, ProtocolErrorClosesWithDecoderMessage) {
  EventLoop loop;
  Listener listener(loop, 0);
  std::string close_reason;
  std::shared_ptr<Connection> server;
  listener.set_on_accept([&](int fd) {
    server = std::make_shared<Connection>(loop, fd, 100);
    server->set_on_close([&](Connection&, const std::string& reason) {
      close_reason = reason;
      loop.stop();
    });
    server->start();
  });
  listener.start();

  const int fd = connect_tcp("127.0.0.1", listener.port());
  ASSERT_GE(fd, 0);
  const std::string hostile{'\xF7', 'Q', 2, 1,
                            '\xFF', '\xFF', '\xFF', '\xFF', '\xFF',
                            '\xFF', '\xFF', '\xFF', '\x3F'};
  ASSERT_EQ(::send(fd, hostile.data(), hostile.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hostile.size()));
  loop.run_after(5.0, [&] { loop.stop(); });
  loop.run();
  ::close(fd);
  EXPECT_NE(close_reason.find("exceeds"), std::string::npos);
}

// --- end-to-end: master process <-> forked worker processes ------------------

pid_t fork_worker(uint16_t port, const std::string& name, double cores = 4.0) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Drop inherited fds: a surviving copy of the master's listener keeps
  // its port accepting after the run drains (see net/socket.h).
  close_inherited_fds();
  int status = 1;
  try {
    WorkerClientOptions options;
    options.host = "127.0.0.1";
    options.port = port;
    options.name = name;
    options.capacity.cores = cores;
    options.worker.poll_interval = 0.01;
    WorkerClient client(options);
    client.run();
    status = 0;
  } catch (...) {
  }
  _exit(status);
}

// State and parent of `pid` from /proc/<pid>/stat; false once it is gone.
bool proc_stat(long pid, char& state, long& ppid) {
  std::FILE* f = std::fopen(("/proc/" + std::to_string(pid) + "/stat").c_str(), "r");
  if (f == nullptr) return false;
  char buf[512] = {};
  const size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  // "pid (comm) state ppid ...": comm may hold spaces, so parse after ')'.
  const std::string stat(buf, n);
  const size_t close = stat.rfind(')');
  return close != std::string::npos &&
         std::sscanf(stat.c_str() + close + 1, " %c %ld", &state, &ppid) == 2;
}

// True while `pid` exists and has not exited (a zombie has).
bool alive(long pid) {
  char state = 0;
  long ppid = 0;
  return proc_stat(pid, state, ppid) && state != 'Z' && state != 'X';
}

// Children of `parent` that have not exited: a worker's LFM children.
std::vector<pid_t> live_children_of(pid_t parent) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* entry = ::readdir(dir)) {
    const long pid = std::strtol(entry->d_name, nullptr, 10);
    char state = 0;
    long ppid = 0;
    if (pid > 0 && proc_stat(pid, state, ppid) && ppid == parent && state != 'Z' &&
        state != 'X') {
      out.push_back(static_cast<pid_t>(pid));
    }
  }
  ::closedir(dir);
  return out;
}

// Run `loop` until `done()` holds (checked every 5 ms) or `timeout` passes.
bool run_until(EventLoop& loop, const std::function<bool()>& done, double timeout) {
  if (done()) return true;
  const uint64_t poll = loop.run_every(0.005, [&] {
    if (done()) loop.stop();
  });
  const uint64_t watchdog = loop.run_after(timeout, [&] { loop.stop(); });
  loop.run();
  loop.cancel_timer(poll);
  loop.cancel_timer(watchdog);
  return done();
}

TEST(NetEndToEnd, PythonTasksMatchInProcessExecutionBitForBit) {
  const char* module = R"(
def mix(a, b):
    return {'sum': a + b, 'prod': a * b}
)";
  const int kTasks = 12;
  std::vector<std::pair<wq::TaskMessage, wq::FileSet>> specs;
  for (int i = 0; i < kTasks; ++i) {
    serde::ValueList args;
    args.push_back(serde::Value(int64_t{i}));
    args.push_back(serde::Value(int64_t{1000 + i}));
    specs.push_back(wq::make_python_task(100 + static_cast<uint64_t>(i), "mix",
                                         module, "mix",
                                         serde::Value(std::move(args)),
                                         alloc::Resources{1.0, 512e6, 1e9}));
  }
  // Reference run: the same messages through an in-process LocalWorker.
  std::vector<serde::Bytes> expected;
  {
    wq::LocalWorkerOptions wo;
    wo.poll_interval = 0.01;
    wq::LocalWorker direct(wo);
    for (const auto& [task, files] : specs) {
      const wq::ResultMessage r = direct.execute(task, files);
      ASSERT_EQ(r.exit_code, 0) << "task " << task.task_id;
      expected.push_back(r.payload);
    }
  }

  EventLoop loop;
  MasterServiceConfig config;
  config.tasks_per_worker = 4;
  MasterService master(loop, config);
  for (auto& [task, files] : specs) master.submit(task, files);

  std::vector<pid_t> workers;
  for (const char* name : {"wa", "wb", "wc", "wd"}) {
    workers.push_back(fork_worker(master.port(), name));
  }

  std::map<uint64_t, int> results_per_task;
  std::map<uint64_t, wq::ResultMessage> results;
  master.set_on_result([&](const wq::ResultMessage& r) {
    results_per_task[r.task_id] += 1;
    results[r.task_id] = r;
  });
  const NetMasterStats stats = master.run_until_complete(120.0);

  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(results_per_task.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : results_per_task) {
    EXPECT_EQ(n, 1) << "task " << id << " reported " << n << " times";
  }
  ASSERT_EQ(results.size(), static_cast<size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    const wq::ResultMessage& r = results[100 + static_cast<uint64_t>(i)];
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.payload, expected[i]) << "payload differs for task " << r.task_id;
  }
  EXPECT_GE(stats.connections_accepted, 4);
  // Every worker closed its link after the bye: none was lost.
  EXPECT_EQ(stats.links_lost, 0);
  EXPECT_EQ(stats.links_departed, stats.connections_accepted);
  const serde::Value statusz = master.statusz_value();
  EXPECT_EQ(statusz.at("workers_lost").as_int(), 0);
  EXPECT_EQ(statusz.at("workers_departed").as_int(), stats.connections_accepted);
  for (const pid_t pid : workers) {
    int status = -1;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
}

TEST(NetEndToEnd, DroppedConnectionRequeuesAndReconnects) {
  // One worker, four slow tasks dispatched as a batch; they run side by
  // side, so each outlasts the drop. Dropping the connection mid-execution
  // loses the in-flight batch; the worker must reconnect
  // (chaos::RetryPolicy backoff) and the master must re-dispatch every
  // task, completing all of them exactly once.
  EventLoop loop;
  MasterService master(loop, {});
  const int kTasks = 4;
  for (int i = 0; i < kTasks; ++i) {
    wq::TaskMessage t = simple_task(200 + static_cast<uint64_t>(i));
    t.command_line = "sleep 0.5";
    master.submit(t);
  }
  const pid_t worker = fork_worker(master.port(), "flaky");
  bool dropped = false;
  loop.run_after(0.25, [&] { dropped = master.drop_connection(0); });

  int result_events = 0;
  master.set_on_result([&](const wq::ResultMessage&) { ++result_events; });
  const NetMasterStats stats = master.run_until_complete(120.0);

  EXPECT_TRUE(dropped);
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(result_events, kTasks);
  // The whole in-flight batch came back to the queue...
  EXPECT_GE(stats.requeued_tasks, 1);
  // ...and the worker came back to the master.
  EXPECT_GE(stats.connections_accepted, 2);
  int status = -1;
  ASSERT_EQ(waitpid(worker, &status, 0), worker);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// --- relay framing: the foreman hop must be a bit-transparent re-framer ------
// A fed::Foreman decodes batches off its root link, re-batches, and encodes
// toward its workers (and the reverse for results). These tests pin the
// invariant that hop depends on: decode(encode(x)) re-encodes to the exact
// same bytes, even when the inbound stream arrives one byte at a time or
// with an EOF in the middle of a frame.

wq::TaskMessage rich_task(uint64_t id) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = "relay-hop";
  t.command_line = "python lfm_wrapper.py fn.pkl args.pkl --seed 42";
  t.allocation = alloc::Resources{2.0, 1.5e9, 7e9};
  t.infiles.push_back({"fn.pkl", 1833, true});
  t.infiles.push_back({"args-" + std::to_string(id) + ".pkl", 96, false});
  t.outfiles.push_back("out-" + std::to_string(id) + ".pkl");
  return t;
}

TEST(RelayFraming, TaskBatchSurvivesDripFedRelayHopBitIdentical) {
  std::vector<wq::TaskMessage> tasks;
  for (uint64_t id = 40; id < 47; ++id) tasks.push_back(rich_task(id));
  const std::string wire = wq::encode_batch(tasks);

  // Relay ingress: the root-link stream drips in one byte at a time.
  FrameSplitter splitter;
  std::vector<std::string> messages;
  for (char c : wire) {
    splitter.feed(&c, 1);
    std::string m;
    while (splitter.next(m)) messages.push_back(std::move(m));
  }
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(splitter.buffered(), 0u);
  EXPECT_EQ(messages[0], wire);

  // Relay egress: decode, re-batch, re-encode toward the shard's workers.
  const std::vector<wq::TaskMessage> decoded =
      wq::decode_task_batch(messages[0]);
  ASSERT_EQ(decoded.size(), tasks.size());
  EXPECT_EQ(wq::encode_batch(decoded), wire);
}

TEST(RelayFraming, ResultBatchWithHostilePayloadRelaysBitIdentical) {
  // Payload bytes chosen to look like framing: the frame magic, a text
  // "end" line, NULs and LFs. The relay must treat them as
  // opaque body bytes at every hop.
  std::vector<wq::ResultMessage> results;
  for (int i = 0; i < 5; ++i) {
    wq::ResultMessage r;
    r.task_id = 60 + static_cast<uint64_t>(i);
    r.exit_code = i == 3 ? 137 : 0;
    r.exhausted = i == 3;
    if (i == 3) r.exhausted_resource = "memory";
    r.cores_used = 1.75;
    r.memory_peak_bytes = 123456789 + i;
    r.disk_peak_bytes = 987654321;
    r.wall_seconds = 0.25 * i;
    const std::string hostile = std::string("\xF7Q\x02\x01") + '\0' +
                                "\nend\nresult 9 0\n" + '\0' + "\xF7Q";
    r.payload.assign(hostile.begin(), hostile.end());
    r.payload.push_back(static_cast<uint8_t>(i));
    results.push_back(std::move(r));
  }
  const std::string wire = wq::encode_batch(results);

  FrameSplitter splitter;
  std::vector<std::string> messages;
  for (char c : wire) {
    splitter.feed(&c, 1);
    std::string m;
    while (splitter.next(m)) messages.push_back(std::move(m));
  }
  ASSERT_EQ(messages.size(), 1u);
  ASSERT_EQ(messages[0], wire);

  const std::vector<wq::ResultMessage> decoded =
      wq::decode_result_batch(messages[0]);
  ASSERT_EQ(decoded.size(), results.size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].payload, results[i].payload) << "result " << i;
  }
  EXPECT_EQ(wq::encode_batch(decoded), wire);
}

TEST(RelayFraming, MidFrameEofAtRelayHopKeepsPartialBufferedThenCompletes) {
  const std::string wire = wq::encode_batch(
      std::vector<wq::TaskMessage>{rich_task(70), rich_task(71)});
  // The upstream link stalls (or dies) with the frame split anywhere at
  // all: no partial message may ever be surfaced, and the buffered byte
  // count must expose the dirtiness of an EOF at that point.
  for (size_t cut : {size_t{1}, size_t{3}, size_t{5}, wire.size() / 2,
                     wire.size() - 1}) {
    FrameSplitter splitter;
    splitter.feed(wire.data(), cut);
    std::string m;
    EXPECT_FALSE(splitter.next(m)) << "cut at " << cut;
    EXPECT_EQ(splitter.buffered(), cut) << "cut at " << cut;
    // The peer recovers and sends the rest: the reassembled message is
    // byte-identical to an unfragmented delivery.
    splitter.feed(wire.data() + cut, wire.size() - cut);
    ASSERT_TRUE(splitter.next(m)) << "cut at " << cut;
    EXPECT_EQ(m, wire) << "cut at " << cut;
    EXPECT_EQ(splitter.buffered(), 0u);
    EXPECT_EQ(wq::encode_batch(wq::decode_task_batch(m)), wire);
  }
}

// --- reconnect budget semantics ---------------------------------------------

TEST(WorkerClient, AcceptThenDropFlappingMasterExhaustsBudget) {
  // A "master" that accepts every connection and immediately hangs up — a
  // crash-looping service or a misrouted port. The TCP accepts must NOT
  // replenish the reconnect budget (only completed tasks do), so the
  // client gives up instead of flapping forever.
  const int lfd = listen_tcp(0);
  const uint16_t port = local_port(lfd);
  std::atomic<bool> done{false};
  std::thread flapper([&] {
    while (!done.load()) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd >= 0) {
        ::close(fd);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  WorkerClientOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.name = "flap-victim";
  options.max_reconnect_attempts = 3;
  chaos::RetryPolicy fast;
  fast.backoff_base = 0.001;
  fast.backoff_max = 0.005;
  options.reconnect = fast;
  options.idle_timeout = 0.25;  // safety net if the drop is never noticed
  WorkerClient client(options);
  const int64_t executed = client.run();  // must return, not hang or throw

  EXPECT_EQ(executed, 0);
  EXPECT_TRUE(client.gave_up());
  EXPECT_GE(client.failures_since_progress(), options.max_reconnect_attempts);
  done.store(true);
  flapper.join();
  ::close(lfd);
}

TEST(WorkerClient, TaskCompletionRestoresReconnectBudget) {
  // The flip side: a worker whose budget is tiny (2) survives five
  // injected disconnects because each completed task resets the count.
  // Without the reset, failures would accumulate across drops and the
  // worker would give up mid-run.
  EventLoop loop;
  MasterServiceConfig config;
  config.tasks_per_worker = 1;  // one task per dispatch: drop between tasks
  MasterService master(loop, config);
  const int kTasks = 6;
  for (int i = 0; i < kTasks; ++i) {
    master.submit(simple_task(300 + static_cast<uint64_t>(i)));
  }

  const pid_t pid = fork();
  if (pid == 0) {
    close_inherited_fds();
    int status = 1;
    try {
      WorkerClientOptions options;
      options.host = "127.0.0.1";
      options.port = master.port();
      options.name = "budget-2";
      options.max_reconnect_attempts = 2;
      chaos::RetryPolicy fast;
      fast.backoff_base = 0.001;
      fast.backoff_max = 0.005;
      options.reconnect = fast;
      options.worker.poll_interval = 0.01;
      WorkerClient client(options);
      client.run();
      status = client.gave_up() ? 2 : 0;
    } catch (...) {
    }
    _exit(status);
  }

  int results_seen = 0;
  master.set_on_result([&](const wq::ResultMessage&) {
    if (++results_seen < kTasks) master.drop_connection(0);
  });
  const NetMasterStats stats = master.run_until_complete(120.0);

  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(results_seen, kTasks);
  // Five drops, each answered by a fresh accept: 6 connections minimum,
  // which is strictly more than the budget of 2 — only the
  // completion-resets rule lets the worker get this far.
  EXPECT_GE(stats.connections_accepted, kTasks);
  int status = -1;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "worker exit status " << status;
}

// --- live telemetry endpoints -----------------------------------------------

// Blocking HTTP/1.0 fetch from a side thread while the loop serves; the
// thread stops the loop once the server closes the connection.
std::string http_get(EventLoop& loop, uint16_t port, const std::string& target,
                     const std::string& method = "GET") {
  std::string response;
  std::thread fetcher([&] {
    const int fd = connect_tcp("127.0.0.1", port);
    if (fd < 0) {
      loop.post([&loop] { loop.stop(); });
      return;
    }
    const std::string req =
        method + " " + target + " HTTP/1.0\r\nHost: test\r\n\r\n";
    size_t off = 0;
    while (off < req.size()) {
      const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    loop.post([&loop] { loop.stop(); });
  });
  const uint64_t watchdog = loop.run_after(10.0, [&] { loop.stop(); });
  loop.run();
  loop.cancel_timer(watchdog);
  fetcher.join();
  return response;
}

TEST(HttpEndpointTest, ServesMetricsHealthzAndStatusz) {
  EventLoop loop;
  obs::Metrics metrics;
  metrics.counter("net.results").add(42);
  metrics.gauge("net.write_queue_bytes").set(7.0);
  obs::HttpEndpointConfig hc;
  hc.metrics = &metrics;
  hc.statusz = [] {
    serde::ValueDict status;
    status["role"] = serde::Value(std::string("test-master"));
    status["pending"] = serde::Value(int64_t{3});
    return serde::Value(std::move(status));
  };
  obs::HttpEndpoint http(loop, hc);
  ASSERT_GT(http.port(), 0);

  const std::string metrics_rsp = http_get(loop, http.port(), "/metrics");
  EXPECT_NE(metrics_rsp.find("200"), std::string::npos);
  EXPECT_NE(metrics_rsp.find("net_results 42"), std::string::npos);
  EXPECT_NE(metrics_rsp.find("# TYPE"), std::string::npos);

  const std::string health_rsp = http_get(loop, http.port(), "/healthz");
  EXPECT_NE(health_rsp.find("200"), std::string::npos);
  EXPECT_NE(health_rsp.find("ok"), std::string::npos);

  const std::string status_rsp = http_get(loop, http.port(), "/statusz");
  EXPECT_NE(status_rsp.find("200"), std::string::npos);
  const size_t body_at = status_rsp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const serde::Value doc = serde::from_json(status_rsp.substr(body_at + 4));
  EXPECT_EQ(doc.as_dict().at("role").as_str(), "test-master");
  EXPECT_EQ(doc.as_dict().at("pending").as_int(), 3);

  EXPECT_NE(http_get(loop, http.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(loop, http.port(), "/metrics", "POST").find("405"),
            std::string::npos);
  EXPECT_EQ(http.requests_served(), 5);
}

TEST(HttpEndpointTest, BindConflictThrowsInsteadOfTimingOut) {
  EventLoop loop;
  obs::HttpEndpointConfig hc;
  obs::HttpEndpoint first(loop, hc);
  obs::HttpEndpointConfig clash;
  clash.port = first.port();
  EXPECT_THROW(obs::HttpEndpoint(loop, clash), Error);
}

// --- distributed tracing: two processes, one timeline ------------------------

pid_t fork_traced_worker(uint16_t port, const std::string& name) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  close_inherited_fds();
  int status = 1;
  try {
    obs::Recorder::global().set_enabled(true);
    obs::Recorder::global().clear();
    WorkerClientOptions options;
    options.host = "127.0.0.1";
    options.port = port;
    options.name = name;
    options.worker.poll_interval = 0.01;
    WorkerClient client(options);
    client.run();
    status = 0;
  } catch (...) {
  }
  _exit(status);
}

TEST(NetEndToEnd, ForkedWorkerSpansMergeIntoOneNestedTimeline) {
  const char* module = R"(
def double(x):
    return 2 * x
)";
  obs::Recorder::global().set_enabled(true);
  obs::Recorder::global().clear();

  obs::Collector collector;
  EventLoop loop;
  MasterServiceConfig config;
  config.on_telemetry = [&](wq::TelemetryMessage&& msg) {
    collector.add(msg.source, msg.clock_offset, std::move(msg.events),
                  msg.dropped);
  };
  MasterService master(loop, config);
  const int kTasks = 6;
  for (int i = 0; i < kTasks; ++i) {
    auto [task, files] = wq::make_python_task(
        700 + static_cast<uint64_t>(i), "double", module, "double",
        serde::Value(serde::ValueList{serde::Value(int64_t{i})}),
        alloc::Resources{1.0, 512e6, 1e9});
    master.submit(task, files);
  }
  const pid_t worker = fork_traced_worker(master.port(), "traced-w");
  const NetMasterStats stats = master.run_until_complete(120.0);
  int status = -1;
  ASSERT_EQ(waitpid(worker, &status, 0), worker);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_GE(stats.telemetry_frames, 1);

  collector.add_local("master", obs::Recorder::global().drain_events());
  obs::Recorder::global().set_enabled(false);
  obs::Recorder::global().clear();

  // Group the merged, clock-normalized spans by trace id. At least one
  // task's id must appear in both process lanes with the worker's lfm.run
  // span nested inside the master's task span. (A task CAN legitimately
  // run twice — at-least-once attempts — so we require one cleanly nested
  // id, not that every id is.)
  struct PerTrace {
    double task_begin = 0.0, task_end = 0.0;
    bool has_task = false;
    std::vector<double> run_begin, run_end;
    std::map<uint64_t, int> lanes;
  };
  std::map<uint64_t, PerTrace> traces;
  for (const auto& ev : collector.events()) {
    if (ev.trace_id == 0) continue;
    PerTrace& t = traces[ev.trace_id];
    ++t.lanes[ev.pid];
    if (ev.ph == 'X' && ev.name == "task") {
      t.has_task = true;
      t.task_begin = ev.ts;
      t.task_end = ev.ts + ev.dur;
    }
    // End events travel nameless (Chrome-trace convention: E closes the
    // innermost open B on its lane); only the worker emits B/E here.
    if (ev.ph == 'B' && ev.name == "lfm.run") t.run_begin.push_back(ev.ts);
    if (ev.ph == 'E') t.run_end.push_back(ev.ts);
  }
  EXPECT_EQ(traces.size(), static_cast<size_t>(kTasks));
  const double kSkewTolerance = 1e-3;  // clock alignment is RTT/2-bounded
  int nested = 0;
  for (const auto& [id, t] : traces) {
    if (!t.has_task || t.lanes.size() < 2) continue;
    // A run produces nested lfm.run B/E pairs (the worker's dispatch span
    // and the monitor's inner span); the outermost window is what the
    // master's task span must contain.
    if (t.run_begin.empty() || t.run_end.empty()) continue;
    const double run_first =
        *std::min_element(t.run_begin.begin(), t.run_begin.end());
    const double run_last =
        *std::max_element(t.run_end.begin(), t.run_end.end());
    if (t.task_begin - kSkewTolerance <= run_first && run_first <= run_last &&
        run_last <= t.task_end + kSkewTolerance) {
      ++nested;
    }
  }
  EXPECT_GE(nested, 1) << "no trace id produced a cleanly nested "
                          "master-task / worker-run span pair";
}

TEST(WorkerClient, GivesUpWhenMasterNeverAppears) {
  WorkerClientOptions options;
  options.host = "127.0.0.1";
  options.port = 1;  // nothing listens here
  options.name = "orphan";
  options.max_reconnect_attempts = 2;
  chaos::RetryPolicy fast;
  fast.backoff_base = 0.001;
  fast.backoff_max = 0.002;
  options.reconnect = fast;
  WorkerClient client(options);
  EXPECT_THROW(client.run(), Error);
}

// --- the worker-facing dispatch policy ---------------------------------------

TEST(MasterService, BusyWorkerOutlastsIdleTimeoutWithoutRequeue) {
  // A worker running a task through its LFM reads and sends nothing until
  // the task finishes. That silence is not death: the task outlasts the
  // master's idle_timeout several times over, yet the link stays up and
  // nothing requeues.
  obs::Metrics metrics;
  EventLoop loop;
  MasterServiceConfig config;
  config.heartbeat_interval = 0.05;
  config.idle_timeout = 0.2;
  config.metrics = &metrics;
  MasterService master(loop, config);
  wq::TaskMessage t = simple_task(400);
  t.command_line = "sleep 0.8";
  master.submit(t);
  const pid_t worker = fork_worker(master.port(), "busy");

  const NetMasterStats stats = master.run_until_complete(20.0);

  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_EQ(stats.requeued_tasks, 0);
  EXPECT_EQ(stats.connections_accepted, 1);
  EXPECT_EQ(metrics.counter("net.idle_closes").value(), 0);
  int status = -1;
  ASSERT_EQ(waitpid(worker, &status, 0), worker);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(MasterService, StoppedWorkerIsIdleClosedAndItsTaskRunsOnASibling) {
  // A SIGSTOPped worker holding a task answers no ping. Busy or not, its
  // link is closed after idle_timeout, and the task completes on a sibling.
  obs::Metrics metrics;
  EventLoop loop;
  MasterServiceConfig config;
  config.heartbeat_interval = 0.05;
  config.idle_timeout = 0.3;
  config.metrics = &metrics;
  MasterService master(loop, config);
  const pid_t stopped = fork_worker(master.port(), "stopped");
  ASSERT_TRUE(run_until(loop, [&] { return master.connected_workers() == 1; }, 10.0));
  wq::TaskMessage t = simple_task(450);
  t.command_line = "sleep 0.3";
  master.submit(t);  // the only link takes it at once
  ASSERT_EQ(::kill(stopped, SIGSTOP), 0);
  const pid_t sibling = fork_worker(master.port(), "sibling");

  NetMasterStats stats;
  EXPECT_NO_THROW(stats = master.run_until_complete(5.0));

  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_EQ(stats.requeued_tasks, 1);
  EXPECT_GE(metrics.counter("net.idle_closes").value(), 1);
  ::kill(stopped, SIGKILL);
  ASSERT_EQ(waitpid(stopped, nullptr, 0), stopped);
  if (stats.tasks_completed != 1) ::kill(sibling, SIGKILL);  // no bye will come
  int status = -1;
  ASSERT_EQ(waitpid(sibling, &status, 0), sibling);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// --- the worker's concurrent LFMs ---------------------------------------------

TEST(WorkerClient, RunsTasksSideBySideWithinAnnouncedCapacity) {
  // Four 0.3 s one-core tasks on one worker: announcing 4 cores they all
  // run at once; announcing 2, never more than 2 LFM children are alive.
  for (const double cores : {4.0, 2.0}) {
    SCOPED_TRACE(cores);
    EventLoop loop;
    MasterService master(loop, {});
    const pid_t worker = fork_worker(master.port(), "packed", cores);
    ASSERT_TRUE(run_until(loop, [&] { return master.connected_workers() == 1; }, 10.0));
    size_t most_alive = 0;
    const uint64_t watch = loop.run_every(0.002, [&] {
      most_alive = std::max(most_alive, live_children_of(worker).size());
    });
    const double start = EventLoop::now();
    for (int i = 0; i < 4; ++i) {
      wq::TaskMessage t = simple_task(460 + static_cast<uint64_t>(i));
      t.command_line = "sleep 0.3";
      master.submit(t);
    }
    const NetMasterStats stats = master.run_until_complete(20.0);
    const double wall = EventLoop::now() - start;
    loop.cancel_timer(watch);

    EXPECT_EQ(stats.tasks_completed, 4);
    if (cores == 4.0) {
      EXPECT_LT(wall, 0.6);
      EXPECT_EQ(most_alive, 4u);
    } else {
      EXPECT_EQ(most_alive, 2u);
      EXPECT_GE(wall, 0.6);
    }
    int status = -1;
    ASSERT_EQ(waitpid(worker, &status, 0), worker);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
}

TEST(WorkerClient, ShortTaskResultDoesNotWaitForItsBatchMate) {
  // A 1 s task and a 0.05 s task go out in one batch frame; the short
  // task's result reaches the master long before the long one ends.
  EventLoop loop;
  MasterService master(loop, {});
  wq::TaskMessage slow = simple_task(470);
  slow.command_line = "sleep 1";
  wq::TaskMessage quick = simple_task(471);
  quick.command_line = "sleep 0.05";
  master.submit(slow);
  master.submit(quick);
  std::map<uint64_t, double> arrived;
  master.set_on_result(
      [&](const wq::ResultMessage& r) { arrived[r.task_id] = EventLoop::now(); });
  const pid_t worker = fork_worker(master.port(), "mixed");
  const NetMasterStats stats = master.run_until_complete(20.0);

  EXPECT_EQ(stats.tasks_completed, 2);
  ASSERT_EQ(arrived.size(), 2u);
  EXPECT_GE(arrived[470] - arrived[471], 0.5);
  int status = -1;
  ASSERT_EQ(waitpid(worker, &status, 0), worker);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(WorkerClient, SigkilledWorkerTakesItsLfmChildrenAlong) {
  // An LFM child never execs, so it holds the worker's socket. Killed
  // mid-task, the worker's link must close at once, not when the orphaned
  // child finishes, and no LFM child of it may live on.
  // Each round sums 200k ints inside one builtin call, so a thousand
  // rounds take seconds while staying far inside the interpreter's step
  // budget.
  const char* module = R"(
def spin(n):
    big = [1] * 200000
    total = 0
    i = 0
    while i < n:
        total = total + sum(big)
        i = i + 1
    return total
)";
  EventLoop loop;
  MasterService master(loop, {});
  auto [task, files] = wq::make_python_task(
      480, "spin", module, "spin",
      serde::Value(serde::ValueList{serde::Value(int64_t{1000})}),
      alloc::Resources{1.0, 512e6, 1e9});
  master.submit(task, files);
  const pid_t worker = fork_worker(master.port(), "doomed");
  std::vector<pid_t> children;
  ASSERT_TRUE(run_until(
      loop,
      [&] {
        children = live_children_of(worker);
        return !children.empty();
      },
      10.0));

  ASSERT_EQ(::kill(worker, SIGKILL), 0);
  const double killed_at = EventLoop::now();
  const bool closed =
      run_until(loop, [&] { return master.connected_workers() == 0; }, 3.0);
  const double close_after = EventLoop::now() - killed_at;
  ASSERT_EQ(waitpid(worker, nullptr, 0), worker);

  EXPECT_TRUE(closed);
  EXPECT_LT(close_after, 0.5);
  // A close before the bye is a lost worker.
  EXPECT_EQ(master.stats().links_lost, 1);
  EXPECT_EQ(master.stats().links_departed, 0);
  EXPECT_EQ(master.statusz_value().at("workers_lost").as_int(), 1);
  // The kernel closes a dying child's fds before the child turns zombie,
  // so give an exit already under way a moment to finish.
  const double deadline = EventLoop::now() + 0.5;
  for (const pid_t child : children) {
    while (alive(child) && EventLoop::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_FALSE(alive(child)) << "LFM child " << child << " outlived its worker";
    if (alive(child)) ::kill(child, SIGKILL);
  }
}

TEST(MasterService, ListenerRefusesConnectsOnceTheRunReturns) {
  // The listener closes with the loop, once the last link is gone, so a
  // worker that recycles its connection after the run is refused instead
  // of hanging in the backlog of a master that no longer serves it.
  EventLoop loop;
  MasterService master(loop, {});
  master.submit(simple_task(500));
  WorkerClientOptions o;
  o.port = master.port();
  o.name = "echo";
  o.echo_results = true;
  WorkerClient client(o);
  std::thread worker([&] { client.run(); });

  const NetMasterStats stats = master.run_until_complete(20.0);
  worker.join();

  EXPECT_EQ(stats.tasks_completed, 1);
  const int fd = connect_tcp("127.0.0.1", master.port());
  EXPECT_LT(fd, 0) << "the finished master still accepts connections";
  if (fd >= 0) ::close(fd);
}

// True once the peer end of `fd` is closed (EOF, or a reset).
bool peer_closed(int fd) {
  char c;
  const ssize_t n = ::recv(fd, &c, 1, MSG_DONTWAIT);
  return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
}

TEST(MasterService, PeerThatNeverSaysHelloIsIdleClosed) {
  // A raw socket connects and stays silent; an echo worker arrives 1 s
  // later. The silent link holds no work, so idle_timeout closes it like
  // any other link. Untraced, it would otherwise stay open until the run
  // ends; traced, the finish sequence leaves each close to the peer and
  // would wait for it forever.
  constexpr double kHeartbeat = 0.05;
  constexpr double kIdle = 0.3;
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    obs::Recorder::global().set_enabled(traced);
    obs::Recorder::global().clear();
    obs::Metrics metrics;
    EventLoop loop;
    MasterServiceConfig config;
    config.heartbeat_interval = kHeartbeat;
    config.idle_timeout = kIdle;
    config.metrics = &metrics;
    MasterService master(loop, config);
    master.submit(simple_task(600));

    const int silent = connect_tcp("127.0.0.1", master.port());
    ASSERT_GE(silent, 0);
    const double connected_at = EventLoop::now();
    double eof_after = -1.0;
    const uint64_t watch = loop.run_every(0.01, [&] {
      if (eof_after < 0 && peer_closed(silent)) {
        eof_after = EventLoop::now() - connected_at;
      }
    });
    pid_t worker = -1;
    loop.run_after(1.0, [&] { worker = fork_worker(master.port(), "late"); });

    NetMasterStats stats;
    EXPECT_NO_THROW(stats = master.run_until_complete(4.0));
    loop.cancel_timer(watch);
    ::close(silent);
    obs::Recorder::global().set_enabled(false);
    obs::Recorder::global().clear();

    EXPECT_EQ(stats.tasks_completed, 1);
    EXPECT_GE(metrics.counter("net.idle_closes").value(), 1);
    if (!traced) {
      EXPECT_GE(eof_after, 0.0) << "the silent peer was never closed";
      EXPECT_LE(eof_after, kIdle + 2 * kHeartbeat);
    }
    ASSERT_GT(worker, 0);
    int status = -1;
    ASSERT_EQ(waitpid(worker, &status, 0), worker);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
}

TEST(MasterService, NonFramePeerIsClosedAtOnce) {
  // An HTTP request is not a wq frame: its first byte already says so, so
  // the link closes at once rather than at the 30 s idle timeout.
  EventLoop loop;
  MasterServiceConfig config;
  config.idle_timeout = 30.0;
  MasterService master(loop, config);
  const int fd = connect_tcp("127.0.0.1", master.port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  bool closed = false;
  loop.run_every(0.01, [&] {
    if (peer_closed(fd)) {
      closed = true;
      loop.stop();
    }
  });
  loop.run_after(1.0, [&] { loop.stop(); });
  loop.run();
  ::close(fd);
  EXPECT_TRUE(closed) << "no EOF within 1 s";
}

TEST(MasterService, ByeReachesAPeerWhoseFrameTheMasterLeftUnread) {
  // A raw peer with a 4 KiB receive buffer reads nothing while the master
  // stages a 64 KiB input to it, so that input waits in the master's kernel
  // send buffer. The peer then writes a ping the master never reads before
  // shutdown() queues the bye. A socket closed with unread input sends a
  // reset, which discards the bytes still unsent, the bye among them; the
  // master half-closes instead, and the peer reads through to the bye.
  constexpr size_t kFile = 64u << 10;
  EventLoop loop;
  MasterService master(loop, {});
  wq::TaskMessage t = simple_task(700);
  t.infiles.push_back({"big.bin", static_cast<int64_t>(kFile), false});
  master.submit(t, {{"big.bin", serde::Bytes(kFile, 0x5a)}});

  const int peer = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(peer, 0);
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(peer, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(master.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(peer, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const auto send_frame = [peer](const std::string& frame) {
    return ::send(peer, frame.data(), frame.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(frame.size());
  };
  ASSERT_TRUE(send_frame(wq::encode(wq::HelloMessage{"raw", {1.0, 1e9, 1e9}})));
  ASSERT_TRUE(run_until(
      loop, [&] { return master.stats().bytes_sent > static_cast<int64_t>(kFile); },
      5.0));

  ASSERT_TRUE(send_frame(wq::encode(wq::ControlMessage{wq::ControlType::kPing, 1, 0.0})));
  master.shutdown();

  timeval timeout{5, 0};
  ::setsockopt(peer, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  FrameSplitter splitter;
  bool bye = false;
  std::string ended = "timeout";
  char chunk[4096];
  while (!bye) {
    const ssize_t n = ::recv(peer, chunk, sizeof chunk, 0);
    if (n <= 0) {
      ended = n == 0 ? "eof" : std::strerror(errno);
      break;
    }
    splitter.feed(chunk, static_cast<size_t>(n));
    for (const std::string& frame : split_all(splitter)) {
      bye = bye || (wq::classify(frame) == wq::MessageKind::kControl &&
                    wq::decode_control(frame).type == wq::ControlType::kBye);
    }
  }
  ::close(peer);
  EXPECT_TRUE(bye) << "the link ended (" << ended << ") before the bye";
  EXPECT_TRUE(run_until(loop, [&] { return master.connected_workers() == 0; }, 5.0));
}

// A raw peer on a blocking socket whose input is read without blocking,
// so the test's own loop keeps serving the master in between.
struct RawPeer {
  int fd;
  FrameSplitter splitter;
  std::vector<std::string> frames;

  explicit RawPeer(uint16_t port) : fd(connect_tcp("127.0.0.1", port)) {}
  ~RawPeer() {
    if (fd >= 0) ::close(fd);
  }
  bool send(const std::string& frame) const {
    return ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(frame.size());
  }
  void read_available() {
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT)) > 0) {
      splitter.feed(chunk, static_cast<size_t>(n));
      for (std::string& f : split_all(splitter)) frames.push_back(std::move(f));
    }
  }
  size_t count(wq::MessageKind kind) const {
    size_t n = 0;
    for (const std::string& f : frames) n += wq::classify(f) == kind ? 1 : 0;
    return n;
  }
  bool got_bye() const {
    for (const std::string& f : frames) {
      if (wq::classify(f) == wq::MessageKind::kControl &&
          wq::decode_control(f).type == wq::ControlType::kBye) {
        return true;
      }
    }
    return false;
  }
};

TEST(MasterService, PeerThatConnectsWhileLinksDrainGetsTheBye) {
  // The last result is in and the bye is out, but the first peer has not
  // closed yet. A second peer that connects now is accepted, reads a bye,
  // and gets no work; the listener closes once both links are gone.
  EventLoop loop;
  MasterService master(loop, {});
  master.submit(simple_task(710));
  RawPeer first(master.port());
  ASSERT_GE(first.fd, 0);
  ASSERT_TRUE(first.send(wq::encode(wq::HelloMessage{"first", {1.0, 1e9, 1e9}})));
  ASSERT_TRUE(run_until(
      loop,
      [&] {
        first.read_available();
        return first.count(wq::MessageKind::kTask) == 1;
      },
      5.0));
  wq::ResultMessage result;
  result.task_id = 710;
  ASSERT_TRUE(first.send(wq::encode(result)));
  ASSERT_TRUE(run_until(loop, [&] { return master.stats().tasks_completed == 1; }, 5.0));
  master.shutdown();
  ASSERT_TRUE(run_until(
      loop,
      [&] {
        first.read_available();
        return first.got_bye();
      },
      5.0));

  RawPeer late(master.port());
  ASSERT_GE(late.fd, 0) << "the finishing master refused a connect: "
                        << std::strerror(errno);
  ASSERT_TRUE(late.send(wq::encode(wq::HelloMessage{"late", {1.0, 1e9, 1e9}})));
  EXPECT_TRUE(run_until(
      loop,
      [&] {
        late.read_available();
        return late.got_bye();
      },
      5.0))
      << "the late peer never read a bye";
  EXPECT_EQ(late.count(wq::MessageKind::kTask) + late.count(wq::MessageKind::kTaskBatch),
            0u);
  EXPECT_EQ(master.connected_workers(), 1) << "the late peer's hello was taken";

  ::close(std::exchange(first.fd, -1));
  ::close(std::exchange(late.fd, -1));
  EXPECT_TRUE(run_until(
      loop, [&] { return master.statusz_value().at("workers").as_list().empty(); }, 5.0));
  const int fd = connect_tcp("127.0.0.1", master.port());
  EXPECT_LT(fd, 0) << "the listener outlived the links";
  if (fd >= 0) ::close(fd);
}

// --- staged files live while their task is outstanding ----------------------

TEST(MasterService, StagedBytesFollowTheTasksStillOutstanding) {
  // Each task stages its own one-shot input. The dispatch core holds a
  // unit's files until its task completes: statusz reads N x size after N
  // submits, falls by one file per result, and reads 0 once the run ends.
  constexpr int kTasks = 5;
  constexpr size_t kSize = 3000;
  EventLoop loop;
  MasterService master(loop, {});
  for (int i = 0; i < kTasks; ++i) {
    wq::TaskMessage t = simple_task(300 + static_cast<uint64_t>(i));
    const std::string name = "in-" + std::to_string(i) + ".bin";
    t.infiles.push_back({name, static_cast<int64_t>(kSize), false});
    master.submit(t, {{name, serde::Bytes(kSize, static_cast<uint8_t>(i))}});
  }
  auto staged = [&] { return master.statusz_value().at("staged_bytes").as_int(); };
  EXPECT_EQ(staged(), static_cast<int64_t>(kTasks * kSize));

  std::vector<int64_t> staged_after_result;
  master.set_on_result(
      [&](const wq::ResultMessage&) { staged_after_result.push_back(staged()); });
  WorkerClientOptions o;
  o.port = master.port();
  o.name = "echo";
  o.echo_results = true;
  WorkerClient client(o);
  std::thread worker([&] { client.run(); });
  const NetMasterStats stats = master.run_until_complete(20.0);
  worker.join();

  EXPECT_EQ(stats.tasks_completed, kTasks);
  ASSERT_EQ(staged_after_result.size(), static_cast<size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(staged_after_result[i], static_cast<int64_t>((kTasks - 1 - i) * kSize));
  }
  EXPECT_EQ(staged(), 0);
}

TEST(RootMaster, GroupRecoveredDoneHoldsNoStagedFiles) {
  // A group whose every task the journal recovered as done is complete at
  // submit, so its files are released there; a group with work left holds
  // its files.
  chaos::Journal journal;
  for (uint64_t id = 1; id <= 3; ++id) journal.completed(id, {}, 0.0);
  EventLoop loop;
  fed::RootMaster root(loop, {});
  root.recover(journal);
  auto group = [](const std::string& name, uint64_t first) {
    fed::TaskGroup g;
    g.name = name;
    for (uint64_t id = first; id < first + 3; ++id) {
      wq::TaskMessage t = simple_task(id);
      t.infiles.push_back({"env.tar", 4096, true});
      g.tasks.push_back(std::move(t));
    }
    g.files.emplace("env.tar", serde::Bytes(4096, 0x5e));
    return g;
  };
  auto staged = [&] { return root.statusz_value().at("staged_bytes").as_int(); };

  root.submit(group("recovered", 1));
  EXPECT_EQ(root.stats().groups_completed, 1);
  EXPECT_EQ(staged(), 0);
  root.submit(group("fresh", 4));
  EXPECT_EQ(staged(), 4096);
}

// --- files a worker holds belong to one link ---------------------------------

const char* const kIncModule = "def inc(x):\n    return x + 1\n";

// An lfm-pyrun task on the shared cacheable module "inc.py" with its own
// one-shot args. make_python_task ships each module one-shot under its
// task's name; renamed to a shared name, the module is marked cacheable.
std::pair<wq::TaskMessage, wq::FileSet> inc_task(uint64_t id, int64_t x) {
  serde::ValueList args;
  args.push_back(serde::Value(x));
  auto [task, files] = wq::make_python_task(id, "inc", kIncModule, "inc",
                                            serde::Value(std::move(args)),
                                            alloc::Resources{1.0, 512e6, 1e9});
  const std::string own = task.infiles[0].name;  // fn-<id>.py
  task.command_line.replace(task.command_line.find(own), own.size(), "inc.py");
  task.infiles[0].name = "inc.py";
  task.infiles[0].cacheable = true;
  files["inc.py"] = files.at(own);
  files.erase(own);
  return {task, files};
}

serde::Bytes run_in_process(const wq::TaskMessage& task, const wq::FileSet& files) {
  wq::LocalWorkerOptions wo;
  wo.poll_interval = 0.01;
  wq::LocalWorker direct(wo);
  return direct.execute(task, files).payload;
}

TEST(MasterService, LinkCachesNoModuleOfAPythonTask) {
  // make_python_task ships each task's module one-shot, so a link records
  // none of them as shipped: after N Python tasks, statusz counts no cached
  // file for the link that ran them.
  constexpr int kTasks = 6;
  EventLoop loop;
  MasterService master(loop, {});
  for (int i = 0; i < kTasks; ++i) {
    serde::ValueList args;
    args.push_back(serde::Value(int64_t{i}));
    auto [task, files] = wq::make_python_task(
        900 + static_cast<uint64_t>(i), "inc", kIncModule, "inc",
        serde::Value(std::move(args)), alloc::Resources{1.0, 512e6, 1e9});
    master.submit(task, files);
  }
  int results = 0;
  int64_t cached = -1;
  master.set_on_result([&](const wq::ResultMessage&) {
    if (++results < kTasks) return;
    const serde::Value status = master.statusz_value();
    const serde::ValueList& links = status.at("workers").as_list();
    if (links.size() == 1) cached = links[0].at("cached_files").as_int();
  });
  WorkerClientOptions o;
  o.port = master.port();
  o.name = "echo";
  o.echo_results = true;
  WorkerClient client(o);
  std::thread worker([&] { client.run(); });
  const NetMasterStats stats = master.run_until_complete(20.0);
  worker.join();

  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(stats.files_sent, 2 * kTasks);
  EXPECT_EQ(cached, 0);
}

TEST(WorkerClient, ReconnectedWorkerStartsWithNoFiles) {
  // A fake master ships the cacheable module with task 1, then drops the
  // link. On the worker's next link, task 2 names the module without
  // shipping it and fails for want of it: the worker held it for the old
  // link only. Task 3 ships it again and runs.
  auto [t1, f1] = inc_task(1, 1);
  auto [t2, f2] = inc_task(2, 2);
  auto [t3, f3] = inc_task(3, 3);
  const serde::Bytes expected3 = run_in_process(t3, f3);

  EventLoop loop;
  Listener listener(loop, 0);
  std::vector<std::shared_ptr<Connection>> links;
  std::vector<wq::ResultMessage> results;
  auto send_task = [](Connection& c, const wq::TaskMessage& t,
                      const wq::FileSet& files, bool with_module) {
    for (const wq::TaskMessage::FileStanza& s : t.infiles) {
      if (s.cacheable && !with_module) continue;
      c.send(wq::encode(wq::FileMessage{s.name, s.cacheable, files.at(s.name)}));
    }
    c.send(wq::encode(t));
  };
  listener.set_on_accept([&](int fd) {
    const size_t link = links.size() + 1;
    auto c = std::make_shared<Connection>(loop, fd, link);
    c->set_on_message([&, link](Connection& conn, std::string&& wire) {
      const wq::MessageKind kind = wq::classify(wire);
      if (kind == wq::MessageKind::kHello) {
        if (link == 1) send_task(conn, t1, f1, true);
        if (link == 2) send_task(conn, t2, f2, false);
        return;
      }
      if (kind != wq::MessageKind::kResult && kind != wq::MessageKind::kResultBatch) {
        return;
      }
      for (const wq::ResultMessage& r : wq::decode_result_batch(wire)) {
        results.push_back(r);
        if (r.task_id == 1) conn.close("injected drop");
        if (r.task_id == 2) send_task(conn, t3, f3, true);
        if (r.task_id == 3) {
          conn.send(wq::encode(wq::ControlMessage{wq::ControlType::kBye, 0, 0.0}));
        }
      }
    });
    c->set_on_close([](Connection&, const std::string&) {});
    links.push_back(c);
    c->start();
  });
  listener.start();

  const pid_t worker = fork_worker(listener.port(), "rejoin");
  int status = -1;
  bool exited = false;
  run_until(
      loop,
      [&] {
        exited = exited || waitpid(worker, &status, WNOHANG) == worker;
        return exited;
      },
      30.0);
  if (!exited) {
    ::kill(worker, SIGKILL);
    waitpid(worker, &status, 0);
  }
  ASSERT_TRUE(exited) << "the worker never finished";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(links.size(), 2u);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].exit_code, 0);
  EXPECT_EQ(results[1].task_id, 2u);
  EXPECT_EQ(results[1].exit_code, -1) << "task 2 found a file shipped on the old link";
  EXPECT_EQ(results[2].exit_code, 0);
  EXPECT_EQ(results[2].payload, expected3);
}

TEST(NetEndToEnd, MasterReshipsACacheableInputToAReconnectedWorker) {
  // Task 1 ships the cacheable module; the link drops as its result
  // arrives, before task 2 (same module) is dispatched. The reconnected
  // worker starts with no files, so the master ships the module again on
  // the new link, and task 2 runs.
  auto [t1, f1] = inc_task(1, 1);
  auto [t2, f2] = inc_task(2, 2);
  const serde::Bytes expected2 = run_in_process(t2, f2);

  EventLoop loop;
  MasterServiceConfig config;
  config.tasks_per_worker = 1;  // task 2 waits for task 1's result
  MasterService master(loop, config);
  master.submit(t1, f1);
  master.submit(t2, f2);
  std::map<uint64_t, wq::ResultMessage> results;
  master.set_on_result([&](const wq::ResultMessage& r) {
    results[r.task_id] = r;
    if (r.task_id == 1) {
      EXPECT_TRUE(master.drop_connection(0));
    }
  });
  const pid_t worker = fork_worker(master.port(), "rejoin");
  const NetMasterStats stats = master.run_until_complete(60.0);

  EXPECT_EQ(stats.tasks_completed, 2);
  EXPECT_EQ(stats.connections_accepted, 2);
  // The module and task 1's args on the first link; the module again and
  // task 2's args on the second.
  EXPECT_EQ(stats.files_sent, 4);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].exit_code, 0);
  EXPECT_EQ(results[2].exit_code, 0);
  EXPECT_EQ(results[2].payload, expected2);
  int status = -1;
  ASSERT_EQ(waitpid(worker, &status, 0), worker);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

}  // namespace
}  // namespace lfm::net
