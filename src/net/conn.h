// Listener and Connection: the event-driven socket endpoints every piece of
// the transport runtime is built from (DESIGN.md §13).
//
// A Connection owns one non-blocking TCP fd registered with the EventLoop.
// Inbound bytes are drained on EPOLLIN into a FrameSplitter, which hands
// complete wire messages to the on_message callback. Outbound messages go
// through send(): bytes are written immediately until the kernel buffer
// fills, and the remainder queues in an outbound deque flushed on EPOLLOUT —
// queued_bytes() is the backpressure signal the master's dispatcher consults
// before assigning more work to a connection. A file frame queues as its
// header plus the shared file buffer, and goes out from both with one
// gathering send.
//
// Lifetime: connections are shared_ptr-owned. The epoll handler holds a
// strong reference, so a connection stays alive through the callback that
// closes it; close() breaks the cycle by deregistering the fd. on_close
// fires exactly once, with a reason string ("eof", "mid-frame eof", a
// protocol error, ...).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/framing.h"
#include "serde/value.h"
#include "wq/protocol.h"

namespace lfm::net {

// The unsent bytes a link may queue before its owner stops adding to it: a
// master assigns it no more work, and a dialing end drops trace events
// instead of queueing them.
constexpr size_t kWriteBacklogBytes = 4u << 20;

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  using MessageFn = std::function<void(Connection&, std::string&&)>;
  using CloseFn = std::function<void(Connection&, const std::string& reason)>;

  // Takes ownership of `fd` (made non-blocking + NODELAY). Call start()
  // after the callbacks are set.
  Connection(EventLoop& loop, int fd, uint64_t id);
  ~Connection();

  void set_on_message(MessageFn fn) { on_message_ = std::move(fn); }
  void set_on_close(CloseFn fn) { on_close_ = std::move(fn); }

  // Register with the loop and begin reading.
  void start();

  // Queue one encoded wire message; writes as much as the socket accepts
  // now, the rest drains on EPOLLOUT. No-op on a closed connection.
  void send(std::string frame);
  // Queue one frame that goes out as `head` followed by the shared
  // `payload` (a file frame: its encoded header, then the file's bytes).
  // The payload is written from the buffer itself, never copied, and the
  // connection holds a reference to it until its last byte is written.
  void send(std::string head, std::shared_ptr<const serde::Bytes> payload);

  // Outbound bytes accepted but not yet written to the kernel, a queued
  // payload's included.
  size_t queued_bytes() const { return queued_bytes_; }

  // Deregister, close the fd, fire on_close (once).
  void close(const std::string& reason);
  // Send nothing more; once the write queue drains, shut down the write
  // side and keep reading until the peer's EOF closes the link.
  void close_after_flush();

  bool closed() const { return closed_; }
  uint64_t id() const { return id_; }
  int fd() const { return fd_; }
  // EventLoop::now() of the last byte received — idle-timeout bookkeeping.
  double last_activity() const { return last_activity_; }

  // Transfer totals (this connection's lifetime).
  int64_t bytes_in() const { return bytes_in_; }
  int64_t bytes_out() const { return bytes_out_; }
  int64_t messages_in() const { return messages_in_; }
  int64_t messages_out() const { return messages_out_; }

 private:
  void handle_events(uint32_t events);
  void handle_readable();
  // One queued frame: its bytes are `head`, then `payload`'s, if any.
  struct Outbound {
    std::string head;
    std::shared_ptr<const serde::Bytes> payload;
    size_t size() const { return head.size() + (payload ? payload->size() : 0); }
  };

  // Write queued data until empty or EAGAIN, one frame per send (its
  // head and payload gathered); manages EPOLLOUT interest.
  void flush_writes();
  void update_interest();
  void shutdown_write();

  EventLoop& loop_;
  int fd_;
  uint64_t id_;
  FrameSplitter splitter_;
  MessageFn on_message_;
  CloseFn on_close_;
  std::deque<Outbound> outbound_;
  size_t outbound_offset_ = 0;  // bytes of outbound_.front() already written
  size_t queued_bytes_ = 0;
  bool want_write_ = false;
  bool close_after_flush_ = false;
  bool closed_ = false;
  double last_activity_ = 0.0;
  int64_t bytes_in_ = 0;
  int64_t bytes_out_ = 0;
  int64_t messages_in_ = 0;
  int64_t messages_out_ = 0;
};

class Listener {
 public:
  using AcceptFn = std::function<void(int fd)>;

  // Bind + listen immediately (port 0 = ephemeral; see port()).
  Listener(EventLoop& loop, uint16_t port, const std::string& bind_addr = "127.0.0.1");
  ~Listener();

  void set_on_accept(AcceptFn fn) { on_accept_ = std::move(fn); }
  void start();  // register with the loop

  // Stop accepting: unregister and close the socket. The kernel resets any
  // connections still sitting in the backlog, so peers that raced a connect
  // against shutdown see a refusal instead of an unanswered handshake.
  void close();

  uint16_t port() const { return port_; }

 private:
  EventLoop& loop_;
  int fd_ = -1;
  uint16_t port_ = 0;
  AcceptFn on_accept_;
  bool started_ = false;
};

// Send `msgs` (task or result messages) in one frame: a batch frame, or a
// single message's own frame. Sends nothing for none.
template <class Msg>
void send_batch(Connection& conn, const std::vector<Msg>& msgs) {
  if (msgs.empty()) return;
  conn.send(msgs.size() == 1 ? wq::encode(msgs[0]) : wq::encode_batch(msgs));
}

}  // namespace lfm::net
