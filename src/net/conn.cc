#include "net/conn.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/socket.h"
#include "obs/recorder.h"
#include "util/error.h"
#include "util/log.h"

namespace lfm::net {

namespace {
// The last flushed connection's backlog, set on every socket flush.
obs::Level net_write_queue_bytes{"net.write_queue_bytes"};
}  // namespace

Connection::Connection(EventLoop& loop, int fd, uint64_t id)
    : loop_(loop), fd_(fd), id_(id), last_activity_(EventLoop::now()) {
  set_nonblocking(fd_);
  set_nodelay(fd_);
}

Connection::~Connection() {
  if (!closed_ && fd_ >= 0) {
    loop_.remove_fd(fd_);
    ::close(fd_);
  }
}

void Connection::start() {
  auto self = shared_from_this();
  loop_.add_fd(fd_, EPOLLIN, [self](uint32_t events) { self->handle_events(events); });
}

void Connection::update_interest() {
  const bool want = !outbound_.empty();
  if (want == want_write_) return;
  want_write_ = want;
  loop_.modify_fd(fd_, EPOLLIN | (want ? EPOLLOUT : 0u));
}

void Connection::send(std::string frame) { send(std::move(frame), nullptr); }

void Connection::send(std::string head, std::shared_ptr<const serde::Bytes> payload) {
  if (closed_ || close_after_flush_) return;
  messages_out_ += 1;
  Outbound& out = outbound_.emplace_back(Outbound{std::move(head), std::move(payload)});
  queued_bytes_ += out.size();
  flush_writes();
}

void Connection::flush_writes() {
  while (!outbound_.empty()) {
    // The front frame's unsent bytes: the rest of its head, then of its
    // payload.
    const Outbound& front = outbound_.front();
    iovec iov[2];
    size_t parts = 0;
    size_t into_payload = 0;
    if (outbound_offset_ < front.head.size()) {
      iov[parts++] = {const_cast<char*>(front.head.data()) + outbound_offset_,
                      front.head.size() - outbound_offset_};
    } else {
      into_payload = outbound_offset_ - front.head.size();
    }
    if (front.payload) {
      iov[parts++] = {const_cast<uint8_t*>(front.payload->data()) + into_payload,
                      front.payload->size() - into_payload};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = parts;
    // MSG_NOSIGNAL: a peer that vanished mid-write surfaces as EPIPE, not a
    // process-wide SIGPIPE.
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close(std::string("write error: ") + std::strerror(errno));
      return;
    }
    bytes_out_ += n;
    queued_bytes_ -= static_cast<size_t>(n);
    outbound_offset_ += static_cast<size_t>(n);
    if (outbound_offset_ == front.size()) {
      // Drops the payload's reference with the frame.
      outbound_.pop_front();
      outbound_offset_ = 0;
    }
  }
  net_write_queue_bytes.set(static_cast<double>(queued_bytes_));
  if (outbound_.empty() && close_after_flush_) {
    shutdown_write();
    return;
  }
  update_interest();
}

void Connection::shutdown_write() {
  // Half-close: the peer reads everything queued, then EOF. Closing here
  // instead would, with unread bytes in our receive queue, send a reset
  // that discards what the peer has not read yet (the bye among it). The
  // link closes when the peer's EOF arrives, or by the owner's idle
  // timeout.
  if (::shutdown(fd_, SHUT_WR) != 0) {
    close(std::string("shutdown: ") + std::strerror(errno));
    return;
  }
  update_interest();
}

void Connection::handle_readable() {
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      bytes_in_ += n;
      last_activity_ = EventLoop::now();
      try {
        splitter_.feed(chunk, static_cast<size_t>(n));
        std::string message;
        while (!closed_ && splitter_.next(message)) {
          messages_in_ += 1;
          if (on_message_) on_message_(*this, std::move(message));
        }
      } catch (const Error& e) {
        close(e.what());
        return;
      }
      if (closed_) return;
      continue;
    }
    if (n == 0) {
      close(splitter_.buffered() > 0 ? "mid-frame eof" : "eof");
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    close(std::string("read error: ") + std::strerror(errno));
    return;
  }
}

void Connection::handle_events(uint32_t events) {
  if (closed_) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    // Drain anything readable first: a peer that wrote then closed delivers
    // EPOLLIN|EPOLLHUP together and the bytes are still there.
    handle_readable();
    if (!closed_) close("hangup");
    return;
  }
  if (events & EPOLLOUT) {
    flush_writes();
    if (closed_) return;
  }
  if (events & EPOLLIN) handle_readable();
}

void Connection::close(const std::string& reason) {
  if (closed_) return;
  closed_ = true;
  loop_.remove_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  outbound_.clear();
  queued_bytes_ = 0;
  if (on_close_) {
    // Move out first: on_close often destroys the owner's reference.
    CloseFn fn = std::move(on_close_);
    fn(*this, reason);
  }
}

void Connection::close_after_flush() {
  if (closed_ || close_after_flush_) return;
  close_after_flush_ = true;
  if (outbound_.empty()) shutdown_write();
}

Listener::Listener(EventLoop& loop, uint16_t port, const std::string& bind_addr)
    : loop_(loop) {
  fd_ = listen_tcp(port, bind_addr);
  port_ = local_port(fd_);
}

Listener::~Listener() { close(); }

void Listener::close() {
  if (fd_ < 0) return;
  if (started_) loop_.remove_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  started_ = false;
}

void Listener::start() {
  started_ = true;
  loop_.add_fd(fd_, EPOLLIN, [this](uint32_t) {
    while (true) {
      const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (client < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          LFM_WARN("net", std::string("accept: ") + std::strerror(errno));
        }
        return;
      }
      if (on_accept_) on_accept_(client);
    }
  });
}

}  // namespace lfm::net
