// Incremental reassembly of wq frames from a TCP byte stream.
//
// TCP delivers bytes, not messages: one send() can arrive fragmented across
// many reads (down to one byte at a time) and many sends can coalesce into
// one read. FrameSplitter turns that stream back into the exact frames the
// wq::protocol codecs accept. It parses each header incrementally:
//
//   * the prefix bytes 0xF7 'Q' 0x02 are checked as soon as each one is
//     buffered, so a stream that is not wq frames (an HTTP request, a
//     stray text protocol) is rejected from its first wrong byte;
//   * the varint body length is checked against wq::max_frame_body_bytes()
//     the moment it completes, so a hostile 16-byte header cannot make the
//     receiver allocate gigabytes.
//
// Both checks run before any body byte is waited for; a frame is handed
// out once exactly header+body bytes are buffered.
#pragma once

#include <cstddef>
#include <string>

namespace lfm::net {

class FrameSplitter {
 public:
  // Append raw stream bytes.
  void feed(const char* data, size_t size);
  void feed(const std::string& data) { feed(data.data(), data.size()); }

  // Extract the next complete frame, if any. Call in a loop after feed().
  // Throws lfm::Error on a malformed or oversized frame header; the
  // connection owning the stream must then be dropped (there is no way to
  // resynchronize a binary stream with a corrupt header).
  bool next(std::string& message);

  // Bytes buffered but not yet forming a complete frame. Non-zero when
  // the peer closed mid-frame — the owner should treat that EOF as dirty.
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  // Returns the total byte length of the first buffered frame, or 0 if
  // more bytes are needed. Throws on a malformed/oversized header.
  size_t probe() const;

  std::string buffer_;
  size_t consumed_ = 0;  // bytes already handed out (compacted lazily)
};

}  // namespace lfm::net
