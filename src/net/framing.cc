#include "net/framing.h"

#include "util/error.h"
#include "wq/protocol.h"

namespace lfm::net {
namespace {

constexpr size_t kMaxVarintBytes = 10;
constexpr uint8_t kFramePrefix[] = {wq::kFrameMagic0, wq::kFrameMagic1,
                                    wq::kFrameVersion};

}  // namespace

void FrameSplitter::feed(const char* data, size_t size) {
  // Lazy compaction: drop consumed bytes once they dominate the buffer, so
  // a long-lived connection doesn't grow without bound but extraction stays
  // amortized O(1) per message.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

size_t FrameSplitter::probe() const {
  const size_t available = buffered();
  const char* base = buffer_.data() + consumed_;
  for (size_t i = 0; i < sizeof kFramePrefix && i < available; ++i) {
    if (static_cast<uint8_t>(base[i]) != kFramePrefix[i]) {
      throw Error("net: bad frame header byte " + std::to_string(i));
    }
  }
  // Then the type byte, then the body-length varint, parsed incrementally.
  if (available < wq::kFrameFixedHeader + 1) return 0;
  uint64_t body_len = 0;
  int shift = 0;
  size_t i = wq::kFrameFixedHeader;
  while (true) {
    if (i >= available) return 0;  // varint still incomplete
    if (i - wq::kFrameFixedHeader >= kMaxVarintBytes || shift > 63) {
      throw Error("net: corrupt frame length varint");
    }
    const uint8_t b = static_cast<uint8_t>(base[i]);
    body_len |= static_cast<uint64_t>(b & 0x7f) << shift;
    ++i;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  // Reject a hostile length prefix NOW, from the handful of header bytes,
  // before waiting for (or buffering) the body.
  if (body_len > wq::max_frame_body_bytes()) {
    throw Error("net: frame body length " + std::to_string(body_len) +
                " exceeds limit " + std::to_string(wq::max_frame_body_bytes()));
  }
  const size_t total = i + static_cast<size_t>(body_len);
  return available >= total ? total : 0;
}

bool FrameSplitter::next(std::string& message) {
  const size_t total = probe();
  if (total == 0) return false;
  message.assign(buffer_, consumed_, total);
  consumed_ += total;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return true;
}

}  // namespace lfm::net
