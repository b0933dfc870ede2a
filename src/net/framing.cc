#include "net/framing.h"

#include <algorithm>

#include "serde/pickle.h"
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
  // Then the type byte, then the body-length varint, complete once a byte
  // without the continuation bit has arrived.
  if (available < wq::kFrameFixedHeader + 1) return 0;
  const auto* len = reinterpret_cast<const uint8_t*>(base) + wq::kFrameFixedHeader;
  const size_t scan = std::min(available - wq::kFrameFixedHeader, kMaxVarintBytes);
  const size_t last = static_cast<size_t>(
      std::find_if(len, len + scan, [](uint8_t b) { return b < 0x80; }) - len);
  if (last == scan) {
    if (scan == kMaxVarintBytes) throw Error("net: corrupt frame length varint");
    return 0;  // varint still incomplete
  }
  const uint64_t body_len = serde::Reader(len, last + 1).varint();
  // Reject a hostile length prefix NOW, from the handful of header bytes,
  // before waiting for (or buffering) the body.
  if (body_len > wq::max_frame_body_bytes()) {
    throw Error("net: frame body length " + std::to_string(body_len) +
                " exceeds limit " + std::to_string(wq::max_frame_body_bytes()));
  }
  const size_t total = wq::kFrameFixedHeader + last + 1 + static_cast<size_t>(body_len);
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
