#include "pkg/chunk.h"

#include <algorithm>
#include <cstring>

#include "util/hash.h"

namespace lfm::pkg {
namespace {

// Gear table for the rolling hash: 256 pseudo-random 64-bit constants,
// derived from splitmix64 so the table (and therefore every chunk boundary)
// is identical across platforms and builds.
struct GearTable {
  uint64_t t[256];
  GearTable() {
    uint64_t x = 0x6c6f6e675f66756eULL;  // fixed seed
    for (uint64_t& v : t) {
      // splitmix64 step (same mixer hash64 finalizes with).
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      v = z ^ (z >> 31);
    }
  }
};

const GearTable& gear() {
  static const GearTable table;
  return table;
}

}  // namespace

std::vector<ChunkRef> chunk_bytes(const uint8_t* data, size_t size,
                                  const ChunkParams& params) {
  if (params.min_size == 0 || params.max_size < params.min_size) {
    throw Error("chunk_bytes: bad params (min must be >0 and <= max)");
  }
  std::vector<ChunkRef> out;
  if (size == 0) return out;
  const uint64_t mask = (uint64_t{1} << params.avg_bits) - 1;
  const GearTable& table = gear();
  size_t start = 0;
  while (start < size) {
    const size_t remaining = size - start;
    size_t len = std::min(remaining, params.max_size);
    if (remaining > params.min_size) {
      uint64_t h = 0;
      // The gear hash's window is implicit (old bytes age out of the high
      // bits after 64 shifts); boundaries declared only past min_size.
      const size_t limit = len;
      for (size_t i = 0; i < limit; ++i) {
        h = (h << 1) + table.t[data[start + i]];
        if (i + 1 >= params.min_size && (h & mask) == 0) {
          len = i + 1;
          break;
        }
      }
    }
    ChunkRef ref;
    ref.size = static_cast<uint32_t>(len);
    ref.digest = hash64(
        std::string_view(reinterpret_cast<const char*>(data + start), len));
    out.push_back(ref);
    start += len;
  }
  return out;
}

void ChunkStore::put(ChunkRef ref, std::shared_ptr<const Bytes> backing,
                     size_t offset) {
  if (!backing || offset + ref.size > backing->size()) {
    throw Error("ChunkStore::put: span out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{ref.digest, ref.size};
  const auto it = map_.find(key);
  if (it != map_.end()) {
    Entry& e = it->second;
    if (std::memcmp(e.backing->data() + e.offset, backing->data() + offset,
                    ref.size) != 0) {
      throw Error("ChunkStore::put: digest collision with different content");
    }
    ++dedup_hits_;
    lru_.erase(e.lru_tick);
    e.lru_tick = ++tick_;
    lru_.emplace(e.lru_tick, key);
    return;
  }
  Entry e;
  e.backing = std::move(backing);
  e.offset = offset;
  e.size = ref.size;
  e.lru_tick = ++tick_;
  map_.emplace(key, std::move(e));
  lru_.emplace(tick_, key);
  bytes_ += ref.size;
  ++inserts_;
  evict_to_capacity_locked();
}

void ChunkStore::evict_to_capacity_locked() {
  while (bytes_ > capacity_bytes_ && map_.size() > 1) {
    const auto victim = lru_.begin();
    const auto it = map_.find(victim->second);
    bytes_ -= it->second.size;
    map_.erase(it);
    lru_.erase(victim);
    ++evictions_;
  }
}

bool ChunkStore::contains(const ChunkRef& ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.count(Key{ref.digest, ref.size}) > 0;
}

void ChunkStore::read(const ChunkRef& ref, Bytes& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(Key{ref.digest, ref.size});
  if (it == map_.end()) {
    throw Error("ChunkStore::read: unknown chunk (evicted?)");
  }
  const Entry& e = it->second;
  out.insert(out.end(), e.backing->data() + e.offset,
             e.backing->data() + e.offset + e.size);
}

ChunkStore::Stats ChunkStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.chunks = static_cast<int64_t>(map_.size());
  s.bytes = bytes_;
  s.capacity_bytes = capacity_bytes_;
  s.inserts = inserts_;
  s.dedup_hits = dedup_hits_;
  s.evictions = evictions_;
  return s;
}

void ChunkStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  bytes_ = 0;
  inserts_ = dedup_hits_ = evictions_ = 0;
}

ChunkStore& global_chunk_store() {
  static ChunkStore* store = new ChunkStore;
  return *store;
}

ChunkManifest chunk_into_store(const std::shared_ptr<const Bytes>& backing,
                               ChunkStore& store, const ChunkParams& params) {
  const Bytes& data = *backing;
  ChunkManifest manifest;
  size_t offset = 0;
  for (const ChunkRef& ref : chunk_bytes(data.data(), data.size(), params)) {
    store.put(ref, backing, offset);
    manifest.append(ref);
    offset += ref.size;
  }
  manifest.set_stream_digest(hash64(std::string_view(
      reinterpret_cast<const char*>(data.data()), data.size())));
  return manifest;
}

Bytes reassemble(const ChunkManifest& manifest, const ChunkStore& store) {
  Bytes out;
  out.reserve(static_cast<size_t>(manifest.total_bytes()));
  for (const ChunkRef& c : manifest.chunks()) store.read(c, out);
  const uint64_t digest = hash64(
      std::string_view(reinterpret_cast<const char*>(out.data()), out.size()));
  if (digest != manifest.stream_digest()) {
    throw Error("reassemble: stream digest mismatch");
  }
  return out;
}

}  // namespace lfm::pkg
