// Content-addressed chunk layer for incremental environment distribution.
//
// The packer (packer.h) splits every packed environment's ustar stream into
// content-defined chunks; a `ChunkManifest` (the ordered digest list) fully
// describes the archive. Two environments sharing a package produce
// identical chunks for that package's bytes, so a worker that already holds
// a sibling environment's chunks only fetches the difference (the
// simulator's delta distribution, wq::MasterConfig::delta_distribution).
// A `ChunkStore` holds chunk payloads as spans into immutable archives;
// nothing in the packer or the runtime fills one (see global_chunk_store).
//
// Determinism: chunk boundaries depend only on the bytes of the logical
// segment being chunked (gear rolling hash over a fixed table), never on
// position in the archive, thread count, or insertion order — the manifest
// for an environment is a pure function of its pinned package set.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serde/value.h"  // for Bytes
#include "util/error.h"

namespace lfm::pkg {

using serde::Bytes;

// One content-defined chunk: 64-bit content digest + its byte length.
struct ChunkRef {
  uint64_t digest = 0;
  uint32_t size = 0;

  bool operator==(const ChunkRef& o) const {
    return digest == o.digest && size == o.size;
  }
};

// Content-defined chunking parameters. Boundaries are declared where the
// gear hash's low `avg_bits` bits vanish, clamped to [min_size, max_size];
// a trailing remainder shorter than min_size becomes its own chunk.
struct ChunkParams {
  size_t min_size = 512;
  size_t avg_bits = 11;  // expected chunk length 2^11 = 2 KiB
  size_t max_size = 8192;
};

// Split `data` into content-defined chunks. Offsets are implicit: chunk i
// starts where chunk i-1 ended; sizes sum to data.size. Pure function of
// the bytes and the params.
std::vector<ChunkRef> chunk_bytes(const uint8_t* data, size_t size,
                                  const ChunkParams& params = {});

// Ordered digest list describing one packed archive. Reassembling the
// chunks in order yields the byte-identical ustar the serial packer writes.
class ChunkManifest {
 public:
  ChunkManifest() = default;

  void append(ChunkRef ref) {
    chunks_.push_back(ref);
    total_bytes_ += ref.size;
  }
  void append(const std::vector<ChunkRef>& refs) {
    for (const ChunkRef& r : refs) append(r);
  }

  const std::vector<ChunkRef>& chunks() const { return chunks_; }
  size_t chunk_count() const { return chunks_.size(); }
  int64_t total_bytes() const { return total_bytes_; }

  // Digest of the reassembled stream (integrity check for reassemble()).
  uint64_t stream_digest() const { return stream_digest_; }
  void set_stream_digest(uint64_t d) { stream_digest_ = d; }

  bool operator==(const ChunkManifest& o) const {
    return chunks_ == o.chunks_ && total_bytes_ == o.total_bytes_ &&
           stream_digest_ == o.stream_digest_;
  }

 private:
  std::vector<ChunkRef> chunks_;
  int64_t total_bytes_ = 0;
  uint64_t stream_digest_ = 0;
};

// Content-addressed chunk payload store. Payloads are spans into immutable
// archives (no bytes are copied on insert); the shared_ptr keeps the
// backing archive alive while any chunk references it. Bounded:
// least-recently-used chunks are dropped past `capacity_bytes`.
class ChunkStore {
 public:
  explicit ChunkStore(int64_t capacity_bytes = 256LL << 20)
      : capacity_bytes_(capacity_bytes) {}

  // Register a chunk payload. Inserting an existing digest with different
  // bytes throws (a 64-bit digest collision would silently corrupt every
  // manifest naming it; detecting it beats debugging it).
  void put(ChunkRef ref, std::shared_ptr<const Bytes> backing, size_t offset);

  // True when the store currently holds the chunk.
  bool contains(const ChunkRef& ref) const;

  // Copy the chunk's payload into `out`; throws if unknown (evicted).
  void read(const ChunkRef& ref, Bytes& out) const;

  struct Stats {
    int64_t chunks = 0;          // live chunks
    int64_t bytes = 0;           // live payload bytes (spans, not copies)
    int64_t capacity_bytes = 0;
    int64_t inserts = 0;         // put() calls that added a new chunk
    int64_t dedup_hits = 0;      // put() calls answered by an existing chunk
    int64_t evictions = 0;
  };
  Stats stats() const;

  void clear();

 private:
  struct Entry {
    std::shared_ptr<const Bytes> backing;
    size_t offset = 0;
    uint32_t size = 0;
    uint64_t lru_tick = 0;
  };
  struct Key {
    uint64_t digest;
    uint32_t size;
    bool operator==(const Key& o) const {
      return digest == o.digest && size == o.size;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.digest ^ (static_cast<uint64_t>(k.size) << 32));
    }
  };

  void evict_to_capacity_locked();

  mutable std::mutex mu_;
  int64_t capacity_bytes_;
  int64_t bytes_ = 0;
  uint64_t tick_ = 0;
  int64_t inserts_ = 0;
  int64_t dedup_hits_ = 0;
  int64_t evictions_ = 0;
  std::unordered_map<Key, Entry, KeyHash> map_;
  // (lru_tick, key): begin() is the least recently touched chunk.
  std::map<uint64_t, Key> lru_;
};

// A process-wide store. Nothing under src/ fills or reads it; it, the two
// functions below and ChunkStore itself stay only for perfbench's pkg.*
// layer rows and tests/chunk_test.cc.
ChunkStore& global_chunk_store();

// Concatenate the manifest's chunks from `store` into the original archive
// bytes. Throws if a chunk was evicted or the reassembled stream's digest
// disagrees with the manifest.
Bytes reassemble(const ChunkManifest& manifest, const ChunkStore& store);

// Chunk `backing` and register every chunk in `store` (spans into `backing`,
// which the store's shared_ptr keeps alive — no payload copies). Returns the
// manifest, stream digest included, ready for reassemble().
ChunkManifest chunk_into_store(const std::shared_ptr<const Bytes>& backing,
                               ChunkStore& store,
                               const ChunkParams& params = {});

}  // namespace lfm::pkg
