// conda-pack-style environment packing (paper §V.D).
//
// "Transferring packed environments": the master creates the environment,
// captures it into a single archive, ships the archive to each worker, and
// the worker unpacks it onto fast local storage and relocates it for its new
// prefix. This module implements that mechanism for real: an in-memory
// archive model, a POSIX ustar writer/reader (so packed environments are
// genuine .tar files), on-disk directory pack/unpack, and the prefix
// relocation step conda-pack performs after extraction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pkg/chunk.h"
#include "serde/value.h"  // for Bytes
#include "util/error.h"
#include "util/lru.h"

namespace lfm::pkg {

class Environment;

using serde::Bytes;

struct ArchiveEntry {
  std::string path;           // archive-relative path
  uint32_t mode = 0644;       // POSIX permission bits
  bool is_directory = false;
  Bytes data;
};

class Archive {
 public:
  void add_file(std::string path, Bytes data, uint32_t mode = 0644);
  void add_directory(std::string path);

  const std::vector<ArchiveEntry>& entries() const { return entries_; }
  std::vector<ArchiveEntry>& entries() { return entries_; }
  size_t file_count() const;
  int64_t total_bytes() const;

  const ArchiveEntry* find(const std::string& path) const;

 private:
  std::vector<ArchiveEntry> entries_;
};

// Serialize an archive in POSIX ustar format (readable by tar(1)).
// Paths longer than 255 bytes (or non-splittable >100-byte names) throw.
Bytes write_tar(const Archive& archive);

// Parse a ustar buffer produced by write_tar or compatible tools.
// Throws lfm::Error on malformed headers or bad checksums.
Archive read_tar(const Bytes& data);

// Pack a directory tree from disk into an archive (paths relative to root).
Archive pack_directory(const std::string& root);

// Materialize an archive under the given directory, creating parents.
void unpack_to(const Archive& archive, const std::string& root);

// conda-pack prefix relocation: rewrite occurrences of `old_prefix` to
// `new_prefix` in all text-like entries (heuristic: no NUL bytes in the
// first 1 KiB). Returns the number of entries rewritten.
int relocate_prefix(Archive& archive, const std::string& old_prefix,
                    const std::string& new_prefix);

// A packed environment: the ustar archive plus the content-defined chunk
// manifest describing it (the simulator's delta distribution reads the
// manifest). Both are immutable and shared out of the pack cache.
struct PackedEnvironment {
  std::shared_ptr<const Bytes> tar;
  std::shared_ptr<const ChunkManifest> manifest;
};

// Synthesize, tar, and chunk a resolved environment, deduplicated by package
// signature: every environment with the same pinned package set — whatever
// its name — shares one immutable archive (the paper's observation that one
// packed env serves all invocations of a function, §V.D). The archive
// carries the pinned requirements list, the relocatable text entries
// (dist-info files embedding a canonical build prefix derived from the
// signature), and a MANIFEST listing every synthesized payload file with its
// size; payload bytes themselves are elided so multi-GB environments stay
// packable in memory (the distribution cost models operate on sizes).
//
// Cold packs run a parallel pipeline: one task per package (synthesize +
// tar-entry render + chunking), merged in the environment's sorted package
// order. `threads` <= 0 uses hardware concurrency; output bytes and manifest
// are identical for every thread count (DESIGN.md §12).
PackedEnvironment packed_environment(const Environment& env, int threads = 0);

// Archive-only accessor, same cache as packed_environment().
std::shared_ptr<const Bytes> packed_environment_tar(const Environment& env);

// The canonical build prefix embedded in (and relocatable out of) the text
// entries of `packed_environment_tar` output for this environment.
std::string packed_environment_prefix(const Environment& env);

// Observability for the process-wide packed-archive memo. `hits` counts
// archives served without re-packing.
CacheStats pack_cache_stats();
void clear_pack_cache();

}  // namespace lfm::pkg
