// The three-dimensional resource vector the scheduler packs by
// (cores, memory, disk) — paper §VI.
#pragma once

#include <algorithm>
#include <cstdint>

namespace lfm::alloc {

struct Resources {
  double cores = 0.0;
  double memory_bytes = 0.0;
  double disk_bytes = 0.0;

  bool fits_in(const Resources& available) const {
    return cores <= available.cores && memory_bytes <= available.memory_bytes &&
           disk_bytes <= available.disk_bytes;
  }

  Resources operator+(const Resources& o) const {
    return {cores + o.cores, memory_bytes + o.memory_bytes, disk_bytes + o.disk_bytes};
  }
  Resources operator-(const Resources& o) const {
    return {cores - o.cores, memory_bytes - o.memory_bytes, disk_bytes - o.disk_bytes};
  }
  Resources& operator+=(const Resources& o) {
    cores += o.cores;
    memory_bytes += o.memory_bytes;
    disk_bytes += o.disk_bytes;
    return *this;
  }
  Resources& operator-=(const Resources& o) {
    cores -= o.cores;
    memory_bytes -= o.memory_bytes;
    disk_bytes -= o.disk_bytes;
    return *this;
  }

  static Resources elementwise_max(const Resources& a, const Resources& b) {
    return {std::max(a.cores, b.cores), std::max(a.memory_bytes, b.memory_bytes),
            std::max(a.disk_bytes, b.disk_bytes)};
  }

  bool nonnegative() const {
    return cores >= 0.0 && memory_bytes >= 0.0 && disk_bytes >= 0.0;
  }
};

}  // namespace lfm::alloc
