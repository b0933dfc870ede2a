// A work-stealing loop over indices, shared by the bulk analysis
// (flow::analyze_all) and the packer's cold pack.
#pragma once

#include <cstddef>
#include <functional>

namespace lfm {

// Run fn(i) once for every i in [0, n) on up to `threads` threads (<= 0:
// one per hardware thread). Each thread claims the next index, so a caller
// that writes index i's result into slot i gets output that never depends
// on scheduling. The first exception stops further claims and is rethrown
// on the caller once the pool drains. With one thread, or n <= 1, fn runs
// on the caller.
void parallel_for(size_t n, int threads, const std::function<void(size_t)>& fn);

}  // namespace lfm
