#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace lfm {

void parallel_for(size_t n, int threads, const std::function<void(size_t)>& fn) {
  const size_t wanted = threads > 0 ? static_cast<size_t>(threads)
                                    : std::max(1u, std::thread::hardware_concurrency());
  const size_t workers = std::min(n, wanted);
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      while (!failed.load(std::memory_order_relaxed)) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!failed.exchange(true)) error = std::current_exception();
          return;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace lfm
