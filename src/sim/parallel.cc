// iri_det's thread-confinement check exempts this file — it is the single
// home of raw threading primitives (see parallel.h for the determinism
// argument).
#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace iri::sim {

int DefaultParallelism() {
  const char* env = std::getenv("IRI_PARALLEL_EXCHANGES");
  if (env != nullptr && *env != '\0') {
    const char* end = env + std::strlen(env);
    int parsed = 0;
    const auto [ptr, ec] = std::from_chars(env, end, parsed);
    if (ec != std::errc() || ptr != end || parsed <= 0) {
      std::fprintf(stderr,
                   "IRI_PARALLEL_EXCHANGES=%s: expected a positive integer\n",
                   env);
      std::exit(2);
    }
    return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (threads <= 0) threads = DefaultParallelism();
  threads = std::min(threads, n);

  if (threads == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<int> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 0; t < threads - 1; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is worker #0
  for (auto& th : pool) th.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace iri::sim
