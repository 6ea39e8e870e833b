// Bad: raw threading outside src/sim/parallel.cc. A private thread (or any
// shared-mutable-state primitive) makes event interleaving scheduler- and
// load-dependent, which breaks bit-for-bit reproducibility.
//
// det-expect: thread-confinement

#include <atomic>  // det-expect: thread-confinement
#include <mutex>   // det-expect: thread-confinement
#include <thread>

namespace iri::core {

std::atomic<int> fx_shared_counter{0};  // det-expect: thread-confinement
std::mutex fx_mutex;                    // det-expect: thread-confinement

void FxSpawn() {
  std::thread worker(  // det-expect: thread-confinement
      [] { fx_shared_counter.fetch_add(1); });
  worker.join();
}

}  // namespace iri::core
