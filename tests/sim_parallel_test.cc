// The fork-join helper behind the partitioned multi-exchange runner. These
// tests pin the contract the determinism argument rests on: every index runs
// exactly once, one worker means a plain inline loop, and exceptions
// propagate to the caller instead of vanishing on a pool thread.
#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace iri::sim {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    std::vector<int> hits(97, 0);
    ParallelFor(97, threads, [&hits](int i) {
      // Each index owns its slot; no synchronization needed.
      hits[static_cast<std::size_t>(i)] += 1;
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 97)
        << "threads=" << threads;
    for (int h : hits) EXPECT_EQ(h, 1) << "threads=" << threads;
  }
}

TEST(ParallelFor, SingleWorkerRunsInOrderOnCallingThread) {
  std::vector<int> order;
  ParallelFor(5, 1, [&order](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ZeroAndNegativeCountsAreNoOps) {
  int calls = 0;
  ParallelFor(0, 4, [&calls](int) { ++calls; });
  ParallelFor(-3, 4, [&calls](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, MoreThreadsThanWorkStillCoversAllIndices) {
  std::vector<int> hits(3, 0);
  ParallelFor(3, 16, [&hits](int i) { hits[static_cast<std::size_t>(i)] += 1; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  for (int threads : {1, 4}) {
    EXPECT_THROW(
        ParallelFor(8, threads,
                    [](int i) {
                      if (i == 5) throw std::runtime_error("partition failed");
                    }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(DefaultParallelism, IsAtLeastOne) {
  EXPECT_GE(DefaultParallelism(), 1);
}

// Sets IRI_PARALLEL_EXCHANGES for one scope and restores it afterwards, so
// a value the whole binary runs under still holds for the other tests.
class ScopedParallelEnv {
 public:
  explicit ScopedParallelEnv(const char* value) {
    const char* old = std::getenv(kName);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    setenv(kName, value, 1);
  }
  ~ScopedParallelEnv() {
    if (had_) {
      setenv(kName, saved_.c_str(), 1);
    } else {
      unsetenv(kName);
    }
  }

 private:
  static constexpr const char* kName = "IRI_PARALLEL_EXCHANGES";
  bool had_ = false;
  std::string saved_;
};

TEST(DefaultParallelism, ReadsAPositiveInteger) {
  {
    const ScopedParallelEnv env("3");
    EXPECT_EQ(DefaultParallelism(), 3);
  }
  {
    // Set but empty: same as unset.
    const ScopedParallelEnv env("");
    EXPECT_GE(DefaultParallelism(), 1);
  }
}

// A mistyped worker count must not run quietly: "4x" used to run 4 workers
// and "abc" hardware concurrency. Only DefaultParallelism runs in the child,
// so no pool is ever started.
TEST(DefaultParallelismDeathTest, MalformedValueFailsNamingIt) {
  // Earlier tests ran worker pools; re-execute rather than fork a process
  // that has had threads (the CI TSan leg runs this binary).
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* value : {"abc", "4x", "0"}) {
    const ScopedParallelEnv env(value);
    EXPECT_EXIT(DefaultParallelism(), testing::ExitedWithCode(2),
                std::string("IRI_PARALLEL_EXCHANGES=") + value)
        << "value " << value;
  }
}

}  // namespace
}  // namespace iri::sim
