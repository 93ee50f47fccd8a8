// A fixed-size worker pool and deterministic parallel loops.
//
// This is the parallelism layer of a study: run_full_study builds one pool
// and runs every phase on it — the measurement-epoch convergence and the
// active experiments' BGP simulation beside the per-batch corpus
// convergences and each epoch's corpus assembly and relationship
// inference; then the measurement epoch's inference beside the traceroute
// chunks; then the GR path-set precompute, and the extended model and
// analyses, whose own loops nest inside. Three rules keep parallel runs
// byte-identical to serial runs:
//   * Work is *claimed* dynamically (atomic index counter) but results are
//     always *consumed* in input order — parallel_map returns outputs at
//     their input index, and callers merge in that order.
//   * Workers never touch an Rng; all randomness stays in the serial
//     orchestration that surrounds a loop.
//   * threads == 1 builds no workers at all and every loop degenerates to
//     plain inline execution on the calling thread, so the default path is
//     exactly the pre-parallel code.
//
// The calling thread always participates in its own loop, and it always
// runs the loop's first index itself, so a job placed first allocates in
// the caller's malloc arena on every run rather than in whichever worker's
// arena happened to claim it (DESIGN.md §6). Even when every worker is busy
// (or when parallel_for is invoked from *inside* a worker — nested loops),
// the caller drains the remaining indices itself, so a loop can never
// deadlock waiting for pool capacity.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <condition_variable>

namespace irp {

/// Thread-count knob of a study's one pool.
struct ParallelConfig {
  /// Number of study threads: 1 (default) runs the classic serial path,
  /// 0 uses one thread per hardware core, any other value is taken
  /// literally.
  int threads = 1;
};

/// Resolves a ParallelConfig::threads request to a concrete count (>= 1);
/// `requested <= 0` maps to std::thread::hardware_concurrency().
int resolve_threads(int requested);

/// Fixed-size worker pool; see the file comment for the execution model.
class ThreadPool {
 public:
  /// Spawns `resolve_threads(threads) - 1` workers; the calling thread is
  /// the remaining loop participant.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Loop participants: workers plus the calling thread.
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Calls `fn(i)` exactly once for every i in [first, last), distributed
  /// over the pool, and blocks until every call returned; `fn(first)` runs
  /// on the calling thread. The first exception thrown by any invocation is
  /// rethrown here (indices not yet claimed when it fires are skipped).
  /// Safe to call from inside a worker.
  template <typename Fn>
  void parallel_for(std::size_t first, std::size_t last, Fn&& fn) {
    if (first >= last) return;
    run_loop(last - first,
             [&fn, first](std::size_t i) { fn(first + i); });
  }

  /// Maps `fn` over [0, n) and returns the results *in index order* — the
  /// output is independent of execution interleaving.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    using R = decltype(fn(std::size_t{}));
    std::vector<std::optional<R>> slots(n);
    run_loop(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  /// Convenience overload mapping over a vector's elements.
  template <typename T, typename Fn>
  auto parallel_map(const std::vector<T>& items, Fn&& fn)
      -> std::vector<decltype(fn(items[0]))> {
    return parallel_map(items.size(),
                        [&](std::size_t i) { return fn(items[i]); });
  }

 private:
  /// Type-erased core of the loop primitives: runs fn(0..n-1) on the pool
  /// with the caller participating; inline when the pool has no workers.
  void run_loop(std::size_t n, const std::function<void(std::size_t)>& fn);

  void enqueue(std::function<void()> job);
  void worker_main();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  bool stop_ = false;
};

}  // namespace irp
