#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>

namespace irp {
namespace {

/// Shared state of one parallel loop. Index 0 belongs to the calling
/// thread; participants (workers that dequeued a drain job, plus the caller
/// once index 0 is done) claim the other indices from `next` until the
/// range is exhausted or a participant failed. Completion is defined over
/// *started* participants only: a drain job still sitting in the queue when
/// the range runs dry simply exits on arrival, so nested loops finish even
/// when no worker ever picks their jobs up.
struct LoopState {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{1};
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // First failure; guarded by mu.
  int in_flight = 0;         // Participants mid-drain; guarded by mu.

  /// `caller` runs index 0 before claiming any other index.
  void drain(bool caller) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++in_flight;
    }
    if (caller) run(0);
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) break;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      run(i);
    }
    std::lock_guard<std::mutex> lock(mu);
    if (--in_flight == 0) done_cv.notify_all();
  }

  void run(std::size_t i) {
    try {
      (*fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
      failed.store(true);
    }
  }
};

}  // namespace

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) {
  const int count = resolve_threads(threads);
  workers_.reserve(static_cast<std::size_t>(count - 1));
  for (int i = 0; i + 1 < count; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

void ThreadPool::worker_main() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run.
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::run_loop(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Serial pool (threads == 1) or a trivial range: inline execution, no
    // queueing, no synchronization — the classic serial path.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->fn = &fn;

  // One drain job per worker that could usefully help (never more jobs
  // than remaining indices). The caller drains too, so the loop completes
  // even if none of these jobs ever run.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t i = 0; i < helpers; ++i)
    enqueue([state] { state->drain(false); });

  state->drain(true);

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->in_flight == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace irp
