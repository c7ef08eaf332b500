// Minimal task-based thread pool (Core Guidelines CP.4: think in terms of
// tasks, not threads).  Used to parallelize embarrassingly parallel loops:
// random-forest tree training, multi-start acquisition optimization, and
// repeated tuner runs inside the benchmark harnesses.  The service layer
// (src/service) additionally steps tuning sessions, one round per task,
// on pools whose occupancy it samples through the introspection calls.
//
// Tasks must not share writable state; each parallel_for body receives the
// index and should only write to its own slot of a pre-sized output.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/chaos.h"
#include "obs/metrics.h"

namespace robotune {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue before joining: tasks already submitted run to
  /// completion (their futures become ready), none are dropped.
  ~ThreadPool();

  std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks submitted but not yet picked up by a worker.  A point-in-time
  /// reading (another thread may enqueue or dequeue immediately after) —
  /// meant for admission control and load reporting, not for
  /// synchronization.
  std::size_t queued() const {
    std::scoped_lock lock(mutex_);
    return jobs_.size();
  }

  /// Workers currently blocked waiting for work (same point-in-time
  /// caveat as queued()).
  std::size_t idle_workers() const {
    const std::size_t busy = busy_.load(std::memory_order_relaxed);
    return busy >= size() ? 0 : size() - busy;
  }

  /// Enqueue a task; the returned future yields its result.  The
  /// caller's obs session scope (if any) is forwarded to the worker that
  /// runs the task, so per-session metric attribution survives the
  /// thread hop.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    const std::uint64_t session = obs::ScopedSession::current();
    {
      std::scoped_lock lock(mutex_);
      jobs_.emplace([task, session]() {
        obs::ScopedSession scope(session);
        (*task)();
      });
    }
    cv_.notify_one();
    return fut;
  }

  /// Enqueues a group of tasks under a single lock acquisition and
  /// returns their futures in task order.  A task that throws stores its
  /// exception in the matching future (see wait_all).  Like submit, the
  /// caller's obs session scope travels with every task.
  template <typename F>
  auto submit_batch(std::vector<F> tasks)
      -> std::vector<std::future<std::invoke_result_t<F&>>> {
    using R = std::invoke_result_t<F&>;
    std::vector<std::future<R>> futures;
    futures.reserve(tasks.size());
    const std::uint64_t session = obs::ScopedSession::current();
    {
      std::scoped_lock lock(mutex_);
      for (auto& t : tasks) {
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::move(t));
        futures.push_back(task->get_future());
        jobs_.emplace([task, session]() {
          obs::ScopedSession scope(session);
          (*task)();
        });
      }
    }
    cv_.notify_all();
    return futures;
  }

  /// Blocks until every future is ready, then rethrows the first stored
  /// exception in *future order* (deterministic regardless of which task
  /// actually failed first on the clock).  All futures are drained even
  /// when one throws, so no task is left running against caller state
  /// that an early exception would have destroyed.  Results of value-
  /// returning tasks are discarded — wait_all is for tasks that write
  /// into their own pre-sized output slots.
  template <typename R>
  static void wait_all(std::vector<std::future<R>>& futures) {
    std::exception_ptr first;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

  /// Run body(i) for i in [0, n), blocking until all complete.  Falls back
  /// to a plain loop when the pool has a single worker (avoids queueing
  /// overhead on 1-core machines).  Exceptions from bodies propagate; when
  /// several bodies throw, the lowest index wins (wait_all semantics).
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body) {
    if (n == 0) return;
    if (size() <= 1 || n == 1) {
      for (std::size_t i = 0; i < n; ++i) run_indexed(body, i);
      return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.emplace_back([i, &body]() { run_indexed(body, i); });
    }
    auto futures = submit_batch(std::move(tasks));
    wait_all(futures);
  }

  /// Process-wide shared pool, created on first use.
  static ThreadPool& global();

  /// Sets the worker count global() will be created with.  Must be
  /// called before the first global() use: returns true when the request
  /// took effect, false when the global pool already exists (its size is
  /// then fixed for the process lifetime — the old behavior, but now
  /// detectable instead of silent).  0 restores the hardware-concurrency
  /// default.
  static bool configure_global(std::size_t threads);

 private:
  // Chaos site wrapping every parallel_for body.  Keyed on the logical
  // index — not an invocation counter — so the set of injected failures
  // is identical on the inline single-worker path and the pooled path,
  // and the lowest failing index wins either way (wait_all semantics).
  template <typename Body>
  static void run_indexed(Body& body, std::size_t i) {
    if (chaos::fail_indexed(chaos::Site::kPoolTask, i)) {
      throw chaos::ChaosError("parallel_for: injected task failure");
    }
    body(i);
  }

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::size_t> busy_{0};
  bool stopping_ = false;
};

}  // namespace robotune
