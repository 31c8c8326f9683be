#pragma once
// The host thread pool: one fixed set of workers that runs both the
// scheduler's job bodies (submit) and the data-parallel fan-out inside
// them (parallel_chunks).
//
// The simulator separates *simulated* time (ehw::sim::SimClock, which
// models the FPGA) from *host* time. Host threads are only an accelerator
// for the functional simulation: candidate circuits evaluated on different
// simulated arrays are independent pixel pipelines, so we fan their
// evaluation out across cores. Determinism is preserved because each unit
// of work owns its own RNG stream and writes to disjoint outputs.
//
// submit() is fire-and-forget: ArrayPool runs each admitted mission body
// as one task and observes completion through its own bookkeeping, so no
// host thread is created or destroyed per job (cf. the FPGA-cluster
// dispatchers of arXiv:1412.5384).
//
// parallel_chunks() is reentrant, so a task running on this pool may fan
// out on it. The range is split into one contiguous chunk per worker; the
// caller claims chunks from an atomic counter until none are left, then
// waits only for chunks another thread has already claimed, never for
// queued work. Helpers are queued only for idle workers, and a waiting
// caller never runs an unrelated queued task, so a job's thread-local
// state (its ProfileScope, its trace span) stays its own.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace ehw {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means
  /// max(2, std::thread::hardware_concurrency()).
  explicit ThreadPool(std::size_t threads = 0);
  /// Runs every queued task, including ones queued by running tasks, then
  /// joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. Completion is observed by the caller's own
  /// bookkeeping. A throw escaping the task is logged and contained: its
  /// owner surfaces failures, and a worker must never take the process
  /// down.
  void submit(std::function<void()> task);

  /// Runs body(lo, hi) over disjoint contiguous chunks covering
  /// [begin, end), one chunk per worker, blocking until all complete.
  /// The chunk bounds depend only on the range and size(), never on which
  /// thread runs a chunk. `body` must be safe to invoke concurrently on
  /// disjoint ranges. The first exception thrown by any chunk is rethrown
  /// here once every chunk has finished.
  template <typename F>
  void parallel_chunks(std::size_t begin, std::size_t end, F&& body) {
    if (begin >= end) return;
    const std::size_t chunks = std::min(end - begin, size());
    if (chunks <= 1) {
      body(begin, end);
      return;
    }
    using Body = std::remove_reference_t<F>;
    run_fanout(
        [](void* ctx, std::size_t lo, std::size_t hi) {
          (*static_cast<Body*>(ctx))(lo, hi);
        },
        const_cast<void*>(static_cast<const void*>(&body)), begin, end,
        chunks);
  }

  /// Process-wide pool, sized to the machine. Benches, drivers and every
  /// ArrayPool without a host_pool share it, so we never oversubscribe the
  /// host.
  static ThreadPool& global();

 private:
  struct Fanout;  // one parallel_chunks call, shared with its helpers

  /// A queued unit of work: a submit()ted task or a fan-out helper.
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<Fanout> fanout;
  };

  void run_fanout(void (*run)(void*, std::size_t, std::size_t), void* body,
                  std::size_t begin, std::size_t end, std::size_t chunks);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t idle_ = 0;  // workers waiting for a task (guarded by mutex_)
  bool stop_ = false;
};

}  // namespace ehw
