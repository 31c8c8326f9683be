#include "ehw/common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <latch>

#include "ehw/common/log.hpp"

namespace ehw {

/// One parallel_chunks fan-out. Shared with its queued helpers, so a
/// helper that starts after the caller returned finds no chunk left and
/// touches nothing but this record.
struct ThreadPool::Fanout {
  Fanout(void (*run_chunk)(void*, std::size_t, std::size_t), void* ctx,
         std::size_t lo, std::size_t hi, std::size_t chunks)
      : run(run_chunk),
        body(ctx),
        begin(lo),
        end(hi),
        per((hi - lo + chunks - 1) / chunks),
        count((hi - lo + per - 1) / per),  // non-empty chunks
        done(static_cast<std::ptrdiff_t>(count)) {}
  /// Claims and runs chunks until none are left.
  void drain() noexcept;

  void (*run)(void*, std::size_t, std::size_t);
  void* body;
  std::size_t begin, end, per, count;
  std::atomic<std::size_t> next{0};
  std::latch done;
  std::mutex error_mutex;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(2, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(Task{std::move(task), nullptr});
  }
  cv_.notify_one();
}

void ThreadPool::Fanout::drain() noexcept {
  for (std::size_t c = next.fetch_add(1); c < count; c = next.fetch_add(1)) {
    const std::size_t lo = begin + c * per;
    try {
      run(body, lo, std::min(end, lo + per));
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!error) error = std::current_exception();
    }
    done.count_down();
  }
}

void ThreadPool::run_fanout(void (*run)(void*, std::size_t, std::size_t),
                            void* body, std::size_t begin, std::size_t end,
                            std::size_t chunks) {
  const auto fanout = std::make_shared<Fanout>(run, body, begin, end, chunks);
  std::size_t helpers = 0;
  {
    // A busy worker would reach a helper only after the caller has
    // claimed every chunk itself, so only idle workers get one.
    std::lock_guard lock(mutex_);
    const std::size_t spare =
        idle_ > queue_.size() ? idle_ - queue_.size() : 0;
    const std::size_t wanted = std::min(spare, fanout->count - 1);
    try {
      for (; helpers < wanted; ++helpers) queue_.push(Task{nullptr, fanout});
    } catch (...) {
      // Out of memory: fewer helpers only means the caller runs more of
      // the chunks, and it must not leave before every chunk has run.
    }
  }
  for (std::size_t i = 0; i < helpers; ++i) cv_.notify_one();
  fanout->drain();
  fanout->done.wait();
  if (fanout->error) std::rethrow_exception(fanout->error);
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    ++idle_;
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    --idle_;
    if (queue_.empty()) return;  // stopping, and every task has run
    Task task = std::move(queue_.front());
    queue_.pop();
    lock.unlock();
    if (task.fanout) {
      task.fanout->drain();
    } else {
      try {
        task.fn();
      } catch (const std::exception& e) {
        log_error("thread pool: a task threw: ", e.what());
      } catch (...) {
        log_error("thread pool: a task threw a non-exception");
      }
    }
    task = Task{};  // release captures outside the lock
    lock.lock();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ehw
