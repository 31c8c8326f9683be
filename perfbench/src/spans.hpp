#pragma once
// Benchmark-side span log: the layer ladder is timed from OUTSIDE the
// program, around calls into each module's public functions. Spans carry
// a mission id and a parent span id, are kept in memory, and are written
// once at the end as Chrome trace_event JSON (loadable in Perfetto).
//
// The program's own obs::Tracer is never armed by the benchmark.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since the first call in this process.
[[nodiscard]] std::uint64_t now_ns() noexcept;

class SpanLog {
 public:
  struct Record {
    const char* name = nullptr;   // string literal
    const char* layer = nullptr;  // module name (pe, platform, sched, ...)
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t mission = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint32_t tid = 0;
  };

  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(const Record& record);
  /// Counts a span that could not be stored (allocation failure).
  void note_dropped() noexcept {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const;
  /// Writes {"traceEvents":[...]} to `path`; false on I/O failure.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span. A null log makes it inert, so timed (untraced) paths share
/// the code of traced ones without recording anything.
class Span {
 public:
  Span(SpanLog* log, const char* name, const char* layer,
       std::uint64_t mission, std::uint64_t parent) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when inert) — the parent of spans it causes.
  [[nodiscard]] std::uint64_t id() const noexcept { return record_.id; }

 private:
  SpanLog* log_;
  SpanLog::Record record_;
};

}  // namespace perfbench
