#include "spans.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {
namespace {

std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void SpanLog::add(const Record& record) {
  std::lock_guard lock(mutex_);
  records_.push_back(record);
}

std::size_t SpanLog::size() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

bool SpanLog::write_chrome(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) return false;
  std::lock_guard lock(mutex_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file.get());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(file.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"mission\":%llu,\"span\":%llu,\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", r.name, r.layer,
                 static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.dur_ns) / 1e3, r.tid,
                 static_cast<unsigned long long>(r.mission),
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
  }
  std::fputs("]}\n", file.get());
  return std::ferror(file.get()) == 0;
}

Span::Span(SpanLog* log, const char* name, const char* layer,
           std::uint64_t mission, std::uint64_t parent) noexcept
    : log_(log) {
  if (log_ == nullptr) return;
  record_.name = name;
  record_.layer = layer;
  record_.mission = mission;
  record_.parent = parent;
  record_.id = log_->next_id();
  record_.tid = thread_index();
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (log_ == nullptr) return;
  record_.dur_ns = now_ns() - record_.start_ns;
  try {
    log_->add(record_);
  } catch (...) {
    log_->note_dropped();  // reported with the trace file
  }
}

}  // namespace perfbench
