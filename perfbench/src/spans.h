// In-memory span recorder for the traced benchmark run. Each call the
// benchmark makes into a layer's public function is wrapped in one span
// (name, start, end, parent, request id); the spans stay in memory until
// the run ends, are then written out as JSON, and self time per span name
// is derived as a span's duration minus the durations of its children.
// Untraced runs pass a null log, which turns every ScopedSpan into a
// no-op, so the end-to-end numbers never pay for tracing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0;  // since the log was created
  double end_ms = 0;
  int parent = -1;  // index into the log, -1 for a root span
  std::uint64_t request = 0;
  [[nodiscard]] double duration_ms() const { return end_ms - start_ms; }
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  // Thread-safe: workers of the batch runner open spans concurrently with
  // the main thread.
  int Open(std::string name, int parent, std::uint64_t request);
  void Close(int id);

  [[nodiscard]] std::vector<Span> Snapshot() const;
  [[nodiscard]] bool WriteJson(const std::string& path) const;

 private:
  [[nodiscard]] double NowMs() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent = -1,
             std::uint64_t request = 0)
      : log_(log),
        id_(log != nullptr ? log->Open(std::move(name), parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0;  // sum of durations
  double self_ms = 0;   // sum of durations minus their children's
};

// Per-name count, total and self time over every span in `spans`.
[[nodiscard]] std::map<std::string, SpanTotals> Summarize(
    const std::vector<Span>& spans);

}  // namespace perfbench
