#include "spans.h"

#include <cstdio>
#include <fstream>

#include "resilience/mini_json.h"

namespace perfbench {

double SpanLog::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Open(std::string name, int parent, std::uint64_t request) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), now, now, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Close(int id) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_ms = now;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << "{\"schema\":\"perfbench-spans/1\",\"spans\":[";
  const std::vector<Span> spans = Snapshot();
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) f << ',';
    std::snprintf(buf, sizeof(buf),
                  "\",\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d,"
                  "\"request\":%llu}",
                  s.start_ms, s.end_ms, s.parent,
                  static_cast<unsigned long long>(s.request));
    f << "{\"name\":\"" << dsa::resilience::JsonEscape(s.name) << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += s.duration_ms();
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ms += spans[i].duration_ms();
    t.self_ms += spans[i].duration_ms() - child_ms[i];
  }
  return out;
}

}  // namespace perfbench
