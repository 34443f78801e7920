// Shared pieces of the perfbench program: a flat JSON object writer for
// the one-line reports it prints, per-run layer sums taken from
// sim::RunResult, and the simulated-result fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "spans.h"

namespace perfbench {

// Builds one JSON object, keys in insertion order.
class JsonObject {
 public:
  void Num(const std::string& key, double v);
  void Int(const std::string& key, std::uint64_t v);
  void Str(const std::string& key, const std::string& v);
  void Nums(const std::string& key, const std::vector<double>& v);
  void Strs(const std::string& key, const std::vector<std::string>& v);
  void Raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string Done() const { return body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_ = "{";
};

// Sums over simulated runs. Host timings are taken from every run the
// batch executed (repeats included); simulated counts from one canonical
// run per cell, so they are exact and independent of the repeat count.
struct LayerSums {
  double host_wall_ms = 0;  // run loop (RunResult::host_wall_ms)
  double dispatch_ms = 0;
  double observe_ms = 0;
  double walk_ms = 0;
  double covered_ms = 0;  // host_phases.neon_ms: covered-region execution
  std::uint64_t run_retired = 0;  // retired instructions of every run

  std::uint64_t retired = 0;
  std::uint64_t vector_instrs = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t detect_attempts = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t analysis_instrs = 0;

  void AddTiming(const dsa::sim::RunResult& r);
  void AddTimings(const LayerSums& other);  // timing fields only
  void AddCounts(const dsa::sim::RunResult& r);

  // Emits the cpu.*, engine.*, mem.*, neon.* metrics plus
  // sim.system_setup_ms (run_span_ms - run loop) and
  // sim.loop_unattributed_ms (run loop - phases). Timings are divided by
  // `per` (the number of passes or requests they were summed over).
  void Emit(JsonObject& out, double run_span_ms, double per) const;
};

// FNV-1a over every cell's cycles, output digest, CPU and cache counters
// and DsaStats, in JobKey order. Unchanged by host-speed work; any model
// change moves it.
[[nodiscard]] std::uint64_t Fingerprint(
    const std::vector<const dsa::sim::JobOutcome*>& cells);
[[nodiscard]] std::string Hex(std::uint64_t v);

// Peak resident set of this process in MB (getrusage ru_maxrss).
[[nodiscard]] double PeakRssMb();

// Milliseconds since `t0`.
[[nodiscard]] double MsSince(std::chrono::steady_clock::time_point t0);

}  // namespace perfbench
