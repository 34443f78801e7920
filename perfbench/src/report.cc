#include "report.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>

#include "resilience/mini_json.h"

namespace perfbench {

void JsonObject::Key(const std::string& key) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  body_ += dsa::resilience::JsonEscape(key);
  body_ += "\":";
}

void JsonObject::Num(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  Raw(key, buf);
}

void JsonObject::Int(const std::string& key, std::uint64_t v) {
  Raw(key, std::to_string(v));
}

void JsonObject::Str(const std::string& key, const std::string& v) {
  std::string quoted = "\"";
  quoted += dsa::resilience::JsonEscape(v);
  quoted += '"';
  Raw(key, quoted);
}

void JsonObject::Nums(const std::string& key, const std::vector<double>& v) {
  std::string arr = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", v[i]);
    arr += buf;
  }
  Raw(key, arr + "]");
}

void JsonObject::Strs(const std::string& key,
                      const std::vector<std::string>& v) {
  std::string arr = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) arr += ',';
    arr += '"';
    arr += dsa::resilience::JsonEscape(v[i]);
    arr += '"';
  }
  Raw(key, arr + "]");
}

void JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
}

void LayerSums::AddTiming(const dsa::sim::RunResult& r) {
  host_wall_ms += r.host_wall_ms;
  dispatch_ms += r.host_phases.dispatch_ms;
  observe_ms += r.host_phases.observe_ms;
  walk_ms += r.host_phases.mem_ms;
  covered_ms += r.host_phases.neon_ms;
  run_retired += r.cpu.retired_total;
}

void LayerSums::AddTimings(const LayerSums& o) {
  host_wall_ms += o.host_wall_ms;
  dispatch_ms += o.dispatch_ms;
  observe_ms += o.observe_ms;
  walk_ms += o.walk_ms;
  covered_ms += o.covered_ms;
  run_retired += o.run_retired;
}

void LayerSums::AddCounts(const dsa::sim::RunResult& r) {
  retired += r.cpu.retired_total;
  vector_instrs += r.cpu.retired_vector;
  l1_hits += r.l1.hits;
  l1_misses += r.l1.misses;
  l2_hits += r.l2.hits;
  l2_misses += r.l2.misses;
  if (r.dsa) {
    takeovers += r.dsa->takeovers;
    detect_attempts += r.dsa->stage_activations[static_cast<int>(
        dsa::engine::Stage::kLoopDetection)];
    rollbacks += r.dsa->rollbacks;
    analysis_instrs += r.dsa->analysis_cycles;
  }
}

void LayerSums::Emit(JsonObject& out, double run_span_ms, double per) const {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double phases = dispatch_ms + observe_ms + walk_ms + covered_ms;
  out.Num("sim.system_setup_ms", (run_span_ms - host_wall_ms) / per);
  out.Num("cpu.dispatch_ms", dispatch_ms / per);
  out.Num("engine.observe_ms", observe_ms / per);
  out.Num("mem.walk_ms", walk_ms / per);
  out.Num("cpu.covered_exec_ms", covered_ms / per);
  out.Num("sim.loop_unattributed_ms", (host_wall_ms - phases) / per);
  out.Int("cpu.retired", retired);
  out.Num("cpu.ns_per_instr",
          ratio(host_wall_ms * 1e6, static_cast<double>(run_retired)));
  out.Int("engine.takeovers", takeovers);
  out.Int("engine.detect_attempts", detect_attempts);
  out.Num("engine.takeover_ratio", ratio(static_cast<double>(takeovers),
                                         static_cast<double>(detect_attempts)));
  out.Int("engine.rollbacks", rollbacks);
  out.Int("engine.analysis_instrs", analysis_instrs);
  out.Int("mem.l1_accesses", l1_hits + l1_misses);
  out.Num("mem.l1_miss_rate", ratio(static_cast<double>(l1_misses),
                                    static_cast<double>(l1_hits + l1_misses)));
  out.Num("mem.l2_miss_rate", ratio(static_cast<double>(l2_misses),
                                    static_cast<double>(l2_hits + l2_misses)));
  out.Int("neon.vector_instrs", vector_instrs);
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    Add(s.size());
  }
};

}  // namespace

std::uint64_t Fingerprint(const std::vector<const dsa::sim::JobOutcome*>& cells) {
  Fnv f;
  for (const dsa::sim::JobOutcome* c : cells) {
    f.Add(c->key);
    if (c->runs.empty()) continue;
    const dsa::sim::RunResult& r = c->result();
    f.Add(r.cycles);
    f.Add(r.output_digest);
    f.Add(r.cpu.retired_total);
    f.Add(r.cpu.retired_vector);
    f.Add(r.cpu.mem_reads);
    f.Add(r.cpu.mem_writes);
    f.Add(r.cpu.mispredicts);
    f.Add(r.l1.hits);
    f.Add(r.l1.misses);
    f.Add(r.l2.hits);
    f.Add(r.l2.misses);
    f.Add(r.dram_accesses);
    if (!r.dsa) continue;
    const dsa::engine::DsaStats& d = *r.dsa;
    for (const auto& [cls, n] : d.loops_by_class) {
      f.Add(static_cast<std::uint64_t>(cls));
      f.Add(n);
    }
    for (const auto& [cls, n] : d.entries_by_class) {
      f.Add(static_cast<std::uint64_t>(cls));
      f.Add(n);
    }
    for (const auto& [why, n] : d.rejects_by_reason) {
      f.Add(static_cast<std::uint64_t>(why));
      f.Add(n);
    }
    for (std::uint64_t n : d.stage_activations) f.Add(n);
    for (std::uint64_t n :
         {d.analysis_cycles, d.observed_instructions, d.takeovers,
          d.cache_hit_takeovers, d.fusions_formed, d.fusion_demotions,
          d.sentinel_respeculations, d.vectorized_iterations,
          d.scalar_covered_instrs, d.vector_instrs_issued,
          d.array_map_accesses, d.vc_accesses, d.dsa_cache_accesses,
          d.rollbacks, d.blacklisted_loops, d.cache_corruptions_detected}) {
      f.Add(n);
    }
  }
  return f.h;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
