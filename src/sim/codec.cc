#include "sim/codec.h"

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <utility>

namespace dsa::sim {

using resilience::JsonValue;

namespace {

// Named fields of the plain-counter structs, in emission order. The
// writer and the reader walk the same tables, so they cannot drift.
template <typename S, typename T>
using Field = std::pair<std::string_view, T S::*>;

constexpr Field<cpu::CpuStats, std::uint64_t> kCpuFields[] = {
    {"retired_total", &cpu::CpuStats::retired_total},
    {"retired_scalar", &cpu::CpuStats::retired_scalar},
    {"retired_vector", &cpu::CpuStats::retired_vector},
    {"mem_reads", &cpu::CpuStats::mem_reads},
    {"mem_writes", &cpu::CpuStats::mem_writes},
    {"branches", &cpu::CpuStats::branches},
    {"mispredicts", &cpu::CpuStats::mispredicts},
    {"issue_slots", &cpu::CpuStats::issue_slots},
    {"mem_stall_cycles", &cpu::CpuStats::mem_stall_cycles},
    {"other_stall_cycles", &cpu::CpuStats::other_stall_cycles},
    {"neon_busy_cycles", &cpu::CpuStats::neon_busy_cycles},
    {"dsa_overhead_cycles", &cpu::CpuStats::dsa_overhead_cycles},
};

constexpr Field<mem::CacheStats, std::uint64_t> kCacheFields[] = {
    {"hits", &mem::CacheStats::hits},
    {"misses", &mem::CacheStats::misses},
};

constexpr Field<RunResult::HostPhases, double> kPhaseFields[] = {
    {"dispatch_ms", &RunResult::HostPhases::dispatch_ms},
    {"observe_ms", &RunResult::HostPhases::observe_ms},
    {"mem_ms", &RunResult::HostPhases::mem_ms},
    {"neon_ms", &RunResult::HostPhases::neon_ms},
};

constexpr Field<energy::EnergyBreakdown, double> kEnergyFields[] = {
    {"core_dynamic", &energy::EnergyBreakdown::core_dynamic},
    {"core_static", &energy::EnergyBreakdown::core_static},
    {"neon_dynamic", &energy::EnergyBreakdown::neon_dynamic},
    {"neon_static", &energy::EnergyBreakdown::neon_static},
    {"cache_dram", &energy::EnergyBreakdown::cache_dram},
    {"dsa_dynamic", &energy::EnergyBreakdown::dsa_dynamic},
    {"dsa_static", &energy::EnergyBreakdown::dsa_static},
};

constexpr Field<engine::DsaStats, std::uint64_t> kDsaFields[] = {
    {"takeovers", &engine::DsaStats::takeovers},
    {"cache_hit_takeovers", &engine::DsaStats::cache_hit_takeovers},
    {"vectorized_iterations", &engine::DsaStats::vectorized_iterations},
    {"scalar_covered_instrs", &engine::DsaStats::scalar_covered_instrs},
    {"vector_instrs_issued", &engine::DsaStats::vector_instrs_issued},
    {"analysis_cycles", &engine::DsaStats::analysis_cycles},
    {"observed_instructions", &engine::DsaStats::observed_instructions},
    {"fusions_formed", &engine::DsaStats::fusions_formed},
    {"fusion_demotions", &engine::DsaStats::fusion_demotions},
    {"sentinel_respeculations", &engine::DsaStats::sentinel_respeculations},
    {"array_map_accesses", &engine::DsaStats::array_map_accesses},
    {"vc_accesses", &engine::DsaStats::vc_accesses},
    {"dsa_cache_accesses", &engine::DsaStats::dsa_cache_accesses},
    {"rollbacks", &engine::DsaStats::rollbacks},
    {"blacklisted_loops", &engine::DsaStats::blacklisted_loops},
    {"cache_corruptions_detected",
     &engine::DsaStats::cache_corruptions_detected},
};

void Put(JsonWriter& w, std::string_view key, std::uint64_t v) {
  w.U64(key, v);
}
void Put(JsonWriter& w, std::string_view key, double v) { w.Dbl(key, v); }

// Opens `key` as an object holding the table's fields; the caller appends
// any derived members and closes it.
template <typename S, typename T, std::size_t N>
void OpenFields(JsonWriter& w, std::string_view key, const S& s,
                const Field<S, T> (&fields)[N]) {
  w.Open(key, '{');
  for (const auto& [name, member] : fields) Put(w, name, s.*member);
}

// Enum-keyed counters are keyed by the enum's ToString name: every slot
// of an enum-indexed array, the present entries of an enum-keyed map.
template <typename E, std::size_t N>
void PutEnumArray(JsonWriter& w, std::string_view key,
                  const std::array<std::uint64_t, N>& a) {
  w.Open(key, '{');
  for (std::size_t i = 0; i < N; ++i) {
    w.U64(ToString(static_cast<E>(i)), a[i]);
  }
  w.Close('}');
}

template <typename E>
void PutEnumMap(JsonWriter& w, std::string_view key,
                const std::map<E, std::uint64_t>& m) {
  w.Open(key, '{');
  for (const auto& [k, n] : m) w.U64(ToString(k), n);
  w.Close('}');
}

// Reader side: each Get fails on a missing or mistyped value.
bool Get(const JsonValue* v, std::uint64_t& out) {
  if (v == nullptr || !v->is_number()) return false;
  out = v->AsU64();
  return true;
}
bool Get(const JsonValue* v, double& out) {
  if (v == nullptr || !v->is_number()) return false;
  out = v->AsDouble();
  return true;
}
bool Get(const JsonValue* v, bool& out) {
  if (v == nullptr || v->type != JsonValue::Type::kBool) return false;
  out = v->boolean;
  return true;
}
bool Get(const JsonValue* v, std::string& out) {
  if (v == nullptr || !v->is_string()) return false;
  out = v->AsString();
  return true;
}

// "0x" + hex digits, as JsonWriter::Hex writes them.
bool GetHex(const JsonValue* v, std::uint64_t& out) {
  if (v == nullptr || !v->is_string()) return false;
  const std::string& s = v->AsString();
  if (s.size() < 3 || s.compare(0, 2, "0x") != 0) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(s.c_str() + 2, &end, 16);
  return errno == 0 && *end == '\0';
}

// Walks the enum's range [0, last] for the value whose name is `v`.
template <typename E>
bool GetEnum(const JsonValue* v, E last, E& out) {
  if (v == nullptr || !v->is_string()) return false;
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (ToString(static_cast<E>(i)) == v->AsString()) {
      out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

template <typename S, typename T, std::size_t N>
bool GetFields(const JsonValue* obj, S& s, const Field<S, T> (&fields)[N]) {
  if (obj == nullptr) return false;
  for (const auto& [name, member] : fields) {
    if (!Get(obj->Find(name), s.*member)) return false;
  }
  return true;
}

template <typename E, std::size_t N>
bool GetEnumArray(const JsonValue* obj, std::array<std::uint64_t, N>& a) {
  if (obj == nullptr) return false;
  for (std::size_t i = 0; i < N; ++i) {
    if (!Get(obj->Find(ToString(static_cast<E>(i))), a[i])) return false;
  }
  return true;
}

template <typename E>
bool GetEnumMap(const JsonValue* obj, E last, std::map<E, std::uint64_t>& m) {
  if (obj == nullptr || !obj->is_object()) return false;
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    const JsonValue* v = obj->Find(ToString(static_cast<E>(i)));
    if (v != nullptr && !Get(v, m[static_cast<E>(i)])) return false;
  }
  return m.size() == obj->object.size();  // no unknown names
}

void PutRun(JsonWriter& w, const RunResult& r, double wall_ms,
            std::uint64_t scalar_cycles) {
  w.U64("cycles", r.cycles);
  if (scalar_cycles > 0 && r.cycles > 0) {
    w.Dbl("speedup_vs_scalar", static_cast<double>(scalar_cycles) /
                                   static_cast<double>(r.cycles));
  }
  w.Bool("output_ok", r.output_ok);
  w.Hex("output_digest", r.output_digest);
  w.Dbl("wall_ms", wall_ms);

  w.Open("host", '{');
  w.Dbl("mips", r.host_mips());
  w.Dbl("wall_ms", r.host_wall_ms);
  w.U64("steps", r.host_steps);
  w.Str("dispatch", cpu::ToString(r.host_dispatch));
  OpenFields(w, "phases", r.host_phases, kPhaseFields);
  w.Close('}');
  w.Close('}');

  if (r.stream_bytes > 0) {
    w.Open("stream", '{');
    w.U64("bytes", r.stream_bytes);
    w.Dbl("gbps", r.stream_gbps());
    w.Close('}');
  }
  if (r.gen.has_value()) {
    w.Open("gen", '{');
    w.U64("seed", r.gen->seed);
    w.Str("class", r.gen->loop_class);
    w.U64("count", r.gen->count);
    w.Close('}');
  }

  OpenFields(w, "cpu", r.cpu, kCpuFields);
  w.Close('}');
  OpenFields(w, "l1", r.l1, kCacheFields);
  w.Close('}');
  OpenFields(w, "l2", r.l2, kCacheFields);
  w.Close('}');
  w.U64("dram_accesses", r.dram_accesses);
  OpenFields(w, "energy", r.energy, kEnergyFields);
  w.Dbl("total", r.energy.total());
  w.Close('}');

  if (r.trace != nullptr) {
    w.Open("trace", '{');
    w.U64("emitted", r.trace->emitted);
    w.U64("dropped", r.trace->dropped);
    w.Close('}');
  }

  if (r.faults.has_value()) {
    const fault::FaultReport& fr = *r.faults;
    w.Open("faults", '{');
    w.Str("plan", fault::FormatFaultPlan(fr.plan));
    w.U64("seed", fr.plan.seed);
    w.U64("total_fired", fr.total_fired());
    PutEnumArray<fault::FaultKind>(w, "opportunities", fr.opportunities);
    PutEnumArray<fault::FaultKind>(w, "fired", fr.fired);
    w.Close('}');
  }

  if (r.dsa.has_value()) {
    const engine::DsaStats& d = *r.dsa;
    w.Dbl("detection_latency_pct", r.detection_latency_pct());
    OpenFields(w, "dsa", d, kDsaFields);
    PutEnumArray<engine::Stage>(w, "stage_activations", d.stage_activations);
    PutEnumMap(w, "loops_by_class", d.loops_by_class);
    PutEnumMap(w, "entries_by_class", d.entries_by_class);
    PutEnumMap(w, "rejects_by_reason", d.rejects_by_reason);
    w.Close('}');
  }
}

bool GetRun(const JsonValue& j, RunResult& r, double& wall_ms) {
  const JsonValue* host = j.Find("host");
  if (!Get(j.Find("cycles"), r.cycles) ||
      !Get(j.Find("output_ok"), r.output_ok) ||
      !GetHex(j.Find("output_digest"), r.output_digest) ||
      !Get(j.Find("wall_ms"), wall_ms) || host == nullptr ||
      !Get(host->Find("wall_ms"), r.host_wall_ms) ||
      !Get(host->Find("steps"), r.host_steps) ||
      !GetEnum(host->Find("dispatch"), cpu::DispatchMode::kThreaded,
               r.host_dispatch) ||
      !GetFields(host->Find("phases"), r.host_phases, kPhaseFields) ||
      !GetFields(j.Find("cpu"), r.cpu, kCpuFields) ||
      !GetFields(j.Find("l1"), r.l1, kCacheFields) ||
      !GetFields(j.Find("l2"), r.l2, kCacheFields) ||
      !Get(j.Find("dram_accesses"), r.dram_accesses) ||
      !GetFields(j.Find("energy"), r.energy, kEnergyFields)) {
    return false;
  }
  if (const JsonValue* stream = j.Find("stream"); stream != nullptr) {
    if (!Get(stream->Find("bytes"), r.stream_bytes)) return false;
  }
  if (const JsonValue* gen = j.Find("gen"); gen != nullptr) {
    GenInfo g;
    if (!Get(gen->Find("seed"), g.seed) ||
        !Get(gen->Find("class"), g.loop_class) ||
        !Get(gen->Find("count"), g.count)) {
      return false;
    }
    r.gen = std::move(g);
  }
  if (const JsonValue* faults = j.Find("faults"); faults != nullptr) {
    fault::FaultReport fr;
    std::string plan;
    if (!Get(faults->Find("plan"), plan)) return false;
    try {
      fr.plan = fault::ParseFaultPlan(plan);
    } catch (const std::invalid_argument&) {
      return false;
    }
    if (!GetEnumArray<fault::FaultKind>(faults->Find("opportunities"),
                                        fr.opportunities) ||
        !GetEnumArray<fault::FaultKind>(faults->Find("fired"), fr.fired)) {
      return false;
    }
    r.faults = fr;
  }
  if (const JsonValue* dsa = j.Find("dsa"); dsa != nullptr) {
    engine::DsaStats d;
    if (!GetFields(dsa, d, kDsaFields) ||
        !GetEnumArray<engine::Stage>(dsa->Find("stage_activations"),
                                     d.stage_activations) ||
        !GetEnumMap(dsa->Find("loops_by_class"),
                    engine::LoopClass::kNonVectorizable, d.loops_by_class) ||
        !GetEnumMap(dsa->Find("entries_by_class"),
                    engine::LoopClass::kNonVectorizable, d.entries_by_class) ||
        !GetEnumMap(dsa->Find("rejects_by_reason"),
                    engine::RejectReason::kRangeUnknown,
                    d.rejects_by_reason)) {
      return false;
    }
    r.dsa = std::move(d);
  }
  return true;
}

}  // namespace

void JsonWriter::Key(std::string_view key) {
  if (!fresh_) s_ += ", ";
  fresh_ = false;
  if (key.empty()) return;
  s_ += '"';
  s_ += key;
  s_ += "\": ";
}

void JsonWriter::Open(std::string_view key, char bracket) {
  Key(key);
  s_ += bracket;
  fresh_ = true;
}

void JsonWriter::Close(char bracket) {
  s_ += bracket;
  fresh_ = false;
}

void JsonWriter::Str(std::string_view key, std::string_view v) {
  Key(key);
  s_ += '"';
  s_ += resilience::JsonEscape(v);
  s_ += '"';
}

void JsonWriter::U64(std::string_view key, std::uint64_t v) {
  Key(key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  s_ += buf;
}

void JsonWriter::Dbl(std::string_view key, double v) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  s_ += buf;
}

void JsonWriter::Bool(std::string_view key, bool v) {
  Key(key);
  s_ += v ? "true" : "false";
}

void JsonWriter::Hex(std::string_view key, std::uint64_t v) {
  Key(key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%016" PRIx64 "\"", v);
  s_ += buf;
}

void JsonWriter::Value(std::string_view key, std::string_view json) {
  Key(key);
  s_ += json;
}

std::uint32_t Crc32(const void* data, std::size_t len) {
  // Table-free bitwise CRC-32; every caller frames one small record per
  // simulated cell or message, so throughput is irrelevant next to the
  // sim itself.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string SerializeOutcome(const JobOutcome& out,
                             std::uint64_t scalar_cycles) {
  std::string s;
  JsonWriter w(s);
  w.Open({}, '{');
  w.Str("job", out.key);
  // A completed cell names its workload; a poisoned one has no run and
  // names its workload key.
  w.Str("workload",
        out.runs.empty() ? out.workload_key : out.result().workload);
  w.Str("mode", ToString(out.mode));
  w.Str("config", out.config_tag);
  w.Hex("config_digest", out.config_digest);
  w.Str("cell_status", out.cell_status);
  w.U64("attempts", out.attempts);
  w.U64("runs", out.runs.size());
  if (out.restored) w.Bool("restored", true);
  if (!out.error.empty()) w.Str("error", out.error);
  if (!out.runs.empty()) PutRun(w, out.result(), out.wall_ms, scalar_cycles);
  w.Close('}');
  return s;
}

bool ParseOutcome(const JsonValue& j, JobOutcome& out) {
  out = JobOutcome{};
  std::string workload;
  std::uint64_t runs = 0;
  if (!Get(j.Find("job"), out.key) || !Get(j.Find("workload"), workload) ||
      !GetEnum(j.Find("mode"), RunMode::kDsa, out.mode) ||
      !Get(j.Find("config"), out.config_tag) ||
      !GetHex(j.Find("config_digest"), out.config_digest) ||
      !Get(j.Find("cell_status"), out.cell_status) ||
      !Get(j.Find("attempts"), out.attempts) || !Get(j.Find("runs"), runs)) {
    return false;
  }
  if (const JsonValue* restored = j.Find("restored"); restored != nullptr) {
    if (!Get(restored, out.restored)) return false;
  }
  if (const JsonValue* error = j.Find("error"); error != nullptr) {
    if (!Get(error, out.error)) return false;
  }
  // A job key "<workload key>@<mode>[/<config>]" (sim::JobKey) names
  // the workload key the oracle groups by.
  std::string suffix = "@" + std::string(ToString(out.mode));
  if (!out.config_tag.empty()) suffix += "/" + out.config_tag;
  if (out.key.size() > suffix.size() && out.key.ends_with(suffix)) {
    out.workload_key = out.key.substr(0, out.key.size() - suffix.size());
  }
  if (runs == 0) return true;
  RunResult r;
  r.workload = std::move(workload);
  r.mode = out.mode;
  if (!GetRun(j, r, out.wall_ms)) return false;
  // The cell carries the canonical run once; the recorded sample count
  // is restored by replication (all repeats of a stored cell agreed
  // before it was written).
  out.runs.assign(static_cast<std::size_t>(runs), r);
  return true;
}

std::string SerializeRunResult(const RunResult& r) {
  JobOutcome out;
  out.workload_key = r.workload;
  out.mode = r.mode;
  out.key = r.workload + "@" + std::string(ToString(r.mode));
  out.attempts = 1;
  out.runs.push_back(r);
  return SerializeOutcome(out);
}

bool ParseRunResult(std::string_view payload, RunResult& r) {
  JsonValue j;
  JobOutcome out;
  if (!resilience::ParseJson(payload, j) || !ParseOutcome(j, out) ||
      out.runs.size() != 1) {
    return false;
  }
  r = std::move(out.runs.front());
  return true;
}

}  // namespace dsa::sim
