#include "resilience/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "resilience/iofault.h"
#include "resilience/mini_json.h"
#include "sim/digest.h"
#include "sim/error.h"

namespace dsa::resilience {

namespace {

constexpr const char kJournalSchema[] = "dsa-journal/2";

// ---------------------------------------------------------------------------
// Signal-safe fd registry: a fixed table of open journal fds so a signal
// handler can fsync them without locks or allocation.

constexpr int kMaxJournals = 16;
std::atomic<int> g_journal_fds[kMaxJournals];
std::atomic<bool> g_registry_init{false};

void InitRegistryOnce() {
  bool expected = false;
  if (g_registry_init.compare_exchange_strong(expected, true)) {
    for (auto& slot : g_journal_fds) slot.store(-1, std::memory_order_relaxed);
  }
}

void RegisterFd(int fd) {
  InitRegistryOnce();
  for (auto& slot : g_journal_fds) {
    int expected = -1;
    if (slot.compare_exchange_strong(expected, fd)) return;
  }
}

void DeregisterFd(int fd) {
  if (!g_registry_init.load()) return;
  for (auto& slot : g_journal_fds) {
    int expected = fd;
    if (slot.compare_exchange_strong(expected, -1)) return;
  }
}

// ---------------------------------------------------------------------------
// Serialization helpers (append-to-string writers; the reader side is
// mini_json).

void PutU64(std::string& s, const char* key, std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 ",", key, v);
  s += buf;
}

void PutDbl(std::string& s, const char* key, double v) {
  // %.17g round-trips an IEEE double exactly through strtod.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g,", key, v);
  s += buf;
}

void PutStr(std::string& s, const char* key, const std::string& v) {
  s += '"';
  s += key;
  s += "\":\"";
  s += JsonEscape(v);
  s += "\",";
}

void PutBool(std::string& s, const char* key, bool v) {
  s += '"';
  s += key;
  s += v ? "\":true," : "\":false,";
}

void CloseObj(std::string& s) {
  if (!s.empty() && s.back() == ',') s.back() = '}';
  else s += '}';
}

template <typename Array>
void PutU64Array(std::string& s, const char* key, const Array& a) {
  s += '"';
  s += key;
  s += "\":[";
  bool first = true;
  for (const std::uint64_t v : a) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64, first ? "" : ",", v);
    s += buf;
    first = false;
  }
  s += "],";
}

template <typename Map>
void PutEnumMap(std::string& s, const char* key, const Map& m) {
  // Enum-keyed counters as [[numeric_key, count], ...] so the reader
  // never needs per-enum string parsers.
  s += '"';
  s += key;
  s += "\":[";
  bool first = true;
  for (const auto& [k, v] : m) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s[%d,%" PRIu64 "]", first ? "" : ",",
                  static_cast<int>(k), v);
    s += buf;
    first = false;
  }
  s += "],";
}

void SerializeResult(std::string& s, const sim::RunResult& r) {
  s += '{';
  PutStr(s, "workload", r.workload);
  PutU64(s, "mode", static_cast<std::uint64_t>(r.mode));
  PutBool(s, "output_ok", r.output_ok);
  PutU64(s, "cycles", r.cycles);
  const std::uint64_t cpu[] = {
      r.cpu.retired_total,    r.cpu.retired_scalar, r.cpu.retired_vector,
      r.cpu.mem_reads,        r.cpu.mem_writes,     r.cpu.branches,
      r.cpu.mispredicts,      r.cpu.issue_slots,    r.cpu.mem_stall_cycles,
      r.cpu.other_stall_cycles, r.cpu.neon_busy_cycles,
      r.cpu.dsa_overhead_cycles};
  PutU64Array(s, "cpu", cpu);
  const std::uint64_t l1[] = {r.l1.hits, r.l1.misses};
  const std::uint64_t l2[] = {r.l2.hits, r.l2.misses};
  PutU64Array(s, "l1", l1);
  PutU64Array(s, "l2", l2);
  PutU64(s, "dram", r.dram_accesses);
  const double energy[] = {r.energy.core_dynamic, r.energy.core_static,
                           r.energy.neon_dynamic, r.energy.neon_static,
                           r.energy.cache_dram,   r.energy.dsa_dynamic,
                           r.energy.dsa_static};
  s += "\"energy\":[";
  for (int i = 0; i < 7; ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", energy[i]);
    s += buf;
  }
  s += "],";
  {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "\"digest\":\"0x%016" PRIx64 "\",",
                  r.output_digest);
    s += buf;
  }
  PutU64(s, "host_steps", r.host_steps);
  PutDbl(s, "host_wall_ms", r.host_wall_ms);
  if (r.dsa.has_value()) {
    const engine::DsaStats& d = *r.dsa;
    s += "\"dsa\":{";
    const std::uint64_t counters[] = {
        d.analysis_cycles,        d.observed_instructions,
        d.takeovers,              d.cache_hit_takeovers,
        d.fusions_formed,         d.fusion_demotions,
        d.sentinel_respeculations, d.vectorized_iterations,
        d.scalar_covered_instrs,  d.vector_instrs_issued,
        d.array_map_accesses,     d.vc_accesses,
        d.dsa_cache_accesses,     d.rollbacks,
        d.blacklisted_loops,      d.cache_corruptions_detected};
    PutU64Array(s, "counters", counters);
    PutU64Array(s, "stages", d.stage_activations);
    PutEnumMap(s, "loops", d.loops_by_class);
    PutEnumMap(s, "entries", d.entries_by_class);
    PutEnumMap(s, "rejects", d.rejects_by_reason);
    CloseObj(s);
    s += ',';
  }
  if (r.faults.has_value()) {
    const fault::FaultReport& fr = *r.faults;
    s += "\"faults\":{";
    PutStr(s, "plan", fault::FormatFaultPlan(fr.plan));
    PutU64Array(s, "opportunities", fr.opportunities);
    PutU64Array(s, "fired", fr.fired);
    CloseObj(s);
    s += ',';
  }
  CloseObj(s);
}

template <typename Array>
bool ReadU64Array(const JsonValue* v, Array& out, std::size_t expect) {
  if (v == nullptr || !v->is_array() || v->array.size() != expect) {
    return false;
  }
  for (std::size_t i = 0; i < expect; ++i) out[i] = v->array[i].AsU64();
  return true;
}

template <typename Map>
bool ReadEnumMap(const JsonValue* v, Map& out) {
  if (v == nullptr || !v->is_array()) return false;
  for (const JsonValue& pair : v->array) {
    if (!pair.is_array() || pair.array.size() != 2) return false;
    using Key = typename Map::key_type;
    out[static_cast<Key>(pair.array[0].AsI64())] = pair.array[1].AsU64();
  }
  return true;
}

bool ParseResult(const JsonValue& j, sim::RunResult& r) {
  if (!j.is_object()) return false;
  const JsonValue* wl = j.Find("workload");
  if (wl == nullptr || !wl->is_string()) return false;
  r.workload = wl->AsString();
  const JsonValue* mode = j.Find("mode");
  if (mode == nullptr) return false;
  r.mode = static_cast<sim::RunMode>(mode->AsU64());
  const JsonValue* ok = j.Find("output_ok");
  if (ok == nullptr) return false;
  r.output_ok = ok->AsBool();
  const JsonValue* cycles = j.Find("cycles");
  if (cycles == nullptr) return false;
  r.cycles = cycles->AsU64();

  std::uint64_t cpu[12];
  if (!ReadU64Array(j.Find("cpu"), cpu, 12)) return false;
  r.cpu.retired_total = cpu[0];
  r.cpu.retired_scalar = cpu[1];
  r.cpu.retired_vector = cpu[2];
  r.cpu.mem_reads = cpu[3];
  r.cpu.mem_writes = cpu[4];
  r.cpu.branches = cpu[5];
  r.cpu.mispredicts = cpu[6];
  r.cpu.issue_slots = cpu[7];
  r.cpu.mem_stall_cycles = cpu[8];
  r.cpu.other_stall_cycles = cpu[9];
  r.cpu.neon_busy_cycles = cpu[10];
  r.cpu.dsa_overhead_cycles = cpu[11];

  std::uint64_t l1[2];
  std::uint64_t l2[2];
  if (!ReadU64Array(j.Find("l1"), l1, 2)) return false;
  if (!ReadU64Array(j.Find("l2"), l2, 2)) return false;
  r.l1.hits = l1[0];
  r.l1.misses = l1[1];
  r.l2.hits = l2[0];
  r.l2.misses = l2[1];
  const JsonValue* dram = j.Find("dram");
  if (dram == nullptr) return false;
  r.dram_accesses = dram->AsU64();

  const JsonValue* energy = j.Find("energy");
  if (energy == nullptr || !energy->is_array() || energy->array.size() != 7) {
    return false;
  }
  r.energy.core_dynamic = energy->array[0].AsDouble();
  r.energy.core_static = energy->array[1].AsDouble();
  r.energy.neon_dynamic = energy->array[2].AsDouble();
  r.energy.neon_static = energy->array[3].AsDouble();
  r.energy.cache_dram = energy->array[4].AsDouble();
  r.energy.dsa_dynamic = energy->array[5].AsDouble();
  r.energy.dsa_static = energy->array[6].AsDouble();

  const JsonValue* digest = j.Find("digest");
  if (digest == nullptr || !digest->is_string()) return false;
  r.output_digest =
      std::strtoull(digest->AsString().c_str(), nullptr, 16);
  const JsonValue* steps = j.Find("host_steps");
  if (steps != nullptr) r.host_steps = steps->AsU64();
  const JsonValue* hw = j.Find("host_wall_ms");
  if (hw != nullptr) r.host_wall_ms = hw->AsDouble();

  if (const JsonValue* dsa = j.Find("dsa"); dsa != nullptr) {
    engine::DsaStats d;
    std::uint64_t counters[16];
    if (!ReadU64Array(dsa->Find("counters"), counters, 16)) return false;
    d.analysis_cycles = counters[0];
    d.observed_instructions = counters[1];
    d.takeovers = counters[2];
    d.cache_hit_takeovers = counters[3];
    d.fusions_formed = counters[4];
    d.fusion_demotions = counters[5];
    d.sentinel_respeculations = counters[6];
    d.vectorized_iterations = counters[7];
    d.scalar_covered_instrs = counters[8];
    d.vector_instrs_issued = counters[9];
    d.array_map_accesses = counters[10];
    d.vc_accesses = counters[11];
    d.dsa_cache_accesses = counters[12];
    d.rollbacks = counters[13];
    d.blacklisted_loops = counters[14];
    d.cache_corruptions_detected = counters[15];
    if (!ReadU64Array(dsa->Find("stages"), d.stage_activations,
                      engine::kNumStages)) {
      return false;
    }
    if (!ReadEnumMap(dsa->Find("loops"), d.loops_by_class)) return false;
    if (!ReadEnumMap(dsa->Find("entries"), d.entries_by_class)) return false;
    if (!ReadEnumMap(dsa->Find("rejects"), d.rejects_by_reason)) return false;
    r.dsa = d;
  }
  if (const JsonValue* faults = j.Find("faults"); faults != nullptr) {
    fault::FaultReport fr;
    const JsonValue* plan = faults->Find("plan");
    if (plan == nullptr || !plan->is_string()) return false;
    try {
      fr.plan = fault::ParseFaultPlan(plan->AsString());
    } catch (const std::invalid_argument&) {
      return false;
    }
    if (!ReadU64Array(faults->Find("opportunities"), fr.opportunities,
                      fault::kNumFaultKinds)) {
      return false;
    }
    if (!ReadU64Array(faults->Find("fired"), fr.fired,
                      fault::kNumFaultKinds)) {
      return false;
    }
    r.faults = fr;
  }
  return true;
}

// Validates one framed line (without its trailing newline). Returns true
// and fills `payload` when the CRC matches.
bool CheckFrame(std::string_view line, std::string& payload) {
  if (line.size() < 10 || line[8] != ' ') return false;
  std::uint32_t crc = 0;
  for (int i = 0; i < 8; ++i) {
    const char c = line[i];
    crc <<= 4;
    if (c >= '0' && c <= '9') crc |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') crc |= static_cast<std::uint32_t>(c - 'a' + 10);
    else return false;
  }
  const std::string_view body = line.substr(9);
  if (Crc32(body.data(), body.size()) != crc) return false;
  payload.assign(body);
  return true;
}

}  // namespace

bool ParseFsyncPolicy(const std::string& name, FsyncPolicy& out) {
  if (name == "none") out = FsyncPolicy::kNone;
  else if (name == "interval") out = FsyncPolicy::kInterval;
  else if (name == "always") out = FsyncPolicy::kAlways;
  else return false;
  return true;
}

std::string_view ToString(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kAlways: return "always";
  }
  return "?";
}

std::uint32_t Crc32(const void* data, std::size_t len) {
  // Table-free bitwise CRC-32; the journal appends are one small line per
  // simulated cell, so throughput is irrelevant next to the sim itself.
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

std::string SerializeRunResult(const sim::RunResult& r) {
  std::string s;
  SerializeResult(s, r);
  return s;
}

bool ParseRunResult(const std::string& payload, sim::RunResult& r) {
  JsonValue j;
  if (!ParseJson(payload, j)) return false;
  r = sim::RunResult{};
  return ParseResult(j, r);
}

std::string SerializeOutcome(const sim::JobOutcome& out) {
  std::string s = "{";
  PutStr(s, "kind", "cell");
  PutStr(s, "key", out.key);
  PutStr(s, "status", out.cell_status);
  PutU64(s, "config", out.config_digest);
  PutU64(s, "attempts", out.attempts);
  PutDbl(s, "wall_ms", out.wall_ms);
  PutU64(s, "runs", out.runs.size());
  if (!out.runs.empty()) {
    s += "\"result\":";
    SerializeResult(s, out.result());
    s += ',';
  }
  CloseObj(s);
  return s;
}

bool ParseOutcomePayload(const std::string& payload, std::string& key,
                         sim::JobOutcome& out) {
  JsonValue j;
  if (!ParseJson(payload, j) || !j.is_object()) return false;
  const JsonValue* kind = j.Find("kind");
  if (kind == nullptr || kind->AsString() != "cell") return false;
  const JsonValue* k = j.Find("key");
  if (k == nullptr || !k->is_string() || k->AsString().empty()) return false;
  key = k->AsString();
  out = sim::JobOutcome{};
  out.key = key;
  const JsonValue* status = j.Find("status");
  if (status == nullptr || !status->is_string()) return false;
  out.cell_status = status->AsString();
  if (const JsonValue* config = j.Find("config"); config != nullptr) {
    out.config_digest = config->AsU64();
  }
  const JsonValue* attempts = j.Find("attempts");
  if (attempts == nullptr) return false;
  out.attempts = attempts->AsU64();
  if (const JsonValue* wall = j.Find("wall_ms"); wall != nullptr) {
    out.wall_ms = wall->AsDouble();
  }
  const JsonValue* nruns = j.Find("runs");
  if (nruns == nullptr) return false;
  const std::uint64_t n = nruns->AsU64();
  if (n > 0) {
    const JsonValue* result = j.Find("result");
    if (result == nullptr) return false;
    sim::RunResult r;
    if (!ParseResult(*result, r)) return false;
    // The journal stores the canonical run once; the recorded sample
    // count is restored by replication (all repeats of a journaled cell
    // already passed the determinism oracle before being appended).
    out.runs.assign(static_cast<std::size_t>(n), r);
  }
  return true;
}

bool ReplayJournal(const std::string& path, ReplayResult& out,
                   std::string* error) {
  out = ReplayResult{};
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return true;  // no journal yet: empty replay
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string data = ss.str();

  std::size_t pos = 0;
  bool saw_header = false;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) break;  // incomplete final line: torn
    const std::string_view line(data.data() + pos, nl - pos);
    std::string payload;
    if (!CheckFrame(line, payload)) break;
    if (!saw_header) {
      // First record must be the header carrying the journal schema.
      JsonValue j;
      if (!ParseJson(payload, j) || !j.is_object()) break;
      const JsonValue* kind = j.Find("kind");
      const JsonValue* schema = j.Find("schema");
      if (kind == nullptr || kind->AsString() != "meta" || schema == nullptr) {
        break;
      }
      if (schema->AsString() != kJournalSchema) {
        if (error != nullptr) {
          *error = "journal schema " + schema->AsString() +
                   " is not " + kJournalSchema;
        }
        return false;
      }
      // Cells are only valid under the engine that computed them.
      const JsonValue* engine = j.Find("engine");
      const std::string recorded =
          engine != nullptr ? engine->AsString() : std::string("(none)");
      if (recorded != sim::kEngineVersion) {
        if (error != nullptr) {
          *error = sim::DsaError(sim::DsaErrorCode::kStaleResume,
                                 "journal " + path + " was recorded by " +
                                     recorded + ", this binary is " +
                                     std::string(sim::kEngineVersion))
                       .what();
        }
        return false;
      }
      saw_header = true;
    } else {
      std::string key;
      sim::JobOutcome cell;
      if (!ParseOutcomePayload(payload, key, cell)) break;
      if (out.cells.count(key) != 0) ++out.duplicates;
      out.cells[key] = std::move(cell);
    }
    ++out.records;
    pos = nl + 1;
  }
  out.valid_bytes = pos;
  out.torn_bytes = data.size() - pos;
  return true;
}

Journal::~Journal() { Close(); }

bool Journal::Open(const std::string& path, const JournalOptions& opts,
                   std::string* error) {
  Close();
  ReplayResult scan;
  if (!ReplayJournal(path, scan, error)) return false;
  const int fd = IoOpen(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open " + path + ": " + std::strerror(errno);
    }
    return false;
  }
  if (scan.torn_bytes > 0) {
    // Drop the torn tail before appending, so resumed records start on a
    // clean frame boundary.
    if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) != 0) {
      if (error != nullptr) {
        *error = "cannot truncate torn tail of " + path + ": " +
                 std::strerror(errno);
      }
      ::close(fd);
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  path_ = path;
  opts_ = opts;
  fd_ = fd;
  appended_ = 0;
  since_fsync_ = 0;
  write_failures_ = 0;
  fsync_failures_ = 0;
  RegisterFd(fd_);
  if (scan.records == 0) {
    std::string header = "{";
    PutStr(header, "kind", "meta");
    PutStr(header, "schema", kJournalSchema);
    PutStr(header, "engine", std::string(sim::kEngineVersion));
    CloseObj(header);
    AppendLine(header);
  }
  return true;
}

void Journal::AppendLine(const std::string& payload) {
  char frame[10];
  std::snprintf(frame, sizeof(frame), "%08x ",
                Crc32(payload.data(), payload.size()));
  std::string line;
  line.reserve(payload.size() + 10);
  line.append(frame, 9);
  line += payload;
  line += '\n';
  // One write() per record: with O_APPEND the line lands contiguously, so
  // a crash can tear at most the final record — exactly what the replay
  // truncation handles.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = IoWrite(fd_, line.data() + off, line.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // Disk full / IO error: the next replay truncates the tear. The
      // failure is counted, not swallowed — the bench JSON surfaces it
      // as a typed [io-fault] durability warning.
      ++write_failures_;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
  if (opts_.fsync == FsyncPolicy::kAlways) {
    if (IoFsync(fd_) != 0) ++fsync_failures_;
  } else if (opts_.fsync == FsyncPolicy::kInterval) {
    if (++since_fsync_ >= opts_.fsync_interval) {
      if (IoFsync(fd_) != 0) ++fsync_failures_;
      since_fsync_ = 0;
    }
  }
}

void Journal::Append(const sim::JobOutcome& out) {
  const std::string payload = SerializeOutcome(out);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  AppendLine(payload);
  ++appended_;  // cell records only; the header does not count
}

void Journal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    if (IoFsync(fd_) != 0) ++fsync_failures_;
    since_fsync_ = 0;
  }
}

void Journal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  if (IoFsync(fd_) != 0) ++fsync_failures_;
  DeregisterFd(fd_);
  ::close(fd_);
  fd_ = -1;
}

std::uint64_t Journal::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

std::uint64_t Journal::write_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_failures_;
}

std::uint64_t Journal::fsync_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsync_failures_;
}

void FlushAllJournals() {
  if (!g_registry_init.load()) return;
  for (const auto& slot : g_journal_fds) {
    const int fd = slot.load(std::memory_order_relaxed);
    if (fd >= 0) ::fsync(fd);
  }
}

}  // namespace dsa::resilience
