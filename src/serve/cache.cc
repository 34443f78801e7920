#include "serve/cache.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "mem/memory.h"
#include "resilience/iofault.h"
#include "resilience/mini_json.h"
#include "sim/codec.h"

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define DSA_HAVE_CACHE_FS 1
#else
#define DSA_HAVE_CACHE_FS 0
#endif

namespace dsa::serve {

namespace {

using sim::Fnv1a;

void HashProgram(Fnv1a& f, const prog::Program& p) {
  f.U64(p.size());
  for (const isa::Instruction& ins : p.code()) {
    f.I64(static_cast<std::int64_t>(ins.op));
    f.I64(static_cast<std::int64_t>(ins.cond));
    f.I64(static_cast<std::int64_t>(ins.vt));
    f.I64(ins.rd);
    f.I64(ins.rn);
    f.I64(ins.rm);
    f.I64(ins.ra);
    f.I64(ins.imm);
    f.I64(ins.post_inc);
  }
}

std::string Hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ParseHexU64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

std::string Slurp(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = in.good();
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// One cache-entry file, parsed: the key fields it claims to answer for
// and the cell it carries.
struct Entry {
  CacheKey key;
  sim::JobOutcome cell;
};

// The one entry parser, shared by Load and Scrub: a complete
// `CCCCCCCC json\n` frame, a matching CRC, the entry-schema label,
// non-empty key and version labels, parseable hex digests, and a cell
// payload that parses and names the entry's own key. False means the
// file is corrupt and gets quarantined; whether a valid entry answers
// for the key being looked up is the caller's question.
bool ParseEntry(const std::string& data, Entry& e) {
  std::uint64_t crc = 0;
  if (data.size() < 10 || data.back() != '\n' || data[8] != ' ' ||
      !ParseHexU64(data.substr(0, 8), crc)) {
    return false;
  }
  const std::string payload = data.substr(9, data.size() - 10);
  if (sim::Crc32(payload.data(), payload.size()) != crc) return false;
  resilience::JsonValue j;
  if (!resilience::ParseJson(payload, j) || !j.is_object()) return false;
  const auto field = [&j](std::string_view name) -> std::string {
    const resilience::JsonValue* v = j.Find(name);
    return v != nullptr ? v->AsString() : std::string();
  };
  const auto hex_field = [&field](std::string_view name, std::uint64_t& v) {
    std::string s = field(name);
    if (s.rfind("0x", 0) == 0) s = s.substr(2);
    return ParseHexU64(s, v);
  };
  e.key.job_key = field("key");
  e.key.engine_version = field("engine");
  e.key.bench_schema = field("bench_schema");
  const resilience::JsonValue* cell = j.Find("cell");
  return field("schema") == kCacheEntrySchema && !e.key.job_key.empty() &&
         !e.key.engine_version.empty() && !e.key.bench_schema.empty() &&
         hex_field("workload_digest", e.key.workload_digest) &&
         hex_field("config_digest", e.key.config_digest) && cell != nullptr &&
         sim::ParseOutcome(*cell, e.cell) &&
         e.cell.key == e.key.job_key;
}

bool SameKey(const CacheKey& a, const CacheKey& b) {
  return a.job_key == b.job_key && a.workload_digest == b.workload_digest &&
         a.config_digest == b.config_digest &&
         a.engine_version == b.engine_version &&
         a.bench_schema == b.bench_schema;
}

// Moves a corrupt entry aside (forensics), or deletes it when the rename
// fails. Deliberately a direct ::rename, not the injectable shim: this
// is the repair path, and an armed rename-fail plan must target the
// Store publish rename, not the cleanup.
void Quarantine(const std::string& path) {
#if DSA_HAVE_CACHE_FS
  const std::string aside = path + ".quarantine";
  if (::rename(path.c_str(), aside.c_str()) != 0) (void)::unlink(path.c_str());
#else
  (void)path;
#endif
}

}  // namespace

std::uint64_t WorkloadDigest(const sim::Workload& wl) {
  Fnv1a f;
  f.Str(wl.name);
  f.U64(wl.mem_bytes);
  HashProgram(f, wl.scalar);
  HashProgram(f, wl.autovec);
  HashProgram(f, wl.handvec);
  f.U64(wl.outputs.size());
  for (const sim::OutputRegion& r : wl.outputs) {
    f.U64(r.addr);
    f.U64(r.bytes);
  }
  f.U64(wl.loop_type_fractions.size());
  for (const auto& [type, fraction] : wl.loop_type_fractions) {
    f.Str(type);
    f.F64(fraction);
  }
  f.U64(wl.stream_bytes);
  f.U64(wl.gen.has_value() ? 1 : 0);
  if (wl.gen.has_value()) {
    f.U64(wl.gen->seed);
    f.Str(wl.gen->loop_class);
    f.U64(wl.gen->count);
  }
  // The input data set: run the init hook against a fresh memory image
  // and fold the whole image in, so two workloads that differ only in
  // their data (a different seed, a different constant table) never
  // share a cache entry.
  mem::Memory m(wl.mem_bytes);
  if (wl.init) wl.init(m);
  f.Bytes(m.data(), m.size());
  return f.h;
}

std::string CacheKey::FileName() const {
  Fnv1a f;
  f.Str(job_key);
  f.U64(workload_digest);
  f.U64(config_digest);
  f.Str(engine_version);
  f.Str(bench_schema);
  return Hex64(f.h) + ".cell";
}

CacheKey KeyFor(const sim::BatchJob& job) {
  CacheKey key;
  key.job_key = sim::JobKey(job);
  key.workload_digest = WorkloadDigest(job.workload);
  key.config_digest = ConfigDigest(job.config);
  return key;
}

bool ResultCache::Open(const std::string& dir, std::string* error) {
#if DSA_HAVE_CACHE_FS
  if (dir.empty()) {
    if (error != nullptr) *error = "cache: empty directory path";
    return false;
  }
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (error != nullptr) {
      *error = "cache: cannot create " + dir + ": " + std::strerror(errno);
    }
    return false;
  }
  struct stat st = {};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    if (error != nullptr) *error = "cache: " + dir + " is not a directory";
    return false;
  }
  dir_ = dir;
  return true;
#else
  (void)dir;
  if (error != nullptr) *error = "cache: filesystem API unavailable";
  return false;
#endif
}

bool ResultCache::Load(const CacheKey& key, sim::JobOutcome& out) {
  if (!open()) return false;
  const std::string path = dir_ + "/" + key.FileName();
  bool readable = false;
  const std::string data = Slurp(path, readable);
  // Anything less than a complete, CRC-matching, parseable entry is
  // quarantined and recomputed, never trusted. A well-formed entry for a
  // different key (hash collision, copied file) is a miss, not
  // corruption — it stays in place.
  Entry entry;
  const bool corrupt = readable && !ParseEntry(data, entry);
  const bool hit = readable && !corrupt && SameKey(entry.key, key);
  if (corrupt) Quarantine(path);
  if (hit) out = std::move(entry.cell);
  std::lock_guard<std::mutex> lock(mu_);
  if (corrupt) ++stats_.quarantined;
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return hit;
}

bool ResultCache::Store(const CacheKey& key, const sim::JobOutcome& out) {
#if DSA_HAVE_CACHE_FS
  if (!open()) return false;
  std::string payload;
  sim::JsonWriter w(payload);
  w.Open({}, '{');
  w.Str("schema", kCacheEntrySchema);
  w.Str("key", key.job_key);
  w.Hex("workload_digest", key.workload_digest);
  w.Hex("config_digest", key.config_digest);
  w.Str("engine", key.engine_version);
  w.Str("bench_schema", key.bench_schema);
  w.Value("cell", sim::SerializeOutcome(out));
  w.Close('}');
  char crc[12];
  std::snprintf(crc, sizeof(crc), "%08x",
                sim::Crc32(payload.data(), payload.size()));
  std::string line = crc;
  line += ' ';
  line += payload;
  line += '\n';

  const std::string name = key.FileName();
  // Per-process sequence in the tmp name: two ResultCache instances in
  // one process (two daemons sharing a cache dir in tests) storing the
  // same key must not stomp each other's half-written tmp file.
  static std::atomic<std::uint64_t> g_tmp_seq{0};
  const std::uint64_t seq = g_tmp_seq.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = dir_ + "/.tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq) + "." + name;
  const std::string path = dir_ + "/" + name;
  const auto fail = [&](bool fsync_refused) {
    (void)::unlink(tmp.c_str());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_failures;
    if (fsync_refused) ++stats_.fsync_failures;
    return false;
  };
  // All host I/O below goes through the injectable shims
  // (resilience/iofault.h) so ENOSPC/EIO/short-write/fsync-fail/
  // rename-fail each have a deterministic rehearsal path.
  const int fd = resilience::IoOpen(tmp.c_str(),
                                    O_CREAT | O_TRUNC | O_WRONLY, 0666);
  if (fd < 0) return fail(false);
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        resilience::IoWrite(fd, line.data() + off, line.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return fail(false);
    }
    off += static_cast<std::size_t>(n);
  }
  // fsync before the rename: once the entry is visible under its final
  // name it must be complete even across a kill -9 or power cut. A
  // refused fsync means the entry is NOT durable — never publish it.
  if (resilience::IoFsync(fd) != 0) {
    ::close(fd);
    return fail(true);
  }
  ::close(fd);
  if (resilience::IoRename(tmp.c_str(), path.c_str()) != 0)
    return fail(false);
  // Persist the directory entry too, so the rename itself survives. The
  // entry is already published and valid at this point, so a refused
  // directory fsync degrades the durability claim (counted) without
  // failing the store.
  bool dir_fsync_failed = false;
  const int dfd = ::open(dir_.c_str(), O_RDONLY);
  if (dfd >= 0) {
    if (resilience::IoFsync(dfd) != 0) dir_fsync_failed = true;
    ::close(dfd);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
  if (dir_fsync_failed) ++stats_.fsync_failures;
  return true;
#else
  (void)key;
  (void)out;
  return false;
#endif
}

ScrubStats ResultCache::Scrub() {
  ScrubStats s;
#if DSA_HAVE_CACHE_FS
  if (!open()) return s;
  std::vector<std::string> entries;
  if (DIR* d = ::opendir(dir_.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      // Only published entries: tmp files and prior quarantines are not
      // servable state and stay untouched.
      if (name.size() > 5 && name.compare(name.size() - 5, 5, ".cell") == 0)
        entries.push_back(name);
    }
    ::closedir(d);
  }
  for (const std::string& name : entries) {
    const std::string path = dir_ + "/" + name;
    bool readable = false;
    const std::string data = Slurp(path, readable);
    ++s.checked;
    Entry entry;
    if (readable && ParseEntry(data, entry)) {
      ++s.ok;
      continue;
    }
    Quarantine(path);
    ++s.quarantined;
  }
#endif
  std::lock_guard<std::mutex> lock(mu_);
  scrub_stats_ = s;
  return s;
}

void BindCache(ResultCache& cache, sim::RunnerOptions& ro) {
  // Keys computed by lookups that missed, consumed by the store of the
  // same cell (by JobKey; the runner executes each distinct job once).
  struct PendingKeys {
    std::mutex mu;
    std::map<std::string, CacheKey> keys;
  };
  auto pending = std::make_shared<PendingKeys>();
  const std::size_t repeats =
      ro.repeats < 1 ? 1u : static_cast<std::size_t>(ro.repeats);
  ro.restore_fn = [&cache, pending, repeats](const sim::BatchJob& job,
                                             sim::JobOutcome& out) {
    CacheKey key = KeyFor(job);
    if (cache.Load(key, out) && out.runs.size() >= repeats) {
      out.runs.resize(repeats);
      return true;
    }
    std::string job_key = key.job_key;
    std::lock_guard<std::mutex> lock(pending->mu);
    pending->keys[std::move(job_key)] = std::move(key);
    return false;
  };
  ro.on_outcome = [&cache, pending](const sim::BatchJob& job,
                                    const sim::JobOutcome& out) {
    CacheKey key;
    {
      std::lock_guard<std::mutex> lock(pending->mu);
      const auto it = pending->keys.find(sim::JobKey(job));
      if (it == pending->keys.end()) return;
      key = std::move(it->second);
      pending->keys.erase(it);
    }
    if (out.cell_status == "ok") (void)cache.Store(key, out);
  };
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ScrubStats ResultCache::scrub_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scrub_stats_;
}

}  // namespace dsa::serve
