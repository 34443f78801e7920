// Persistent content-addressed result cache (docs/SERVING.md), the one
// durable result store: the serving daemon answers from it, and bench
// drivers run with --cache DIR resume through it (docs/RESILIENCE.md),
// both through the one runner binding, BindCache.
// One file per completed cell, keyed by the workload digest, the config
// digest, the engine version and the bench-schema version, so a restart —
// including a kill -9 mid-sweep — serves every previously completed cell
// bit-identically without re-simulating, and any engine or schema change
// invalidates the whole cache by construction (the version labels are
// part of the key hash, so stale entries are simply never addressed
// again).
//
// Entry format: one CRC-framed line, `CCCCCCCC <json>\n` (CRC-32 and
// cell codec from sim/codec.h), where the JSON carries the full key for
// verification plus the cell: exactly the bench-JSON `results[]` element
// of that job (docs/BENCH_SCHEMA.md).
// Writes go to a temporary sibling, fsync, then an atomic rename — a torn
// write can never be observed under the final name. A corrupt entry is
// quarantined (renamed to `<name>.quarantine`) and recomputed instead of
// trusted.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "sim/digest.h"
#include "sim/runner.h"

namespace dsa::serve {

// Version labels baked into every cache key (both defined in sim/digest.h):
// kEngineVersion tracks the simulated model, kBenchSchema the cell
// encoding (the bench-JSON cell the entries store).
using sim::kBenchSchema;
using sim::kEngineVersion;
inline constexpr std::string_view kCacheEntrySchema = "dsa-serve-cache/1";

// FNV-1a 64-bit digest of the workload's complete definition: name,
// memory size, all three program variants instruction by instruction,
// declared output regions, streaming payload size, generator provenance,
// and the initial memory image the init hook writes. Two workloads with
// equal digests run the same simulation.
[[nodiscard]] std::uint64_t WorkloadDigest(const sim::Workload& wl);

// FNV-1a 64-bit digest of every SystemConfig field the simulation reads.
using sim::ConfigDigest;

struct CacheKey {
  std::string job_key;  // "name[#wtag]@mode[/ctag]" (sim::JobKey)
  std::uint64_t workload_digest = 0;
  std::uint64_t config_digest = 0;
  std::string engine_version{kEngineVersion};
  std::string bench_schema{kBenchSchema};

  // Content address: 16 lowercase hex digits of the combined key hash,
  // plus the ".cell" suffix.
  [[nodiscard]] std::string FileName() const;
};

// The full key for one batch job (digests computed here).
[[nodiscard]] CacheKey KeyFor(const sim::BatchJob& job);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;        // absent or version-mismatched entries
  std::uint64_t stores = 0;        // entries promoted to disk
  std::uint64_t quarantined = 0;   // corrupt entries moved aside
  std::uint64_t store_failures = 0;
  // fsync(2) refused durability during a store: the tmp-file fsync (also
  // counted as a store_failure — the entry is never published) or the
  // directory fsync after the rename (the entry IS published and valid,
  // but the rename itself may not survive a power cut). Either way the
  // daemon degrades to recompute-without-promote instead of pretending
  // the disk accepted the entry.
  std::uint64_t fsync_failures = 0;
};

// Startup cache scrub census (docs/SERVING.md): every `*.cell` entry is
// structurally verified before the daemon serves from the directory.
struct ScrubStats {
  std::uint64_t checked = 0;      // entries examined
  std::uint64_t ok = 0;           // structurally valid entries kept
  std::uint64_t quarantined = 0;  // corrupt entries moved aside on boot
};

class ResultCache {
 public:
  ResultCache() = default;

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Creates `dir` if needed. False with `error` filled when the
  // directory cannot be created or is not writable.
  [[nodiscard]] bool Open(const std::string& dir, std::string* error = nullptr);

  [[nodiscard]] bool open() const { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  // Looks the key up. True fills `out` with the recorded outcome
  // (cell_status "ok" by construction — only completed cells are
  // stored). A corrupt entry is quarantined and reported as a miss; an
  // entry whose stored key fields disagree with `key` (hash collision,
  // hand-edited file) is a miss too.
  [[nodiscard]] bool Load(const CacheKey& key, sim::JobOutcome& out);

  // Promotes one completed cell to disk (atomic tmp + rename, fsync'd
  // before the rename so a kill -9 right after Store returns can never
  // lose or tear the entry). Call only for cell_status == "ok". Host I/O
  // routes through the injectable fault shims (resilience/iofault.h), so
  // every failure mode — ENOSPC, EIO, short writes, fsync refusal, a
  // failed rename — has a deterministic rehearsal path.
  [[nodiscard]] bool Store(const CacheKey& key, const sim::JobOutcome& out);

  // Boot-time integrity sweep: verifies the CRC frame, schema label, key
  // fields and cell payload of every `*.cell` entry in the directory and
  // quarantines (renames to `<name>.quarantine`) anything invalid, so a
  // torn or bit-rotted entry is caught before the daemon starts serving
  // rather than on first Load. Returns the census; also retrievable via
  // scrub_stats(). Quarantines here are NOT double-counted into
  // CacheStats::quarantined (that counter tracks serving-time findings).
  ScrubStats Scrub();

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] ScrubStats scrub_stats() const;

 private:
  std::string dir_;
  mutable std::mutex mu_;
  CacheStats stats_;
  ScrubStats scrub_stats_;
};

// Binds `cache` to the runner's resume seams; the one cache binding of
// both front ends (bench drivers with --cache DIR, every dsa_serve
// request). restore_fn digests the key once per distinct job, on the
// worker thread, and restores a stored cell only if it holds at least
// `ro.repeats` determinism samples (extra ones are dropped; a cell
// stored with fewer executes again). on_outcome stores the cell under
// that same key once it completed "ok"; a failed cell executes again
// next time (the fault may have been environmental). A killed sweep
// rerun over the same cache restores every completed cell, and a
// different config or workload is a different key, so a stored cell is
// never restored where this binary would compute another one. Set
// ro.repeats first; `cache` stays the caller's (its stats() feed the
// census) and must outlive every runner built from `ro`.
void BindCache(ResultCache& cache, sim::RunnerOptions& ro);

}  // namespace dsa::serve
