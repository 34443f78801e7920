// Crash-safe run journal: an append-only, CRC-framed JSONL file recording
// every completed cell of a batch (key, config digest, output digest, full
// deterministic stats) under a header naming the engine version. A killed
// run resumes by replaying the journal — completed cells are restored
// into the BatchRunner without re-executing, and the merged bench report
// is bit-identical (per-cell digests and stats) to an uninterrupted run.
// Format, fsync policy and the torn-tail truncation rules are documented
// in docs/RESILIENCE.md.
//
// Framing: each line is `CCCCCCCC <json>\n` where CCCCCCCC is the
// lowercase CRC-32 (IEEE, zlib polynomial) of the JSON payload bytes in
// hex. A record is valid only if its line is complete (trailing newline
// present), its CRC matches and its payload parses; replay stops at the
// first invalid record and reports everything after it as the torn tail.
// Opening a journal for append truncates the torn tail first, so a crash
// mid-append can never corrupt records written after resume.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "sim/runner.h"

namespace dsa::resilience {

// When to fsync the journal fd. kInterval is the default: durable enough
// for a soak run (at most interval-1 cells replay after a power cut)
// without paying a disk sync per cell.
enum class FsyncPolicy { kNone, kInterval, kAlways };

[[nodiscard]] bool ParseFsyncPolicy(const std::string& name, FsyncPolicy& out);
[[nodiscard]] std::string_view ToString(FsyncPolicy p);

struct JournalOptions {
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  int fsync_interval = 8;  // records between fsyncs under kInterval
};

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes.
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t len);

// One journaled cell, fully round-trippable: SerializeOutcome emits the
// JSON payload, ParseOutcomeRecord rebuilds an equivalent JobOutcome
// (the canonical run replicated `runs` times so the determinism oracle
// sees the recorded sample count).
[[nodiscard]] std::string SerializeOutcome(const sim::JobOutcome& out);
[[nodiscard]] bool ParseOutcomePayload(const std::string& payload,
                                       std::string& key,
                                       sim::JobOutcome& out);

// One RunResult as compact JSON — the deterministic fields only (the
// trace pointer is not carried; host wall time is carried but marked
// volatile everywhere it is consumed). Shared by the journal records and
// the isolation pipe protocol (isolate.h).
[[nodiscard]] std::string SerializeRunResult(const sim::RunResult& r);
[[nodiscard]] bool ParseRunResult(const std::string& payload,
                                  sim::RunResult& r);

struct ReplayResult {
  // Completed cells by job key (last record wins on duplicates).
  std::map<std::string, sim::JobOutcome> cells;
  std::uint64_t records = 0;     // valid records, including the header
  std::uint64_t duplicates = 0;  // keys journaled more than once
  std::uint64_t valid_bytes = 0; // length of the valid prefix
  std::uint64_t torn_bytes = 0;  // bytes dropped after the valid prefix
};

// Replays `path`. A missing file is not an error (empty ReplayResult);
// an unreadable file or a bad header returns false with `error` filled —
// a header from another engine version as a [stale-resume] DsaError
// message.
[[nodiscard]] bool ReplayJournal(const std::string& path, ReplayResult& out,
                                 std::string* error = nullptr);

class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Opens `path` for appending: scans any existing content, truncates a
  // torn tail, and writes the header record if the file is empty. The fd
  // is registered for the signal-safe flush path (FlushAllJournals).
  [[nodiscard]] bool Open(const std::string& path, const JournalOptions& opts,
                          std::string* error = nullptr);

  // Serializes and appends one completed cell (thread-safe; the runner's
  // on_outcome hook calls this from worker threads). Only call for cells
  // worth replaying — the supervisor journals cell_status == "ok" only.
  void Append(const sim::JobOutcome& out);

  void Flush();  // fsync now, regardless of policy
  void Close();

  [[nodiscard]] bool open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t appended() const;
  // Host-I/O failures observed while appending (write(2) could not land
  // a record; fsync(2) refused durability). Non-zero means the journal
  // may be missing records or lagging the disk — surfaced as a typed
  // [io-fault] warning in the bench JSON journal census instead of being
  // silently swallowed.
  [[nodiscard]] std::uint64_t write_failures() const;
  [[nodiscard]] std::uint64_t fsync_failures() const;

 private:
  void AppendLine(const std::string& payload);  // caller holds mu_

  mutable std::mutex mu_;
  std::string path_;
  JournalOptions opts_;
  int fd_ = -1;
  std::uint64_t appended_ = 0;
  std::uint64_t write_failures_ = 0;
  std::uint64_t fsync_failures_ = 0;
  int since_fsync_ = 0;
};

// fsyncs every open journal in the process. Async-signal-safe (fsync on a
// registered fd table, no locks, no allocation) — the graceful-drain
// signal handler and std::at_quick_exit both route through this so an
// abnormal exit never loses buffered records (satellite: flush on
// abnormal exit paths).
void FlushAllJournals();

}  // namespace dsa::resilience
