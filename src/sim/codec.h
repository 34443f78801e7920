// The one cell codec: the documented bench-JSON cell (docs/BENCH_SCHEMA.md,
// one `results[]` element of WriteBenchJson) is also the encoding the
// result cache stores (serve/cache.h) and the isolation pipe ships
// (resilience/isolate.h), so a restored or isolated cell reports exactly
// what an in-process run does. Doubles are written with %.17g and every
// deterministic RunResult field has a named slot, so a cell round-trips
// bit-exactly. Derived fields (speedup_vs_scalar, host.mips, stream.gbps,
// energy.total, detection_latency_pct, faults.seed/total_fired) are
// written but never read back; the trace block is written for traced
// runs and not carried. Also here: the string writer WriteBenchJson
// builds its report envelope with, and the CRC-32 that frames stored and
// shipped records (the DSAS wire protocol, serve/proto.h, frames with it
// too).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "resilience/mini_json.h"
#include "sim/runner.h"

namespace dsa::sim {

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes.
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t len);

// Appends JSON text to a string: `"key": value` members separated by
// ", ", commas placed automatically. An empty key starts an array
// element (or the top-level value).
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : s_(out) {}

  void Open(std::string_view key, char bracket);
  void Close(char bracket);
  void Str(std::string_view key, std::string_view v);
  void U64(std::string_view key, std::uint64_t v);
  void Dbl(std::string_view key, double v);  // %.17g: exact through strtod
  void Bool(std::string_view key, bool v);
  void Hex(std::string_view key, std::uint64_t v);  // "0x%016x" string
  void Value(std::string_view key, std::string_view json);  // pre-encoded

 private:
  void Key(std::string_view key);

  std::string& s_;
  bool fresh_ = true;
};

// One cell as its bench-JSON object. `scalar_cycles` > 0 adds the
// speedup_vs_scalar column (the batch's scalar baseline of the same
// workload).
[[nodiscard]] std::string SerializeOutcome(const JobOutcome& out,
                                           std::uint64_t scalar_cycles = 0);
// Rebuilds the cell from that object: keys, status, attempts, error and
// the canonical run, replicated `runs` times so the determinism oracle
// sees the recorded sample count. False on a missing or malformed field.
[[nodiscard]] bool ParseOutcome(const resilience::JsonValue& j,
                                JobOutcome& out);

// One RunResult as a single-run cell (job "workload@mode"), and back.
[[nodiscard]] std::string SerializeRunResult(const RunResult& r);
[[nodiscard]] bool ParseRunResult(std::string_view payload, RunResult& r);

}  // namespace dsa::sim
