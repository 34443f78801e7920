// The one codec for stored and shipped simulation results: the compact
// JSON encoding of a RunResult and of a completed cell (JobOutcome), and
// the CRC-32 that frames them. The result cache (serve/cache.h) stores
// cells in this encoding, the isolation pipe (isolate.h) ships RunResults
// in it, and the DSAS wire protocol (serve/proto.h) frames with the same
// CRC. The encoding carries only deterministic fields plus the host wall
// time (volatile everywhere it is consumed); the trace pointer is not
// carried. Workload metadata the bench JSON reports (streaming payload
// bytes, generator provenance) is carried, so a restored or isolated cell
// reports exactly what an in-process run does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "resilience/mini_json.h"
#include "sim/runner.h"

namespace dsa::resilience {

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes.
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t len);

// One RunResult as compact JSON, and back.
[[nodiscard]] std::string SerializeRunResult(const sim::RunResult& r);
[[nodiscard]] bool ParseRunResult(const std::string& payload,
                                  sim::RunResult& r);

// One completed cell, fully round-trippable: SerializeOutcome emits the
// JSON object, ParseOutcome rebuilds an equivalent JobOutcome from the
// parsed object (the canonical run replicated `runs` times, so the
// determinism oracle sees the recorded sample count).
[[nodiscard]] std::string SerializeOutcome(const sim::JobOutcome& out);
[[nodiscard]] bool ParseOutcome(const JsonValue& j, sim::JobOutcome& out);

}  // namespace dsa::resilience
