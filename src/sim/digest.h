// Content digests and version labels of the content-addressed result
// cache (serve/cache.h), the one store that hands back a stored result
// instead of simulating it — for dsa_serve and for bench drivers run with
// --cache alike. A stored result is addressed by the engine version, the
// bench schema and the config digest it was computed under, so it is
// never reused under any other.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "sim/system.h"

namespace dsa::sim {

// Bump on any change that can alter simulated results (timing, energy,
// engine behaviour): every stored result is keyed or checked against it.
inline constexpr std::string_view kEngineVersion = "dsa-engine/9";

// The serialized-report contract (docs/BENCH_SCHEMA.md): WriteBenchJson
// emits it as the "schema" marker, and every cache key carries it.
inline constexpr std::string_view kBenchSchema = "dsa-bench-json/7";

// FNV-1a, 64-bit: the repo's digest primitive (the output-digest oracle
// uses the same construction), here accumulated field-by-field so the
// hash is a pure function of declared content, never of padding.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void Bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

// FNV-1a 64-bit digest over every SystemConfig field the simulation
// reads (timing, memory hierarchy, DSA structures/features/latencies,
// energy parameters, fault plan, step budget, reference path, trace
// enablement).
[[nodiscard]] std::uint64_t ConfigDigest(const SystemConfig& cfg);

}  // namespace dsa::sim
