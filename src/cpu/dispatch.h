// Names of the interpreter cores a run can execute on (docs/DISPATCH.md),
// as reported in the bench JSON's host.dispatch.
//
// kThreaded is the predecoded threaded-code engine that runs every batched
// loop. kSwitch is the per-step decode-switch core that the `--reference`
// twin and traced runs retire through. Simulated results are bit-identical
// on both (tests/test_dispatch.cc, tests/test_reference_path.cc).
#pragma once

#include <cstdint>
#include <string_view>

namespace dsa::cpu {

enum class DispatchMode : std::uint8_t {
  kSwitch,    // per-step decode switch (every retire of the run)
  kThreaded,  // predecoded threaded code + superinstructions
};

[[nodiscard]] inline std::string_view ToString(DispatchMode m) {
  switch (m) {
    case DispatchMode::kSwitch: return "switch";
    case DispatchMode::kThreaded: return "threaded";
  }
  return "?";
}

}  // namespace dsa::cpu
