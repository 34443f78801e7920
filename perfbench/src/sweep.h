#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct SweepArgs {
  std::string workload;  // "sweep_dsa" | "sweep_static"
  std::uint64_t seed = 0;
  double seconds = 1;
  bool trace = false;
  std::string out_dir;  // bench JSON and spans are written here
};

// Runs one sweep workload and prints its one-line JSON report. Returns
// the process exit code: non-zero on any correctness failure.
int RunSweep(const SweepArgs& args);

}  // namespace perfbench
