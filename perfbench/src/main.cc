// perfbench — the C++ half of the repository benchmark (perfbench/run.py
// is the entry point and documents the workloads). Subcommands:
//   sweep --workload sweep_dsa|sweep_static --seed N --seconds S
//         --trace 0|1 --out DIR      one sweep workload run
//   serve-ref                         reference cells of dsa_serve's space
//   serve-replay --requests FILE --cache DIR --out DIR
//                                     traced replay of the serve steps
//   calibrate --samples N --threads T best time of N runs of the
//                                     host-speed calibration kernel on T
//                                     threads at once (calibrate.h)
// Each prints one JSON line on stdout and exits non-zero on any
// correctness failure; usage errors exit 2.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "calibrate.h"
#include "serve/flags.h"
#include "serve_replay.h"
#include "sweep.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench sweep --workload sweep_dsa|sweep_static "
               "--seed N --seconds S --trace 0|1 --out DIR\n"
               "       perfbench serve-ref\n"
               "       perfbench serve-replay --requests FILE --cache DIR "
               "--out DIR\n"
               "       perfbench calibrate --samples N --threads T\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  perfbench::SweepArgs sweep;
  perfbench::ReplayArgs replay;
  std::uint64_t samples = 3;
  std::uint64_t threads = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      sweep.workload = value;
    } else if (flag == "--seed" && dsa::serve::ParseU64Text(value.c_str(), n)) {
      sweep.seed = n;
    } else if (flag == "--seconds" &&
               dsa::serve::ParseU64Text(value.c_str(), n) && n > 0) {
      sweep.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      sweep.trace = value == "1";
    } else if (flag == "--out") {
      sweep.out_dir = value;
      replay.out_dir = value;
    } else if (flag == "--samples" &&
               dsa::serve::ParseU64Text(value.c_str(), n) && n > 0 &&
               n <= 1000) {
      samples = n;
    } else if (flag == "--threads" &&
               dsa::serve::ParseU64Text(value.c_str(), n) && n > 0 &&
               n <= 64) {
      threads = n;
    } else if (flag == "--requests") {
      replay.requests = value;
    } else if (flag == "--cache") {
      replay.cache_dir = value;
    } else {
      return Usage();
    }
  }
  if (cmd == "sweep") {
    if ((sweep.workload != "sweep_dsa" && sweep.workload != "sweep_static") ||
        sweep.out_dir.empty()) {
      return Usage();
    }
    return perfbench::RunSweep(sweep);
  }
  if (cmd == "calibrate") {
    std::printf("{\"cal_ms\":%.9g,\"nominal_cal_ms\":%.9g}\n",
                perfbench::CalibrateMs(static_cast<int>(samples),
                                       static_cast<int>(threads)),
                perfbench::kNominalMs);
    return 0;
  }
  if (cmd == "serve-ref") return perfbench::RunServeReference();
  if (cmd == "serve-replay") {
    if (replay.requests.empty() || replay.cache_dir.empty() ||
        replay.out_dir.empty()) {
      return Usage();
    }
    return perfbench::RunServeReplay(replay);
  }
  return Usage();
}
