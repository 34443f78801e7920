// Host-speed calibration. The benchmark's host is shared: how fast it runs
// drifts by up to 2x over minutes, and flips between a fast and a slow
// state from one second to the next, as other tenants load its cores and
// caches. A fixed reference kernel, compiled into the benchmark and
// independent of the simulator sources, is timed all through a run;
// timings are reported scaled to the speed at which the kernel takes
// kNominalMs, so a change of the whole host's speed cancels while a change
// in the simulator's own cost does not (perfbench/rules.py applies it).
#pragma once

namespace perfbench {

// Milliseconds the reference kernel takes, at best, on the host where the
// baseline in perfbench/README.md was recorded (a shared 4-vCPU Xeon VM).
// Fixed: changing it rescales every timing.
inline constexpr double kNominalMs = 6.0;

// Times the reference kernel `samples` times and returns the fastest, in ms.
// With `threads` > 1 each sample runs that many copies of the kernel at
// once, one per thread, and lasts until the last one finishes: the speed a
// multi-threaded program such as dsa_serve with its worker threads gets.
// The kernel is an interpreter of a fixed synthetic bytecode over a 512 KB
// data array behind a direct-mapped tag table, the same mix of indirect
// branches, ALU work and scattered loads as the simulator's run loop.
[[nodiscard]] double CalibrateMs(int samples = 3, int threads = 1);

}  // namespace perfbench
