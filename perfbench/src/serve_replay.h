#pragma once

#include <string>

namespace perfbench {

// In-process reference for the `serve` workload: every cell of the
// daemon's sweep space (the Article 3 set in all four modes, the
// Article 2 set under DsaConfig::Original(), the streaming set in
// arm-original and neon-dsa, default sizes and configs), built from the
// workloads factories and run through sim::BatchRunner with the oracle
// on. Prints one JSON line with each cell's cycles, output digest and
// retired instructions, and the simulated fingerprint.
int RunServeReference();

struct ReplayArgs {
  // One request per line: "cold<TAB>filter" or
  // "warm<TAB>filter<TAB>file holding the response dsa_serve sent".
  std::string requests;
  std::string cache_dir;  // empty directory the cold replay stores into
  std::string out_dir;    // spans.json is written here
};

// Traced replay of the daemon's request steps through the same public
// functions the daemon calls (serve::SweepJobs, serve::KeyFor,
// ResultCache::Load/Store, sim::ExecuteCell, SendFrame/RecvFrame over a
// socketpair), one span per call. The cold replay simulates and stores
// every cell; the warm replay then answers each listed request from that
// cache and frames the response the daemon actually sent for it.
int RunServeReplay(const ReplayArgs& args);

}  // namespace perfbench
