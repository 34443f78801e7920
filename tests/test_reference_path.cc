// Fast-path vs reference-path identity: SystemConfig::reference_path
// forces the pre-optimization code paths through the whole stack (per-step
// opcode re-derivation, map branch predictor, per-byte cache walks,
// ungated engine observation, per-step run loop). Every simulated result
// must be bit-identical to the default fast path — this suite is the
// fine-grained companion to the bench oracle's differential gate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/config.h"
#include "sim/report.h"
#include "sim/system.h"
#include "workloads/workloads.h"

namespace dsa::sim {
namespace {

using workloads::MakeBitCount;
using workloads::MakeDijkstra;
using workloads::MakeGaussian;
using workloads::MakeMatMul;
using workloads::MakeQSort;
using workloads::MakeRgbGray;
using workloads::MakeShiftAdd;
using workloads::MakeStrCopy;
using workloads::MakeSusanE;
using workloads::MakeVecAdd;

void ExpectIdentical(const Workload& wl, RunMode mode,
                     const SystemConfig& base_cfg = {}) {
  SystemConfig fast_cfg = base_cfg;
  fast_cfg.reference_path = false;
  SystemConfig ref_cfg = base_cfg;
  ref_cfg.reference_path = true;

  const RunResult fast = Run(wl, mode, fast_cfg);
  const RunResult ref = Run(wl, mode, ref_cfg);

  const std::string tag =
      wl.name + " in " + std::string(ToString(mode));
  EXPECT_EQ(fast.output_ok, ref.output_ok) << tag;
  EXPECT_EQ(fast.cycles, ref.cycles) << tag;
  EXPECT_EQ(fast.output_digest, ref.output_digest) << tag;
  // Same instruction stream => same interpreter step count, even though
  // host_steps is host metadata outside the oracle's comparison set.
  EXPECT_EQ(fast.host_steps, ref.host_steps) << tag;
  // FormatReport covers every simulated stat the report surfaces (CPU
  // counters, cache hits/misses, DRAM, DSA, energy) in one comparison.
  EXPECT_EQ(FormatReport(fast), FormatReport(ref)) << tag;
}

std::vector<Workload> SmallMatrix() {
  // Small sizes keep the doubled (fast + reference) runs cheap while
  // still exercising vector leftovers, takeovers and cooldowns.
  std::vector<Workload> wls;
  wls.push_back(MakeVecAdd(257));
  wls.push_back(MakeMatMul(16));
  wls.push_back(MakeRgbGray(1000));
  wls.push_back(MakeGaussian(32, 24));
  wls.push_back(MakeSusanE(2048));
  wls.push_back(MakeQSort(512));
  wls.push_back(MakeDijkstra(24));
  wls.push_back(MakeBitCount(1024));
  wls.push_back(MakeStrCopy(500));
  wls.push_back(MakeShiftAdd(512, 4));
  return wls;
}

TEST(ReferencePath, AllWorkloadsAllModesBitIdentical) {
  for (const Workload& wl : SmallMatrix()) {
    for (const RunMode m : {RunMode::kScalar, RunMode::kAutoVec,
                            RunMode::kHandVec, RunMode::kDsa}) {
      ExpectIdentical(wl, m);
    }
  }
}

TEST(ReferencePath, DsaOriginalConfigBitIdentical) {
  // The Article-2 "Original" DSA parameterization takes different
  // detection/cooldown paths than the extended default; the identity must
  // hold there too.
  SystemConfig cfg;
  cfg.dsa = engine::DsaConfig::Original();
  for (const Workload& wl :
       {MakeVecAdd(257), MakeMatMul(16), MakeRgbGray(1000)}) {
    ExpectIdentical(wl, RunMode::kDsa, cfg);
  }
}

TEST(ReferencePath, HostCountersExistButAreNotCompared) {
  // host_steps must agree (same instruction stream); host wall time is
  // host-dependent and explicitly outside the identity contract.
  const Workload wl = MakeVecAdd(257);
  SystemConfig ref_cfg;
  ref_cfg.reference_path = true;
  const RunResult fast = sim::Run(wl, RunMode::kScalar, {});
  const RunResult ref = sim::Run(wl, RunMode::kScalar, ref_cfg);
  EXPECT_EQ(fast.host_steps, ref.host_steps);
  EXPECT_GT(fast.host_steps, 0u);
}

}  // namespace
}  // namespace dsa::sim
