// Threaded core vs the per-step reference twin: the fast path runs every
// batched loop — fused-nest takeovers included — on the predecoded
// threaded-code engine, while `reference_path` retires each instruction
// through the per-step decode switch (docs/DISPATCH.md). Every simulated
// stat must be bit-identical across the twins; only host wall time may
// differ. This suite is the fine-grained companion to the bench oracle's
// differential gate: streaming and generated programs, faulted and traced
// runs (the named workload x mode matrix and the Original-config runs are
// in test_reference_path.cc), direct-Cpu superinstruction tests
// (fused pair semantics == the unfused sequence, including budget
// exhaustion at a pair midpoint and branches into a pair's second
// member), and direct-Cpu covered runs of hand-assembled fused nests.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cpu/cpu.h"
#include "fault/fault.h"
#include "prog/assembler.h"
#include "sim/report.h"
#include "sim/system.h"
#include "workloads/gen/generator.h"
#include "workloads/streaming/streaming.h"
#include "workloads/workloads.h"

namespace dsa::sim {
namespace {

using cpu::DispatchMode;
using isa::Cond;
using isa::Opcode;
using prog::Assembler;
using workloads::MakeGaussian;
using workloads::MakeMatMul;
using workloads::MakeVecAdd;

// ---- system-level identity -----------------------------------------------

void ExpectTwinsIdentical(const Workload& wl, RunMode mode,
                          const SystemConfig& base_cfg = {}) {
  SystemConfig sw_cfg = base_cfg;
  sw_cfg.reference_path = true;
  const SystemConfig& th_cfg = base_cfg;

  const RunResult sw = Run(wl, mode, sw_cfg);
  const RunResult th = Run(wl, mode, th_cfg);

  const std::string tag = wl.name + " in " + std::string(ToString(mode));
  EXPECT_EQ(sw.output_ok, th.output_ok) << tag;
  EXPECT_EQ(sw.cycles, th.cycles) << tag;
  EXPECT_EQ(sw.output_digest, th.output_digest) << tag;
  // Same instruction stream => same interpreter step count, even though
  // host_steps is host metadata outside the oracle's comparison set.
  EXPECT_EQ(sw.host_steps, th.host_steps) << tag;
  // FormatReport covers every simulated stat the report surfaces (CPU
  // counters, cache hits/misses, DRAM, DSA, energy) in one comparison.
  EXPECT_EQ(FormatReport(sw), FormatReport(th)) << tag;
}

TEST(Dispatch, StreamingWorkloadsBitIdentical) {
  for (const Workload& wl : workloads::StreamingSet()) {
    ExpectTwinsIdentical(wl, RunMode::kScalar);
    ExpectTwinsIdentical(wl, RunMode::kDsa);
  }
}

TEST(Dispatch, FaultedRunsBitIdentical) {
  // The guard's rollback/blacklist recovery must take the same decisions
  // on both cores: injected divergences are detected at the same retire
  // boundaries either way.
  SystemConfig cfg;
  cfg.faults = fault::ParseFaultPlan("cidp@0+2,mem@1,lane@0;seed=7");
  for (const Workload& wl : {MakeVecAdd(257), MakeMatMul(16)}) {
    ExpectTwinsIdentical(wl, RunMode::kDsa, cfg);
  }
}

TEST(Dispatch, GeneratorSweep64SeedsBitIdentical) {
  // 64-seed sweep over the loop-nest generator's grammar classes, DSA
  // mode: the randomized companion to the hand-written matrix above.
  for (const Workload& wl : workloads::gen::GeneratedSet(9000, 64)) {
    ExpectTwinsIdentical(wl, RunMode::kDsa);
  }
}

TEST(Dispatch, TraceEventStreamsIdentical) {
  // Traced runs retire their observed instructions through the per-step
  // loop and, off the reference path, run covered regions on the threaded
  // core, so the event streams of a traced fast run and a traced
  // reference run must match field for field — and each result must
  // report the core that ran its covered regions.
  SystemConfig th_cfg;
  th_cfg.trace.enabled = true;
  SystemConfig sw_cfg = th_cfg;
  sw_cfg.reference_path = true;

  const RunResult sw = sim::Run(MakeVecAdd(257), RunMode::kDsa, sw_cfg);
  const RunResult th = sim::Run(MakeVecAdd(257), RunMode::kDsa, th_cfg);
  EXPECT_EQ(sw.host_dispatch, DispatchMode::kSwitch);
  EXPECT_EQ(th.host_dispatch, DispatchMode::kThreaded);

  ASSERT_NE(sw.trace, nullptr);
  ASSERT_NE(th.trace, nullptr);
  EXPECT_EQ(sw.trace->emitted, th.trace->emitted);
  EXPECT_EQ(sw.trace->dropped, th.trace->dropped);
  EXPECT_EQ(sw.trace->kind_counts, th.trace->kind_counts);
  EXPECT_EQ(sw.trace->stage_counts, th.trace->stage_counts);
  ASSERT_EQ(sw.trace->events.size(), th.trace->events.size());
  for (std::size_t i = 0; i < sw.trace->events.size(); ++i) {
    const trace::Event& a = sw.trace->events[i];
    const trace::Event& b = th.trace->events[i];
    EXPECT_EQ(a.ts, b.ts) << "event " << i;
    EXPECT_EQ(a.dur, b.dur) << "event " << i;
    EXPECT_EQ(a.loop_id, b.loop_id) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.arg0, b.arg0) << "event " << i;
    EXPECT_EQ(a.arg1, b.arg1) << "event " << i;
  }
}

TEST(Dispatch, HostDispatchReportsWhatRan) {
  const Workload wl = MakeVecAdd(257);
  EXPECT_EQ(sim::Run(wl, RunMode::kDsa, {}).host_dispatch,
            DispatchMode::kThreaded);

  // Reference runs retire everything through the per-step switch core.
  SystemConfig ref_cfg;
  ref_cfg.reference_path = true;
  EXPECT_EQ(sim::Run(wl, RunMode::kDsa, ref_cfg).host_dispatch,
            DispatchMode::kSwitch);

  // A traced DSA run observes per step but runs its takeovers threaded;
  // a traced run without the engine has no covered region and retires
  // everything per step.
  SystemConfig traced_cfg;
  traced_cfg.trace.enabled = true;
  const RunResult traced = sim::Run(wl, RunMode::kDsa, traced_cfg);
  ASSERT_TRUE(traced.dsa.has_value());
  EXPECT_GT(traced.dsa->takeovers, 0u);
  EXPECT_EQ(traced.host_dispatch, DispatchMode::kThreaded);
  EXPECT_EQ(sim::Run(wl, RunMode::kScalar, traced_cfg).host_dispatch,
            DispatchMode::kSwitch);
}

TEST(Dispatch, FusedNestCellsRunThreaded) {
  // MM and Gaussian are vectorized through Fig. 17 fused nests; their
  // covered regions run on the threaded core, so the cell reports it.
  for (const Workload& wl : {MakeMatMul(16), MakeGaussian(32, 24)}) {
    const RunResult r = sim::Run(wl, RunMode::kDsa, {});
    ASSERT_TRUE(r.dsa.has_value()) << wl.name;
    EXPECT_GT(r.dsa->fusions_formed, 0u) << wl.name;
    EXPECT_EQ(r.host_dispatch, DispatchMode::kThreaded) << wl.name;
  }
}

// ---- superinstruction fusion, direct Cpu ---------------------------------

// Two CPUs over the same program with separate (identically seeded)
// memories: `sw` is the per-step reference twin, `th` the threaded core.
// Comparisons cover architectural state, every CpuStats counter, the
// cycle model, cache statistics and memory contents.
struct TwinRig {
  explicit TwinRig(prog::Program p, std::size_t mem = 1 << 16)
      : program(std::move(p)),
        mem_sw(mem),
        mem_th(mem),
        hier_sw(mem::Hierarchy::Config{}),
        hier_th(mem::Hierarchy::Config{}),
        sw(program, mem_sw, hier_sw, {}, /*reference_path=*/true),
        th(program, mem_th, hier_th, {}, /*reference_path=*/false) {}

  void Seed32(std::uint32_t addr, std::uint32_t v) {
    mem_sw.Write32(addr, v);
    mem_th.Write32(addr, v);
  }

  // Runs both twins through the free-running batch loop with the same
  // budget and asserts bit-identical outcomes.
  void RunFreeBoth(std::uint64_t max_steps, const std::string& tag) {
    std::uint64_t steps_sw = 0;
    std::uint64_t steps_th = 0;
    sw.RunFree(max_steps, steps_sw);
    th.RunFree(max_steps, steps_th);
    EXPECT_EQ(steps_sw, steps_th) << tag;
    ExpectEqual(tag);
  }

  void ExpectEqual(const std::string& tag) {
    EXPECT_EQ(sw.state().halted, th.state().halted) << tag;
    EXPECT_EQ(sw.state().pc, th.state().pc) << tag;
    EXPECT_EQ(sw.state().cmp_diff, th.state().cmp_diff) << tag;
    for (int r = 0; r < isa::kNumScalarRegs; ++r) {
      EXPECT_EQ(sw.state().regs[r], th.state().regs[r])
          << tag << ": r" << r;
    }
    const cpu::CpuStats& a = sw.stats();
    const cpu::CpuStats& b = th.stats();
    EXPECT_EQ(a.retired_total, b.retired_total) << tag;
    EXPECT_EQ(a.retired_scalar, b.retired_scalar) << tag;
    EXPECT_EQ(a.retired_vector, b.retired_vector) << tag;
    EXPECT_EQ(a.mem_reads, b.mem_reads) << tag;
    EXPECT_EQ(a.mem_writes, b.mem_writes) << tag;
    EXPECT_EQ(a.branches, b.branches) << tag;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << tag;
    EXPECT_EQ(a.issue_slots, b.issue_slots) << tag;
    EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles) << tag;
    EXPECT_EQ(a.other_stall_cycles, b.other_stall_cycles) << tag;
    EXPECT_EQ(a.neon_busy_cycles, b.neon_busy_cycles) << tag;
    EXPECT_EQ(a.dsa_overhead_cycles, b.dsa_overhead_cycles) << tag;
    EXPECT_EQ(sw.Cycles(), th.Cycles()) << tag;
    EXPECT_EQ(hier_sw.l1().stats().hits, hier_th.l1().stats().hits) << tag;
    EXPECT_EQ(hier_sw.l1().stats().misses, hier_th.l1().stats().misses)
        << tag;
    EXPECT_EQ(hier_sw.l2().stats().misses, hier_th.l2().stats().misses)
        << tag;
    ASSERT_EQ(mem_sw.size(), mem_th.size());
    for (std::uint32_t addr = 0; addr < mem_sw.size(); ++addr) {
      if (mem_sw.Read8(addr) != mem_th.Read8(addr)) {
        ADD_FAILURE() << tag << ": memory differs at " << addr;
        break;
      }
    }
  }

  prog::Program program;
  mem::Memory mem_sw;
  mem::Memory mem_th;
  mem::Hierarchy hier_sw;
  mem::Hierarchy hier_th;
  cpu::Cpu sw;
  cpu::Cpu th;
};

// Straight-line program hitting the five ALU body-pair rules
// (lsr+and, and+add, eor+and, lsl+add, add+subi).
prog::Program AluPairProgram() {
  Assembler as;
  as.Movi(1, 0x1234);
  as.Movi(2, 3);
  as.Alu(Opcode::kLsr, 3, 1, 2);
  as.Alu(Opcode::kAnd, 3, 3, 1);
  as.Alu(Opcode::kAnd, 4, 1, 2);
  as.Alu(Opcode::kAdd, 4, 4, 1);
  as.Alu(Opcode::kEor, 5, 1, 2);
  as.Alu(Opcode::kAnd, 5, 5, 1);
  as.Alu(Opcode::kLsl, 6, 1, 2);
  as.Alu(Opcode::kAdd, 6, 6, 2);
  as.Alu(Opcode::kAdd, 7, 1, 2);
  as.AluImm(Opcode::kSubi, 7, 7, 5);
  as.Halt();
  return as.Finish();
}

TEST(DispatchFusion, AluPairsFuseAndMatchUnfusedSemantics) {
  TwinRig rig(AluPairProgram());
  EXPECT_EQ(rig.sw.fused_pairs(), 0u);
  EXPECT_EQ(rig.th.fused_pairs(), 5u);
  rig.RunFreeBoth(10000, "alu pairs");
  EXPECT_TRUE(rig.th.state().halted);
}

TEST(DispatchFusion, MemoryPairsFuseAndMatchUnfusedSemantics) {
  // ldr+ldr, ldrb+ldrb, ldrb+strb, ldrb+add, mla+str, fadd+str,
  // fmul+fadd, add+str.
  Assembler as;
  as.Movi(1, 0x100);  // src
  as.Movi(2, 0x200);  // dst
  as.Ldr(3, 1, 4);
  as.Ldr(4, 1, 4);
  as.Ldrb(5, 1, 1);
  as.Ldrb(6, 1, 1);
  as.Ldrb(7, 1, 1);
  as.Strb(7, 2, 1);
  as.Ldrb(8, 1, 1);
  as.Alu(Opcode::kAdd, 8, 8, 3);
  as.Mla(9, 3, 4, 8);
  as.Str(9, 2, 4);
  as.Alu(Opcode::kFadd, 10, 3, 4);
  as.Str(10, 2, 4);
  as.Alu(Opcode::kFmul, 11, 3, 4);
  as.Alu(Opcode::kFadd, 11, 11, 3);
  as.Alu(Opcode::kAdd, 12, 3, 4);
  as.Str(12, 2, 4);
  as.Halt();

  TwinRig rig(as.Finish());
  rig.Seed32(0x100, 0x3f800000);  // 1.0f; also nonzero byte lanes
  rig.Seed32(0x104, 0x40490fdb);  // pi
  rig.Seed32(0x108, 0xdeadbeef);
  EXPECT_EQ(rig.th.fused_pairs(), 8u);
  rig.RunFreeBoth(10000, "memory pairs");
  EXPECT_TRUE(rig.th.state().halted);
}

prog::Program LatchLoopProgram() {
  Assembler as;
  as.Movi(1, 6);
  as.Movi(2, 0);
  const Assembler::Label l0 = as.NewLabel();
  as.Bind(l0);
  as.AluImm(Opcode::kAddi, 2, 2, 3);
  as.AluImm(Opcode::kSubi, 1, 1, 1);
  as.Cmpi(1, 0);
  as.B(Cond::kNe, l0);  // latch pair: cmpi+b
  as.Movi(3, 4);
  as.Movi(4, 0);
  const Assembler::Label l1 = as.NewLabel();
  as.Bind(l1);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmp(3, 4);
  as.B(Cond::kNe, l1);  // latch pair: cmp+b
  as.Halt();
  return as.Finish();
}

TEST(DispatchFusion, LatchPairsFuseAndLoopsMatch) {
  TwinRig rig(LatchLoopProgram());
  EXPECT_EQ(rig.th.fused_pairs(), 2u);
  rig.RunFreeBoth(10000, "latch loops");
  EXPECT_TRUE(rig.th.state().halted);
  EXPECT_EQ(rig.th.state().regs[2], 18u);  // 6 iterations of +3
  EXPECT_EQ(rig.th.state().regs[3], 0u);
}

TEST(DispatchFusion, LatchTriplesFuseAndLoopsMatch) {
  // Both induction-latch triples: subi+cmpi+b and addi+cmpi+b each fuse
  // into one three-wide superinstruction group.
  Assembler as;
  as.Movi(1, 5);
  as.Movi(2, 0);
  const Assembler::Label l0 = as.NewLabel();
  as.Bind(l0);
  as.AluImm(Opcode::kSubi, 1, 1, 1);
  as.Cmpi(1, 0);
  as.B(Cond::kNe, l0);  // triple: subi+cmpi+b
  const Assembler::Label l1 = as.NewLabel();
  as.Bind(l1);
  as.AluImm(Opcode::kAddi, 2, 2, 7);
  as.Cmpi(2, 21);
  as.B(Cond::kNe, l1);  // triple: addi+cmpi+b
  as.Halt();

  TwinRig rig(as.Finish());
  EXPECT_EQ(rig.th.fused_pairs(), 2u);
  rig.RunFreeBoth(10000, "latch triples");
  EXPECT_TRUE(rig.th.state().halted);
  EXPECT_EQ(rig.th.state().regs[1], 0u);
  EXPECT_EQ(rig.th.state().regs[2], 21u);
}

TEST(DispatchFusion, BranchIntoTripleMiddleExecutesPlainMembers) {
  // The outer latch targets the cmpi that is the *second* member of the
  // fused subi+cmpi+b triple. Only the head slot's handler id is
  // rewritten, so the jump lands on the plain cmpi handler and the twins
  // stay in lockstep.
  Assembler as;
  as.Movi(1, 4);  // inner counter
  as.Movi(2, 0);  // outer counter
  const Assembler::Label top = as.NewLabel();
  as.Bind(top);                      // pc 2: triple head
  as.AluImm(Opcode::kSubi, 1, 1, 1);
  const Assembler::Label mid = as.NewLabel();
  as.Bind(mid);                      // pc 3: triple middle
  as.Cmpi(1, 0);
  as.B(Cond::kNe, top);
  as.AluImm(Opcode::kAddi, 2, 2, 1);
  as.Cmpi(2, 3);
  as.B(Cond::kNe, mid);              // outer latch into the triple middle
  as.Halt();

  TwinRig rig(as.Finish());
  // subi+cmpi+b triple plus the outer cmpi+b latch pair.
  EXPECT_EQ(rig.th.fused_pairs(), 2u);
  rig.RunFreeBoth(10000, "branch into triple middle");
  EXPECT_TRUE(rig.th.state().halted);
  EXPECT_EQ(rig.th.state().regs[1], 0u);
  EXPECT_EQ(rig.th.state().regs[2], 3u);
}

TEST(DispatchFusion, BudgetExhaustionSweepStopsAtSamePoint) {
  // Walking the step budget across every prefix length forces budget
  // exhaustion at every position of the stream, including between the
  // members of a fused pair or triple (the leading members retire,
  // control rests on the next member's plain slot). pc, registers, stats
  // and cycles must agree with the reference twin at every cut point.
  for (std::uint64_t budget = 0; budget <= 40; ++budget) {
    TwinRig rig(LatchLoopProgram());
    rig.RunFreeBoth(budget, "budget=" + std::to_string(budget));
  }
  for (std::uint64_t budget = 0; budget <= 20; ++budget) {
    TwinRig rig(AluPairProgram());
    rig.RunFreeBoth(budget, "alu budget=" + std::to_string(budget));
  }
}

TEST(DispatchFusion, RunToInterestingIsFastPathOnly) {
  // The reference twin observes every retire through Step() and has no
  // skip loop; a reference-path Cpu refuses the batched entry point.
  TwinRig rig(LatchLoopProgram());
  std::uint64_t steps = 0;
  std::uint64_t skipped = 0;
  EXPECT_THROW(rig.sw.RunToInteresting(100, steps, skipped),
               std::logic_error);
  EXPECT_NE(rig.th.RunToInteresting(100, steps, skipped).instr, nullptr);
}

TEST(DispatchFusion, BranchIntoPairMiddleExecutesPlainSecondMember) {
  // The backward latch targets the str that is the second member of the
  // fused add+str pair at (4,5): only the head slot's handler id is
  // rewritten by fusion, so a branch into the middle lands on the plain
  // handler and the twins stay in lockstep.
  Assembler as;
  as.Movi(1, 0x100);  // store base
  as.Movi(2, 0);      // value
  as.Movi(3, 4);      // iteration counter
  as.Movi(4, 1);
  as.Alu(Opcode::kAdd, 2, 2, 4);  // pc 4: fused head (add+str)
  const Assembler::Label mid = as.NewLabel();
  as.Bind(mid);                   // pc 5: pair middle
  as.Str(2, 1, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kNe, mid);           // latch pair branching into (4,5)'s middle
  as.Halt();

  TwinRig rig(as.Finish());
  // add+str body pair and cmpi+b latch pair.
  EXPECT_EQ(rig.th.fused_pairs(), 2u);
  rig.RunFreeBoth(10000, "branch into pair middle");
  EXPECT_TRUE(rig.th.state().halted);
  // Four stores of r2 == 1 at 0x100..0x10c.
  for (std::uint32_t a = 0x100; a < 0x110; a += 4) {
    EXPECT_EQ(rig.mem_th.Read32(a), 1u) << a;
  }
}

// ---- covered takeovers, direct Cpu ---------------------------------------

// A two-level nest: the outer loop (the coverage) wraps an 8-iteration
// inner summing loop (the vectorized inner body), with glue around it.
//   glue before the inner loop: movi, then an addi directly in front of
//     the inner loop's leading cmpi — the addi+cmpi body pair straddles
//     inner_start;
//   glue after the inner latch: an optional store, and an optional bl to
//     a callee outside the coverage (whose own body may store);
//   the outer latch: an addi+cmpi+b triple.
struct NestPcs {
  std::uint32_t outer_start = 0;
  std::uint32_t inner_start = 0;
  std::uint32_t inner_latch = 0;
  std::uint32_t outer_latch = 0;
};

prog::Program NestProgram(bool glue_store, bool call, bool callee_store,
                          NestPcs& pcs) {
  Assembler as;
  const Assembler::Label outer = as.NewLabel();
  const Assembler::Label inner = as.NewLabel();
  const Assembler::Label func = as.NewLabel();
  as.Bind(outer);
  pcs.outer_start = static_cast<std::uint32_t>(as.pc());
  as.Movi(3, 0);                      // glue: inner counter
  as.AluImm(Opcode::kAddi, 5, 5, 1);  // glue, fused with the next cmpi
  as.Bind(inner);
  pcs.inner_start = static_cast<std::uint32_t>(as.pc());
  as.Cmpi(3, 0);
  as.Ldr(4, 1, 4);                    // post-increment stream
  as.Alu(Opcode::kAdd, 6, 6, 4);
  as.AluImm(Opcode::kAddi, 3, 3, 1);
  as.Cmpi(3, 8);
  pcs.inner_latch = static_cast<std::uint32_t>(as.pc());
  as.B(Cond::kLt, inner);
  if (glue_store) as.Str(6, 2, 4);
  if (call) as.Bl(func);
  as.AluImm(Opcode::kAddi, 8, 8, 1);
  as.Cmpi(8, 4);
  pcs.outer_latch = static_cast<std::uint32_t>(as.pc());
  as.B(Cond::kLt, outer);
  as.Halt();
  as.Bind(func);
  as.AluImm(Opcode::kAddi, 7, 7, 3);
  if (callee_store) as.Str(7, 2, 4);
  as.Ret();
  return as.Finish();
}

// Runs RunCovered on both twins from the nest's entry and asserts
// identical outcomes, architectural state, stats and memory.
cpu::Cpu::CoveredOutcome CoverBoth(TwinRig& rig, std::uint32_t start,
                                   std::uint32_t latch, const NestPcs& pcs,
                                   const std::string& tag) {
  for (cpu::Cpu* c : {&rig.sw, &rig.th}) {
    c->state().pc = start;
    c->state().regs[1] = 0x1000;  // load stream
    c->state().regs[2] = 0x3000;  // store stream
  }
  for (std::uint32_t i = 0; i < 64; ++i) rig.Seed32(0x1000 + 4 * i, i + 1);
  const cpu::Cpu::CoveredOutcome a = rig.sw.RunCovered(
      start, latch, pcs.inner_start, pcs.inner_latch, pcs.inner_latch, 0);
  const cpu::Cpu::CoveredOutcome b = rig.th.RunCovered(
      start, latch, pcs.inner_start, pcs.inner_latch, pcs.inner_latch, 0);
  EXPECT_EQ(a.iterations, b.iterations) << tag;
  EXPECT_EQ(a.retired, b.retired) << tag;
  EXPECT_EQ(a.glue_instrs, b.glue_instrs) << tag;
  EXPECT_EQ(a.fused_glue_store, b.fused_glue_store) << tag;
  EXPECT_EQ(rig.sw.host_steps(), rig.th.host_steps()) << tag;
  rig.ExpectEqual(tag);
  return b;
}

TEST(DispatchCovered, FusedNestGluePairStraddlesInnerStart) {
  NestPcs pcs;
  TwinRig rig(NestProgram(false, false, false, pcs));
  const cpu::Cpu::CoveredOutcome d =
      CoverBoth(rig, pcs.outer_start, pcs.outer_latch, pcs, "straddle");
  EXPECT_EQ(d.iterations, 32u);
  // Per outer iteration: movi, addi, and the addi+cmpi+b outer latch.
  EXPECT_EQ(d.glue_instrs, 4u * 5u);
  EXPECT_FALSE(d.fused_glue_store);
  EXPECT_EQ(rig.th.state().pc, pcs.outer_latch + 1);
  EXPECT_EQ(rig.th.state().regs[6], 32u * 33u / 2u);
}

TEST(DispatchCovered, FusedNestGlueStoreAfterInnerLatchEndsCoverage) {
  NestPcs pcs;
  TwinRig rig(NestProgram(true, false, false, pcs));
  const cpu::Cpu::CoveredOutcome d =
      CoverBoth(rig, pcs.outer_start, pcs.outer_latch, pcs, "glue store");
  EXPECT_EQ(d.iterations, 8u);
  EXPECT_EQ(d.glue_instrs, 3u);  // movi, addi, the store itself
  EXPECT_TRUE(d.fused_glue_store);
  // The store retired (and was rewound like every covered instruction);
  // control rests right after it.
  EXPECT_EQ(rig.th.state().pc, pcs.inner_latch + 2);
  EXPECT_EQ(rig.mem_th.Read32(0x3000), 36u);
}

TEST(DispatchCovered, FusedNestCallInsideRegionCountsCalleeAsGlue) {
  NestPcs pcs;
  TwinRig rig(NestProgram(false, true, false, pcs));
  const cpu::Cpu::CoveredOutcome d =
      CoverBoth(rig, pcs.outer_start, pcs.outer_latch, pcs, "call");
  EXPECT_EQ(d.iterations, 32u);
  // movi, addi, bl, callee addi + ret, outer addi+cmpi+b.
  EXPECT_EQ(d.glue_instrs, 4u * 8u);
  EXPECT_FALSE(d.fused_glue_store);
  EXPECT_EQ(rig.th.state().regs[7], 12u);
}

TEST(DispatchCovered, FusedNestStoreInCalleeIsGlueStore) {
  NestPcs pcs;
  TwinRig rig(NestProgram(false, true, true, pcs));
  const cpu::Cpu::CoveredOutcome d =
      CoverBoth(rig, pcs.outer_start, pcs.outer_latch, pcs, "callee store");
  EXPECT_TRUE(d.fused_glue_store);
  EXPECT_EQ(d.iterations, 8u);
}

TEST(DispatchCovered, PlainTakeoverCallsAreNotGlue) {
  // Coverage == inner loop: the whole outer body is the covered loop, so
  // the callee's retires (and its store) are body, not glue.
  NestPcs pcs;
  TwinRig rig(NestProgram(false, true, true, pcs));
  NestPcs plain = pcs;
  plain.inner_start = pcs.outer_start;
  plain.inner_latch = pcs.outer_latch;
  const cpu::Cpu::CoveredOutcome d =
      CoverBoth(rig, pcs.outer_start, pcs.outer_latch, plain, "plain call");
  EXPECT_EQ(d.iterations, 4u);
  EXPECT_EQ(d.glue_instrs, 0u);
  EXPECT_FALSE(d.fused_glue_store);
  EXPECT_EQ(rig.th.state().pc, pcs.outer_latch + 1);
}

}  // namespace
}  // namespace dsa::sim
