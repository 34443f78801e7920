#include "sim/digest.h"

namespace dsa::sim {

std::uint64_t ConfigDigest(const SystemConfig& cfg) {
  Fnv1a f;
  // cpu::TimingConfig
  f.U64(cfg.timing.superscalar_width);
  f.U64(cfg.timing.branch_mispredict_penalty);
  f.U64(cfg.timing.int_mul_extra);
  f.U64(cfg.timing.int_div_extra);
  f.U64(cfg.timing.fp_extra);
  f.U64(cfg.timing.fp_div_extra);
  f.U64(cfg.timing.neon.alu_latency);
  f.U64(cfg.timing.neon.mul_latency);
  f.U64(cfg.timing.neon.mem_latency);
  f.U64(cfg.timing.neon.lane_move);
  f.U64(cfg.timing.neon.pipeline_fill);
  // mem::Hierarchy::Config
  for (const auto& c : {cfg.memory.l1, cfg.memory.l2}) {
    f.U64(c.size_bytes);
    f.U64(c.line_bytes);
    f.U64(c.ways);
    f.U64(c.hit_latency);
  }
  f.U64(cfg.memory.dram_latency);
  f.U64(cfg.memory.next_line_prefetch ? 1 : 0);
  // engine::DsaConfig
  f.U64(cfg.dsa.dsa_cache_bytes);
  f.U64(cfg.dsa.dsa_cache_entry_bytes);
  f.U64(cfg.dsa.verification_cache_bytes);
  f.U64(cfg.dsa.verification_entry_bytes);
  f.U64(cfg.dsa.array_maps);
  f.U64(cfg.dsa.neon_regs);
  f.U64(cfg.dsa.trace_capacity);
  f.U64(cfg.dsa.enable_conditional_loops ? 1 : 0);
  f.U64(cfg.dsa.enable_sentinel_loops ? 1 : 0);
  f.U64(cfg.dsa.enable_dynamic_range_loops ? 1 : 0);
  f.U64(cfg.dsa.enable_partial_vectorization ? 1 : 0);
  f.U64(cfg.dsa.enable_loop_fusion ? 1 : 0);
  f.U64(cfg.dsa.enable_cidp ? 1 : 0);
  f.U64(cfg.dsa.pipeline_flush_latency);
  f.U64(cfg.dsa.dsa_cache_access_latency);
  f.U64(cfg.dsa.verification_cache_access_latency);
  f.U64(cfg.dsa.array_map_access_latency);
  f.U64(cfg.dsa.partial_window_resync_latency);
  f.U64(cfg.dsa.speculative_select_latency);
  f.U64(cfg.dsa.blacklist_strikes);
  f.U64(cfg.dsa.rollback_penalty);
  f.U64(cfg.dsa.guard_margin_iterations);
  // energy::EnergyParams
  f.F64(cfg.energy.scalar_instr);
  f.F64(cfg.energy.mem_instr_extra);
  f.F64(cfg.energy.branch_extra);
  f.F64(cfg.energy.mispredict_flush);
  f.F64(cfg.energy.vector_instr);
  f.F64(cfg.energy.l1_access);
  f.F64(cfg.energy.l2_access);
  f.F64(cfg.energy.dram_access);
  f.F64(cfg.energy.core_static);
  f.F64(cfg.energy.neon_static);
  f.F64(cfg.energy.dsa_static);
  f.F64(cfg.energy.dsa_analysis_per_instr);
  f.F64(cfg.energy.dsa_cache_access);
  f.F64(cfg.energy.vc_access);
  f.F64(cfg.energy.array_map_access);
  // trace::TraceConfig — enabled changes the RunResult payload (trace
  // aggregates), so traced and untraced cells never alias.
  f.U64(cfg.trace.enabled ? 1 : 0);
  f.U64(cfg.trace.capacity);
  // fault::FaultPlan
  f.U64(cfg.faults.specs.size());
  for (const auto& spec : cfg.faults.specs) {
    f.I64(static_cast<std::int64_t>(spec.kind));
    f.U64(spec.trigger);
    f.U64(spec.count);
  }
  f.U64(cfg.faults.seed);
  f.U64(cfg.faults.seed_explicit ? 1 : 0);
  // harness knobs
  f.U64(cfg.max_steps);
  f.U64(cfg.reference_path ? 1 : 0);
  return f.h;
}

}  // namespace dsa::sim
