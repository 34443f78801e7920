// Full-matrix driver: regenerates the performance (Fig. 8), energy
// (Fig. 9), detection-latency (Table 2/3), loop-type (Fig. 7) and
// Extended-vs-Original (Fig. 16) views from ONE batch of runs. The
// seed-style serial path (--serial) re-executes every cell each time a
// table needs it, the way the standalone drivers do; the runner path
// submits the whole matrix once and renders every table from the memo,
// with the oracle cross-checking all modes against the scalar outputs.
// --compare times both paths and prints the wall-clock win.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "workloads/workloads.h"

namespace {

using dsa::sim::BatchRunner;
using dsa::sim::RunMode;
using dsa::sim::RunResult;
using dsa::sim::SystemConfig;
using dsa::sim::Workload;

// A table renders through this: the serial path executes the cell on the
// spot (possibly again), the runner path answers from the batch memo.
using Getter = std::function<RunResult(const Workload&, RunMode,
                                       const SystemConfig&,
                                       const std::string& ctag)>;

void PrintPerf(const std::vector<Workload>& set, const SystemConfig& cfg,
               const Getter& get) {
  std::printf("perf — improvement over ARM original (%%)\n");
  std::printf("%-12s %12s %12s %12s\n", "benchmark", "AutoVec", "Hand-coded",
              "DSA");
  std::vector<double> ds;
  for (const Workload& wl : set) {
    const RunResult base = get(wl, RunMode::kScalar, cfg, "");
    const RunResult a = get(wl, RunMode::kAutoVec, cfg, "");
    const RunResult h = get(wl, RunMode::kHandVec, cfg, "");
    const RunResult d = get(wl, RunMode::kDsa, cfg, "");
    ds.push_back(SpeedupOver(base, d));
    std::printf("%-12s %+11.1f%% %+11.1f%% %+11.1f%%\n", wl.name.c_str(),
                dsa::bench::ImprovementPct(base, a),
                dsa::bench::ImprovementPct(base, h),
                dsa::bench::ImprovementPct(base, d));
  }
  if (!ds.empty()) {
    std::printf("%-12s DSA geomean %+.1f%%\n", "",
                (dsa::bench::GeoMeanSpeedup(ds) - 1) * 100);
  }
  std::printf("\n");
}

void PrintEnergy(const std::vector<Workload>& set, const SystemConfig& cfg,
                 const Getter& get) {
  std::printf("energy — savings over ARM original (%%)\n");
  std::printf("%-12s %12s %12s %12s\n", "benchmark", "AutoVec", "Hand-coded",
              "DSA");
  for (const Workload& wl : set) {
    const RunResult base = get(wl, RunMode::kScalar, cfg, "");
    const RunResult a = get(wl, RunMode::kAutoVec, cfg, "");
    const RunResult h = get(wl, RunMode::kHandVec, cfg, "");
    const RunResult d = get(wl, RunMode::kDsa, cfg, "");
    std::printf("%-12s %+11.1f%% %+11.1f%% %+11.1f%%\n", wl.name.c_str(),
                dsa::bench::EnergySavingsPct(base, a),
                dsa::bench::EnergySavingsPct(base, h),
                dsa::bench::EnergySavingsPct(base, d));
  }
  std::printf("\n");
}

void PrintLatency(const std::vector<Workload>& set, const SystemConfig& cfg,
                  const Getter& get) {
  std::printf("DSA detection latency (%% of total execution)\n");
  for (const Workload& wl : set) {
    const RunResult r = get(wl, RunMode::kDsa, cfg, "");
    std::printf("%-12s %6.2f%%  (%llu analysis cycles, %llu takeovers)\n",
                wl.name.c_str(), r.detection_latency_pct(),
                static_cast<unsigned long long>(r.dsa->analysis_cycles),
                static_cast<unsigned long long>(r.dsa->takeovers));
  }
  std::printf("\n");
}

void PrintLoopTypes(const std::vector<Workload>& set, const SystemConfig& cfg,
                    const Getter& get) {
  std::printf("DSA runtime loop classification\n");
  for (const Workload& wl : set) {
    const RunResult r = get(wl, RunMode::kDsa, cfg, "");
    std::printf("%-12s", wl.name.c_str());
    for (const auto& [cls, n] : r.dsa->loops_by_class) {
      std::printf("  %s x%llu", std::string(ToString(cls)).c_str(),
                  static_cast<unsigned long long>(n));
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void PrintStream(const std::vector<Workload>& set, const SystemConfig& cfg,
                 const Getter& get) {
  std::printf("streaming suite — GB/s at 1 GHz (bytes/cycle)\n");
  std::printf("%-14s %10s %10s %12s\n", "kernel", "scalar", "DSA",
              "DSA impr.");
  for (const Workload& wl : set) {
    const RunResult base = get(wl, RunMode::kScalar, cfg, "");
    const RunResult d = get(wl, RunMode::kDsa, cfg, "");
    std::printf("%-14s %10.3f %10.3f %+11.1f%%\n", wl.name.c_str(),
                base.stream_gbps(), d.stream_gbps(),
                dsa::bench::ImprovementPct(base, d));
  }
  std::printf("\n");
}

void PrintFig16(const std::vector<Workload>& set, const SystemConfig& ext_cfg,
                const SystemConfig& orig_cfg, const Getter& get) {
  std::printf("Extended vs Original DSA — improvement over ARM original "
              "(%%)\n");
  std::printf("%-12s %12s %14s %14s\n", "benchmark", "NEON AutoVec",
              "Original DSA", "Extended DSA");
  for (const Workload& wl : set) {
    const RunResult base = get(wl, RunMode::kScalar, ext_cfg, "");
    const RunResult a = get(wl, RunMode::kAutoVec, ext_cfg, "");
    const RunResult o = get(wl, RunMode::kDsa, orig_cfg, "orig");
    const RunResult e = get(wl, RunMode::kDsa, ext_cfg, "");
    std::printf("%-12s %+11.1f%% %+13.1f%% %+13.1f%%\n", wl.name.c_str(),
                dsa::bench::ImprovementPct(base, a),
                dsa::bench::ImprovementPct(base, o),
                dsa::bench::ImprovementPct(base, e));
  }
  std::printf("\n");
}

struct TableRun {
  double wall_ms = 0;
  std::uint64_t executions = 0;  // serial path: actual sim::Run calls
};

// The three workload sets the matrix covers, narrowed by --filter. Both
// the submission and the rendering read them from here, so a filtered
// run neither executes nor prints a cell the filter excludes.
struct MatrixSets {
  std::vector<Workload> a3;
  std::vector<Workload> a2;
  std::vector<Workload> stream;
};

MatrixSets FilteredSets(const dsa::bench::BenchOptions& opts) {
  const auto keep = [&opts](std::vector<Workload> set) {
    std::vector<Workload> kept;
    for (Workload& wl : set) {
      if (dsa::bench::KeepWorkload(opts, wl.name)) {
        kept.push_back(std::move(wl));
      }
    }
    return kept;
  };
  return MatrixSets{keep(dsa::workloads::Article3Set()),
                    keep(dsa::workloads::Article2Set()),
                    keep(dsa::workloads::StreamingSet())};
}

TableRun RenderAllTables(const MatrixSets& sets, const Getter& get,
                         const SystemConfig& cfg,
                         const SystemConfig& orig_cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  PrintPerf(sets.a3, cfg, get);
  PrintEnergy(sets.a3, cfg, get);
  PrintLatency(sets.a3, cfg, get);
  PrintLoopTypes(sets.a3, cfg, get);
  PrintFig16(sets.a2, cfg, orig_cfg, get);
  PrintStream(sets.stream, cfg, get);
  TableRun tr;
  tr.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  return tr;
}

}  // namespace

int main(int argc, char** argv) {
  const dsa::bench::BenchOptions opts = dsa::bench::ParseBenchArgs(argc, argv);
  const SystemConfig cfg = dsa::bench::BaseConfig(opts);
  SystemConfig orig_cfg = dsa::bench::BaseConfig(opts);
  orig_cfg.dsa = dsa::engine::DsaConfig::Original();
  dsa::bench::PrintSetupHeader(cfg);
  const MatrixSets sets = FilteredSets(opts);

  // Seed-style serial path: every table cell is a fresh sim::Run call,
  // shared cells (the Fig. 8 matrix reappears in the energy table, the
  // DSA column in latency and loop-type views, most of Fig. 16) are
  // recomputed from scratch each time.
  std::uint64_t serial_runs = 0;
  double serial_ms = 0;
  if (opts.serial || opts.compare) {
    const Getter serial_get = [&serial_runs](const Workload& wl, RunMode mode,
                                             const SystemConfig& c,
                                             const std::string&) {
      ++serial_runs;
      return Run(wl, mode, c);
    };
    TableRun tr = RenderAllTables(sets, serial_get, cfg, orig_cfg);
    serial_ms = tr.wall_ms;
    std::printf("[matrix/serial] %llu sim runs in %.0f ms\n",
                static_cast<unsigned long long>(serial_runs), serial_ms);
    if (!opts.compare) return 0;
    std::printf("\n==== runner path ====\n\n");
  }

  const auto runner_t0 = std::chrono::steady_clock::now();
  BatchRunner runner(opts.runner);
  // Submit the whole matrix up front so the workers stream through it;
  // rendering then reads every cell from the memo.
  for (const Workload& wl : sets.a3) runner.SubmitMatrix(wl, cfg);
  for (const Workload& wl : sets.a2) {
    runner.Submit(wl, RunMode::kDsa, orig_cfg, "orig");
  }
  for (const Workload& wl : sets.stream) {
    runner.Submit(wl, RunMode::kScalar, cfg);
    runner.Submit(wl, RunMode::kDsa, cfg);
  }
  const Getter memo_get = [&runner](const Workload& wl, RunMode mode,
                                    const SystemConfig& c,
                                    const std::string& ctag) {
    return dsa::bench::ResultOrEmpty(runner, runner.Submit(wl, mode, c, ctag));
  };
  RenderAllTables(sets, memo_get, cfg, orig_cfg);
  const int rc = dsa::bench::FinishBench(runner, opts, "matrix");
  if (opts.compare && rc == 0) {
    const double runner_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - runner_t0)
                                 .count();
    std::printf("[matrix/compare] serial %.0f ms (%llu runs) vs runner "
                "%.0f ms (incl. oracle) -> %.2fx\n",
                serial_ms, static_cast<unsigned long long>(serial_runs),
                runner_ms, serial_ms / runner_ms);
  }
  return rc;
}
