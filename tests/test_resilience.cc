// Resilience-layer tests (src/resilience, docs/RESILIENCE.md): the
// result codec round trip, crash/deadline/OOM classification of isolated
// cells, circuit-breaker state transitions, the graceful drain and
// host-I/O fault injection. Resume through the result cache is tested
// with the cache (tests/test_serve.cc). Everything runs against the
// real BatchRunner — the same seams the bench drivers use.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "resilience/breaker.h"
#include "resilience/iofault.h"
#include "resilience/isolate.h"
#include "resilience/mini_json.h"
#include "resilience/supervisor.h"
#include "sim/codec.h"
#include "sim/error.h"
#include "sim/runner.h"
#include "workloads/gen/generator.h"
#include "workloads/workloads.h"

// RLIMIT_AS-based OOM containment cannot run under ASan/TSan: the
// sanitizers reserve terabyte-scale shadow mappings that any address-
// space cap breaks.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DSA_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DSA_UNDER_SANITIZER 1
#endif
#endif
#ifndef DSA_UNDER_SANITIZER
#define DSA_UNDER_SANITIZER 0
#endif

namespace dsa::resilience {
namespace {

using sim::BatchReport;
using sim::BatchRunner;
using sim::Crc32;
using sim::JobOutcome;
using sim::RunMode;
using sim::RunnerOptions;
using sim::SystemConfig;
using sim::Workload;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "resilience_" + name + "_" +
         std::to_string(::getpid());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// CRC and mini_json plumbing.

TEST(Crc32, MatchesIeeeReferenceVector) {
  // The canonical IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(MiniJson, PreservesNumberTextExactly) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(
      R"({"u": 18446744073709551615, "d": 0.71384199999999998, "s": "a\"b"})",
      v));
  EXPECT_EQ(v.Find("u")->AsU64(), 18446744073709551615ull);
  EXPECT_EQ(v.Find("u")->raw, "18446744073709551615");
  EXPECT_EQ(v.Find("d")->raw, "0.71384199999999998");
  EXPECT_EQ(v.Find("s")->AsString(), "a\"b");
  // Dump re-emits numbers verbatim: no precision loss through a
  // parse -> dump round trip.
  const std::string dumped = DumpJson(v);
  EXPECT_NE(dumped.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(dumped.find("0.71384199999999998"), std::string::npos);
}

TEST(MiniJson, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(ParseJson("{\"a\": 1", v, &err));
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing", v, &err));
  EXPECT_FALSE(ParseJson("", v, &err));
}

// ---------------------------------------------------------------------------
// Codec: the one encoding of stored and shipped cells.

JobOutcome RunOneCell(const Workload& wl, RunMode mode) {
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 2;
  BatchRunner runner(o);
  const std::string key = runner.Submit(wl, mode, SystemConfig{});
  (void)runner.Finish();
  return runner.outcomes().at(key);
}

TEST(Codec, RoundTripsACompletedCell) {
  const JobOutcome out = RunOneCell(workloads::MakeVecAdd(512), RunMode::kDsa);
  JsonValue j;
  ASSERT_TRUE(ParseJson(SerializeOutcome(out), j));
  JobOutcome back;
  ASSERT_TRUE(ParseOutcome(j, back));
  // Bit-identical round trip of every deterministic field.
  EXPECT_EQ(back.key, out.key);
  EXPECT_EQ(SerializeOutcome(back), SerializeOutcome(out));
  EXPECT_EQ(back.runs.size(), out.runs.size());
  EXPECT_EQ(back.result().output_digest, out.result().output_digest);
  EXPECT_EQ(back.result().cycles, out.result().cycles);
  EXPECT_EQ(back.result().energy.total(), out.result().energy.total());
}

TEST(Codec, CarriesStreamAndGeneratorMetadata) {
  // The bench JSON's `stream` and `gen` blocks read these fields, so a
  // restored or isolated cell must carry them like an in-process run.
  for (const Workload& wl :
       {workloads::MakeStrCopy(500),
        workloads::gen::MakeGenerated(3, workloads::gen::LoopClass::kSentinel)}) {
    const sim::RunResult r = sim::Run(wl, RunMode::kDsa, SystemConfig{});
    ASSERT_TRUE(r.stream_bytes > 0 || r.gen.has_value()) << wl.name;
    sim::RunResult back;
    ASSERT_TRUE(ParseRunResult(SerializeRunResult(r), back)) << wl.name;
    EXPECT_EQ(back.stream_bytes, r.stream_bytes) << wl.name;
    ASSERT_EQ(back.gen.has_value(), r.gen.has_value()) << wl.name;
    if (r.gen.has_value()) {
      EXPECT_EQ(back.gen->seed, r.gen->seed);
      EXPECT_EQ(back.gen->loop_class, r.gen->loop_class);
      EXPECT_EQ(back.gen->count, r.gen->count);
    }
    EXPECT_EQ(SerializeRunResult(back), SerializeRunResult(r)) << wl.name;
  }
}

// One codec: every results[] element of the bench report is exactly
// SerializeOutcome's bytes, and ParseOutcome reads it back to the same
// bytes — across all four modes, the Original DSA, a fault plan, a
// streaming kernel, a generated loop and a poisoned cell.
TEST(Codec, BenchJsonCellsAreTheCodecEncoding) {
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  o.run_fn = [](const Workload& wl, RunMode mode, const SystemConfig& cfg) {
    if (wl.name == "Poison") {
      throw sim::DsaError(sim::DsaErrorCode::kStepLimit, "poisoned cell");
    }
    return sim::Run(wl, mode, cfg);
  };
  BatchRunner runner(o);
  const Workload vec = workloads::MakeVecAdd(256);
  (void)runner.SubmitMatrix(vec);
  SystemConfig original;
  original.dsa = engine::DsaConfig::Original();
  (void)runner.Submit(vec, RunMode::kDsa, original, "orig");
  SystemConfig faulted;
  faulted.faults = fault::ParseFaultPlan("lane@0+;seed=7");
  (void)runner.Submit(vec, RunMode::kDsa, faulted, "faults");
  (void)runner.Submit(workloads::MakeStrCopy(500), RunMode::kDsa);
  (void)runner.Submit(
      workloads::gen::MakeGenerated(3, workloads::gen::LoopClass::kSentinel),
      RunMode::kDsa);
  Workload poison = workloads::MakeVecAdd(64);
  poison.name = "Poison";
  (void)runner.Submit(poison, RunMode::kScalar);
  const BatchReport report = runner.Finish();
  const std::string path = TempPath("one_codec.json");
  ASSERT_TRUE(sim::WriteBenchJson(path, "one_codec", runner, report));

  // The report carries one cell per line: "  <cell>" or "  <cell>,".
  std::vector<std::string> cells;
  std::istringstream lines(Slurp(path));
  std::remove(path.c_str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  {", 0) != 0) continue;
    line.erase(0, 2);
    if (line.back() == ',') line.pop_back();
    cells.push_back(line);
  }
  ASSERT_EQ(cells.size(), runner.outcomes().size());
  std::size_t i = 0;
  for (const auto& [key, out] : runner.outcomes()) {
    const std::uint64_t scalar =
        key.rfind("VecAdd@", 0) == 0
            ? runner.outcomes().at("VecAdd@arm-original").result().cycles
            : 0;
    const std::string cell = SerializeOutcome(out, scalar);
    EXPECT_EQ(cells[i++], cell) << key;
    JsonValue j;
    ASSERT_TRUE(ParseJson(cell, j)) << key;
    JobOutcome back;
    ASSERT_TRUE(ParseOutcome(j, back)) << key;
    EXPECT_EQ(SerializeOutcome(back, scalar), cell) << key;
    EXPECT_EQ(back.workload_key, out.workload_key) << key;
  }
  EXPECT_EQ(runner.outcomes().at("Poison@arm-original").cell_status,
            "faulted");
  EXPECT_TRUE(runner.outcomes().at("VecAdd@neon-dsa/faults").result()
                  .faults.has_value());
}

TEST(Codec, RefusesACellWithoutItsKeyOrResult) {
  const JobOutcome out = RunOneCell(workloads::MakeVecAdd(256), RunMode::kScalar);
  const std::string good = SerializeOutcome(out);
  JobOutcome back;
  for (const char* field : {"\"job\"", "\"cycles\"", "\"attempts\""}) {
    // Rename the field so the object still parses but no longer carries it.
    std::string bad = good;
    const std::size_t at = bad.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    bad.replace(at, 2, "\"x");
    JsonValue j;
    ASSERT_TRUE(ParseJson(bad, j)) << field;
    EXPECT_FALSE(ParseOutcome(j, back)) << field;
  }
}

// ---------------------------------------------------------------------------
// Isolation: crash/deadline/OOM classification with surviving siblings.
#if defined(__unix__) || defined(__APPLE__)

TEST(Isolate, ClassifiesSignalDeathAsCrashedWhileSiblingsComplete) {
  ASSERT_TRUE(IsolationAvailable());
  SupervisorOptions so;
  so.isolate = true;
  so.install_signal_drain = false;
  Supervisor sup(so);
  RunnerOptions o;
  o.jobs = 2;
  o.repeats = 1;
  o.oracle = false;  // failed cells on purpose; no equivalence sweep
  o.retry_backoff_ms = 0;
  // Install the crashing run_fn before Attach so the isolation wrapper
  // executes it inside the forked child.
  o.run_fn = [](const Workload& wl, RunMode m, const SystemConfig& c) {
    if (m == RunMode::kDsa) ::raise(SIGKILL);  // dies inside the child
    return sim::Run(wl, m, c);
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const std::string crashed = runner.Submit(wl, RunMode::kDsa, {});
  const std::string ok = runner.Submit(wl, RunMode::kScalar, {});
  const BatchReport report = runner.Finish();
  EXPECT_EQ(runner.outcomes().at(crashed).cell_status, "crashed");
  EXPECT_NE(runner.outcomes().at(crashed).error.find("signal"),
            std::string::npos);
  EXPECT_EQ(runner.outcomes().at(ok).cell_status, "ok");
  EXPECT_GT(runner.outcomes().at(ok).result().cycles, 0u);
  EXPECT_EQ(report.faulted_cells, 1u);
}

TEST(Isolate, ClassifiesSegfaultAsCrashed) {
  ASSERT_TRUE(IsolationAvailable());
  SupervisorOptions so;
  so.isolate = true;
  so.install_signal_drain = false;
  Supervisor sup(so);
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  o.oracle = false;
  o.retry_backoff_ms = 0;
  o.run_fn = [](const Workload& wl, RunMode m,
                const SystemConfig& c) -> sim::RunResult {
    if (m == RunMode::kDsa) {
      // A real wild access. Under ASan the child exits non-zero with a
      // report instead of dying on SIGSEGV; both classify as "crashed".
      volatile int* p = nullptr;
      *p = 42;  // NOLINT
    }
    return sim::Run(wl, m, c);
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const std::string crashed = runner.Submit(wl, RunMode::kDsa, {});
  const std::string ok = runner.Submit(wl, RunMode::kScalar, {});
  (void)runner.Finish();
  EXPECT_EQ(runner.outcomes().at(crashed).cell_status, "crashed");
  EXPECT_EQ(runner.outcomes().at(ok).cell_status, "ok");
}

TEST(Isolate, KillsCellsPastTheirDeadline) {
  ASSERT_TRUE(IsolationAvailable());
  SupervisorOptions so;
  so.isolate = true;
  so.deadline_ms = 150;
  so.install_signal_drain = false;
  Supervisor sup(so);
  RunnerOptions o;
  o.jobs = 2;
  o.repeats = 1;
  o.oracle = false;
  o.retry_backoff_ms = 0;
  o.run_fn = [](const Workload& wl, RunMode m, const SystemConfig& c) {
    if (m == RunMode::kDsa) {
      std::this_thread::sleep_for(std::chrono::seconds(30));
    }
    return sim::Run(wl, m, c);
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string hung = runner.Submit(wl, RunMode::kDsa, {});
  const std::string ok = runner.Submit(wl, RunMode::kScalar, {});
  (void)runner.Finish();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(runner.outcomes().at(hung).cell_status, "timeout");
  EXPECT_NE(runner.outcomes().at(hung).error.find("deadline"),
            std::string::npos);
  EXPECT_EQ(runner.outcomes().at(ok).cell_status, "ok");
  // The deadline kill must fire in deadline time, not sleep time.
  EXPECT_LT(elapsed.count(), 10000);
}

#if !DSA_UNDER_SANITIZER
TEST(Isolate, ClassifiesAllocationBeyondTheMemoryCapAsOom) {
  ASSERT_TRUE(IsolationAvailable());
  SupervisorOptions so;
  so.isolate = true;
  so.mem_limit_mb = 128;
  so.install_signal_drain = false;
  Supervisor sup(so);
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  o.oracle = false;
  o.retry_backoff_ms = 0;
  o.run_fn = [](const Workload& wl, RunMode m, const SystemConfig& c) {
    if (m == RunMode::kDsa) {
      // Far beyond the 128 MB cap; throws bad_alloc inside the child.
      std::vector<char> big(1ull << 31, 1);
      if (big[12345] == 0) std::abort();
    }
    return sim::Run(wl, m, c);
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const std::string oom = runner.Submit(wl, RunMode::kDsa, {});
  const std::string ok = runner.Submit(wl, RunMode::kScalar, {});
  (void)runner.Finish();
  EXPECT_EQ(runner.outcomes().at(oom).cell_status, "oom");
  EXPECT_EQ(runner.outcomes().at(ok).cell_status, "ok");
}
#endif  // !DSA_UNDER_SANITIZER

TEST(Isolate, PreservesDeterministicChildErrors) {
  // A DsaError raised inside the child must cross the pipe with its code
  // intact so retry/status policy matches in-process behavior.
  IsolateOptions opts;
  try {
    (void)RunIsolated(
        []() -> sim::RunResult {
          throw sim::DsaError(sim::DsaErrorCode::kStepLimit, "over budget");
        },
        opts, "unit");
    FAIL() << "expected DsaError";
  } catch (const sim::DsaError& e) {
    EXPECT_EQ(e.code(), sim::DsaErrorCode::kStepLimit);
    EXPECT_NE(std::string(e.what()).find("over budget"), std::string::npos);
  }
}

TEST(Isolate, ReturnsIdenticalResultsToInProcessExecution) {
  const Workload wl = workloads::MakeVecAdd(512);
  const SystemConfig cfg;
  sim::RunResult in_process = sim::Run(wl, RunMode::kDsa, cfg);
  IsolateOptions opts;
  sim::RunResult isolated = RunIsolated(
      [&] { return sim::Run(wl, RunMode::kDsa, cfg); }, opts, "unit");
  // The isolated cell names the core that actually ran.
  EXPECT_EQ(isolated.host_dispatch, in_process.host_dispatch);
  EXPECT_EQ(isolated.host_dispatch, cpu::DispatchMode::kThreaded);
  // Host wall time and its phase split are the legitimately volatile
  // fields.
  in_process.host_wall_ms = 0;
  isolated.host_wall_ms = 0;
  in_process.host_phases = {};
  isolated.host_phases = {};
  EXPECT_EQ(SerializeRunResult(isolated), SerializeRunResult(in_process));
}

#if defined(__linux__)
// True once `pid` has exited (gone, or a zombie awaiting its reaper).
bool ProcessEnded(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return true;
  const std::size_t paren = line.rfind(')');
  return paren != std::string::npos && paren + 2 < line.size() &&
         line[paren + 2] == 'Z';
}

// An isolated child never outlives its driver: it signals its parent
// until the bounded drain ends it, and must die with it.
TEST(IsolateDeathTest, ChildDiesWithItsParent) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Not TempPath: the re-executed death-test process has another pid.
  const std::string pid_path = ::testing::TempDir() + "resilience_orphan.pid";
  std::remove(pid_path.c_str());
  EXPECT_EXIT(
      {
        InstallDrainHandler();
        (void)RunIsolated(
            [&pid_path]() -> sim::RunResult {
              const pid_t parent = ::getppid();
              // Drop the inherited descriptors, gtest's capture pipes
              // among them, so the death test ends with the parent
              // whether or not this child lives on.
              for (int fd = 0; fd < 1024; ++fd) ::close(fd);
              std::ofstream(pid_path) << ::getpid() << '\n';
              // The first SIGTERM only drains; a later one ends the
              // parent. A child that survives it exits on its own 2 s
              // later, after the check below has failed.
              while (::getppid() == parent) {
                ::kill(parent, SIGTERM);
                ::usleep(20000);
              }
              ::sleep(2);
              std::_Exit(0);
            },
            IsolateOptions{}, "orphan");
        std::_Exit(0);
      },
      ::testing::KilledBySignal(SIGTERM), "");
  pid_t child = 0;
  std::ifstream(pid_path) >> child;
  std::remove(pid_path.c_str());
  ASSERT_GT(child, 0);
  bool ended = false;
  for (int i = 0; i < 100 && !ended; ++i) {
    ended = ProcessEnded(child);
    if (!ended) ::usleep(10000);
  }
  EXPECT_TRUE(ended) << "isolated child " << child << " outlived its parent";
}
#endif  // __linux__

#endif  // __unix__ || __APPLE__

// ---------------------------------------------------------------------------
// Circuit breaker.

TEST(Breaker, OpensAfterThresholdAndRecoversThroughHalfOpen) {
  CircuitBreaker b(/*threshold=*/2, /*probe_after=*/2);
  ASSERT_TRUE(b.enabled());
  // Two consecutive failures trip the breaker.
  ASSERT_TRUE(b.Allow("wl"));
  b.Record("wl", false);
  ASSERT_TRUE(b.Allow("wl"));
  b.Record("wl", false);
  // Open: refuses cells, counts skips, half-opens after probe_after.
  EXPECT_FALSE(b.Allow("wl"));
  EXPECT_FALSE(b.Allow("wl"));
  // Half-open: exactly one probe is admitted; siblings keep skipping.
  EXPECT_TRUE(b.Allow("wl"));
  EXPECT_FALSE(b.Allow("wl"));
  // Probe failure goes straight back to open (second trip).
  b.Record("wl", false);
  EXPECT_FALSE(b.Allow("wl"));
  EXPECT_FALSE(b.Allow("wl"));
  // Next probe succeeds: closed again, cells flow.
  EXPECT_TRUE(b.Allow("wl"));
  b.Record("wl", true);
  EXPECT_TRUE(b.Allow("wl"));

  const auto census = b.Census();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(census[0].workload, "wl");
  EXPECT_EQ(census[0].state, "closed");
  EXPECT_EQ(census[0].trips, 2u);
  EXPECT_EQ(census[0].skipped, 5u);
}

TEST(Breaker, DisabledBreakerAdmitsEverything) {
  CircuitBreaker b(/*threshold=*/0, /*probe_after=*/2);
  EXPECT_FALSE(b.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(b.Allow("wl"));
    b.Record("wl", false);
  }
  EXPECT_TRUE(b.Census().empty());
}

TEST(Breaker, SkipsCellsOfAFailingWorkloadInTheRunner) {
  SupervisorOptions so;
  so.breaker_threshold = 2;
  so.breaker_probe_after = 2;
  so.install_signal_drain = false;
  Supervisor sup(so);
  RunnerOptions o;
  o.jobs = 1;  // serialize so the transition sequence is deterministic
  o.repeats = 1;
  o.oracle = false;
  o.max_retries = 0;
  o.retry_backoff_ms = 0;
  o.run_fn = [](const Workload& wl, RunMode m,
                const SystemConfig& c) -> sim::RunResult {
    (void)wl;
    (void)m;
    (void)c;
    throw sim::DsaError(sim::DsaErrorCode::kInternal, "always broken");
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(
        runner.Submit(wl, RunMode::kDsa, {}, "cfg" + std::to_string(i)));
  }
  (void)runner.Finish();
  // Cells 0-1 execute and fail (threshold 2 -> open), 2-3 are skipped
  // (then half-open), 4 is the probe (fails -> open), 5 is skipped.
  EXPECT_EQ(runner.outcomes().at(keys[0]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[1]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[2]).cell_status, "skipped");
  EXPECT_EQ(runner.outcomes().at(keys[3]).cell_status, "skipped");
  EXPECT_EQ(runner.outcomes().at(keys[4]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[5]).cell_status, "skipped");
  const auto census = sup.breaker().Census();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(census[0].trips, 2u);
  EXPECT_EQ(census[0].skipped, 3u);
}

// ---------------------------------------------------------------------------
// Graceful drain.

TEST(Drain, CancelsQueuedCellsAndMarksTheBatchInterrupted) {
  std::atomic<bool> drain{false};
  RunnerOptions o;
  o.jobs = 1;  // serialize: first cell executes, then the flag is up
  o.repeats = 1;
  o.drain = [&drain] { return drain.load(); };
  o.run_fn = [&drain](const Workload& wl, RunMode m, const SystemConfig& c) {
    drain.store(true);  // as if SIGINT arrived mid-cell
    return sim::Run(wl, m, c);
  };
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const auto keys = runner.SubmitMatrix(wl);
  const BatchReport report = runner.Finish();
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.cancelled_cells, 3u);
  EXPECT_EQ(runner.outcomes().at(keys[0]).cell_status, "ok");
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(runner.outcomes().at(keys[i]).cell_status, "cancelled") << i;
  }
  // Cancelled cells are an interruption, not a correctness violation:
  // the partial report still validates.
  EXPECT_TRUE(report.ok());
}

// Bounded drain: the first SIGTERM only raises the drain flag; a second
// one ends the process instead of waiting on a cell that may never finish.
TEST(DrainDeathTest, SecondSignalEndsTheProcess) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        InstallDrainHandler();
        std::raise(SIGTERM);
        std::_Exit(Supervisor::DrainRequested() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(
      {
        InstallDrainHandler();
        std::raise(SIGTERM);
        if (!Supervisor::DrainRequested()) std::_Exit(1);
        std::raise(SIGTERM);
        std::_Exit(0);
      },
      ::testing::KilledBySignal(SIGTERM), "");
}

TEST(Drain, SupervisorReportsInterruptedRunStatus) {
  Supervisor::DrainFlag().store(false);
  SupervisorOptions so;
  so.install_signal_drain = false;
  so.breaker_threshold = 0;
  Supervisor sup(so);
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  sup.Attach(o);
  // Attach installs the signal flag as the runner's drain test.
  ASSERT_TRUE(o.drain);
  EXPECT_FALSE(o.drain());
  Supervisor::DrainFlag().store(true);
  EXPECT_TRUE(o.drain());
  Supervisor::DrainFlag().store(false);
  BatchRunner runner(o);
  (void)runner.Submit(workloads::MakeVecAdd(512), RunMode::kScalar, {});
  const BatchReport report = runner.Finish();
  EXPECT_EQ(sup.Extras(report).run_status, "complete");
  Supervisor::DrainFlag().store(true);
  EXPECT_EQ(sup.Extras(report).run_status, "interrupted");
  Supervisor::DrainFlag().store(false);
}

// ---------------------------------------------------------------------------
// mini_json binary-safety: JsonEscape -> ParseJson is byte-exact for
// arbitrary (including non-UTF-8) input — the serving daemon embeds
// simulation error strings in its responses and relies on this.

TEST(MiniJson, EverySingleByteRoundTripsThroughEscapeAndParse) {
  for (int b = 0; b < 256; ++b) {
    const std::string original(1, static_cast<char>(b));
    std::string text = "\"";
    text += JsonEscape(original);
    text += '"';
    JsonValue v;
    std::string err;
    ASSERT_TRUE(ParseJson(text, v, &err)) << "byte " << b << ": " << err;
    ASSERT_TRUE(v.is_string()) << "byte " << b;
    EXPECT_EQ(v.AsString(), original) << "byte " << b;
  }
}

TEST(MiniJson, FullBinaryStringRoundTripsByteExactly) {
  std::string original;
  for (int b = 0; b < 256; ++b) original.push_back(static_cast<char>(b));
  // Stress the validator's resynchronization: valid UTF-8 islands between
  // stretches of garbage.
  original += "\xC3\xA9 plain \xF0\x9F\x99\x82 text \xFF\xFE";
  std::string text = "\"";
  text += JsonEscape(original);
  text += '"';
  JsonValue v;
  ASSERT_TRUE(ParseJson(text, v));
  EXPECT_EQ(v.AsString(), original);
}

TEST(MiniJson, MalformedUtf8IsEscapedToPureAscii) {
  // Lone continuation byte, truncated two-byte sequence, overlong
  // encoding of '/': each must come out as \u00XX escapes, never as raw
  // high bytes that would make the emitted JSON invalid UTF-8.
  const std::vector<std::string> cases = {"\xFF", "\xC3", "\xC0\xAF",
                                          "ok\x80stray"};
  for (const std::string& bad : cases) {
    const std::string escaped = JsonEscape(bad);
    for (const char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
      EXPECT_LT(static_cast<unsigned char>(c), 0x7Fu);
    }
    std::string text = "\"";
    text += escaped;
    text += '"';
    JsonValue v;
    ASSERT_TRUE(ParseJson(text, v));
    EXPECT_EQ(v.AsString(), bad);
  }
}

TEST(MiniJson, WellFormedUtf8PassesThroughUnescaped) {
  const std::string utf8 = "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x99\x82";
  EXPECT_EQ(JsonEscape(utf8), utf8);
}

// ---------------------------------------------------------------------------
// Breaker half-open wedge (regression): a probe cell that dies with a
// *non*-DsaError used to escape the supervisor's wrapper without a
// Record(false), leaving probe_in_flight latched — the breaker sat in
// half-open forever, admitting nothing and never re-opening. The fix
// records the probe failure on any escape path.

TEST(Breaker, ProbeDyingWithNonDsaErrorReopensInsteadOfWedging) {
  SupervisorOptions so;
  so.breaker_threshold = 2;
  so.breaker_probe_after = 2;
  so.install_signal_drain = false;
  Supervisor sup(so);
  RunnerOptions o;
  o.jobs = 1;  // serialize so the transition sequence is deterministic
  o.repeats = 1;
  o.oracle = false;
  o.max_retries = 0;
  o.retry_backoff_ms = 0;
  // Not a DsaError: the class of escape that used to bypass Record().
  o.run_fn = [](const Workload&, RunMode,
                const SystemConfig&) -> sim::RunResult {
    throw std::runtime_error("probe dies outside the DsaError taxonomy");
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(
        runner.Submit(wl, RunMode::kDsa, {}, "cfg" + std::to_string(i)));
  }
  (void)runner.Finish();
  // Cells 0-1 fail (-> open, trip 1), 2-3 are skipped (-> half-open),
  // cell 4 is the probe: its runtime_error must count as a probe failure
  // and re-open the breaker (trip 2), so cell 5 is skipped — not wedged
  // behind a probe_in_flight that never clears.
  EXPECT_EQ(runner.outcomes().at(keys[0]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[1]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[2]).cell_status, "skipped");
  EXPECT_EQ(runner.outcomes().at(keys[3]).cell_status, "skipped");
  EXPECT_EQ(runner.outcomes().at(keys[4]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[5]).cell_status, "skipped");
  const auto census = sup.breaker().Census();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(census[0].state, "open");  // wedged would read "half-open"
  EXPECT_EQ(census[0].trips, 2u);
  EXPECT_EQ(census[0].skipped, 3u);
}

// ---------------------------------------------------------------------------
// Host-I/O fault injection (iofault.h, docs/FAULTS.md).

// The injector is process-global; every test must leave it disarmed.
struct IoFaultPlanGuard {
  ~IoFaultPlanGuard() { ClearIoFaultPlan(); }
};

TEST(IoFaultPlan, KindTokensRoundTrip) {
  for (int k = 0; k < kNumIoFaultKinds; ++k) {
    const auto kind = static_cast<IoFaultKind>(k);
    IoFaultKind parsed;
    ASSERT_TRUE(ParseIoFaultKind(ToString(kind), parsed)) << ToString(kind);
    EXPECT_EQ(parsed, kind);
  }
  IoFaultKind out;
  EXPECT_FALSE(ParseIoFaultKind("sigbus", out));
  EXPECT_FALSE(ParseIoFaultKind("", out));
}

TEST(IoFaultPlan, GrammarRoundTripsThroughFormat) {
  for (const char* spec :
       {"enospc@0", "fsync-fail@0+", "short-write@2+3;seed=42",
        "eio@1,rename-fail@0+2", "open-fail@7;seed=1"}) {
    const IoFaultPlan plan = ParseIoFaultPlan(spec);
    ASSERT_TRUE(plan.enabled()) << spec;
    const std::string canonical = FormatIoFaultPlan(plan);
    const IoFaultPlan again = ParseIoFaultPlan(canonical);
    EXPECT_EQ(FormatIoFaultPlan(again), canonical) << spec;
    EXPECT_EQ(again.specs.size(), plan.specs.size());
    EXPECT_EQ(again.seed, plan.seed);
  }
  EXPECT_EQ(ParseIoFaultPlan("short-write@2+3;seed=42").seed, 42u);
  EXPECT_TRUE(ParseIoFaultPlan("fsync-fail@0+").specs[0].count == UINT64_MAX);
}

TEST(IoFaultPlan, RefusesMalformedSpecs) {
  for (const char* bad :
       {"enospc", "enospc@", "@3", "frobnicate@0", "enospc@x",
        "enospc@0+x", "enospc@0;seed=", "enospc@0;seed=12x", ","}) {
    EXPECT_THROW((void)ParseIoFaultPlan(bad), std::invalid_argument) << bad;
  }
}

TEST(IoFaultInjector, PassthroughWhenDisarmed) {
  IoFaultPlanGuard guard;
  ClearIoFaultPlan();
  EXPECT_FALSE(IoFaultsActive());
  const std::string path = TempPath("iofault_passthrough");
  const int fd = IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(IoWrite(fd, "abc", 3), 3);
  EXPECT_EQ(IoFsync(fd), 0);
  ::close(fd);
  const std::string moved = path + ".moved";
  EXPECT_EQ(IoRename(path.c_str(), moved.c_str()), 0);
  std::remove(moved.c_str());
}

// Replays one fixed syscall script against the installed plan and
// records which calls failed — the determinism contract is that the
// same (plan, seed) yields the same verdict sequence every time.
std::string RunFaultScript() {
  const std::string path = TempPath("iofault_script");
  std::string verdicts;
  for (int i = 0; i < 6; ++i) {
    const int fd = IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
    if (fd < 0) {
      verdicts += 'O';  // open refused
      continue;
    }
    const ssize_t n = IoWrite(fd, "0123456789", 10);
    verdicts += n == 10 ? '.' : (n > 0 ? 'S' : 'W');
    verdicts += IoFsync(fd) == 0 ? '.' : 'F';
    ::close(fd);
    const std::string to = path + ".pub";
    verdicts += IoRename(path.c_str(), to.c_str()) == 0 ? '.' : 'R';
    std::remove(to.c_str());
  }
  std::remove(path.c_str());
  return verdicts;
}

TEST(IoFaultInjector, SamePlanSameSeedSameSequence) {
  IoFaultPlanGuard guard;
  const char* spec =
      "eio@1+2,short-write@0+,fsync-fail@2,rename-fail@4+;seed=99";
  InstallIoFaultPlan(ParseIoFaultPlan(spec));
  ASSERT_TRUE(IoFaultsActive());
  const std::string first = RunFaultScript();
  const IoFaultCensus census1 = GetIoFaultCensus();

  InstallIoFaultPlan(ParseIoFaultPlan(spec));  // reinstall resets counters
  const std::string second = RunFaultScript();
  const IoFaultCensus census2 = GetIoFaultCensus();

  EXPECT_EQ(first, second);
  EXPECT_EQ(census1.opportunities, census2.opportunities);
  EXPECT_EQ(census1.fired, census2.fired);
  EXPECT_GT(census1.total_fired(), 0u);
  // The armed kinds actually fired: eio twice, fsync once, renames from
  // opportunity 4 on.
  EXPECT_EQ(census1.fired[static_cast<int>(IoFaultKind::kEio)], 2u);
  EXPECT_EQ(census1.fired[static_cast<int>(IoFaultKind::kFsyncFail)], 1u);
  EXPECT_GE(census1.fired[static_cast<int>(IoFaultKind::kRenameFail)], 1u);
}

TEST(IoFaultInjector, ShortWriteAlwaysMakesProgress) {
  IoFaultPlanGuard guard;
  InstallIoFaultPlan(ParseIoFaultPlan("short-write@0+;seed=3"));
  const std::string path = TempPath("iofault_short");
  const int fd = IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
  ASSERT_GE(fd, 0);
  // Every shortened write still lands >= 1 byte, so a standard retry
  // loop terminates with the full payload on disk.
  const std::string payload(64, 'z');
  std::size_t off = 0;
  int calls = 0;
  while (off < payload.size()) {
    const ssize_t n = IoWrite(fd, payload.data() + off, payload.size() - off);
    ASSERT_GT(n, 0);
    ASSERT_LE(static_cast<std::size_t>(n), payload.size() - off);
    off += static_cast<std::size_t>(n);
    ++calls;
  }
  ::close(fd);
  EXPECT_GT(calls, 1);  // at least one write actually got shortened
  EXPECT_EQ(Slurp(path), payload);
  std::remove(path.c_str());
}

TEST(IoFaultInjector, ErrnoMatchesTheRealSyscall) {
  IoFaultPlanGuard guard;
  InstallIoFaultPlan(ParseIoFaultPlan("enospc@0"));
  const std::string path = TempPath("iofault_errno");
  const int fd = IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(IoWrite(fd, "x", 1), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(IoWrite(fd, "x", 1), 1);  // count exhausted: passthrough
  ::close(fd);
  std::remove(path.c_str());

  InstallIoFaultPlan(ParseIoFaultPlan("open-fail@0"));
  errno = 0;
  EXPECT_LT(IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666), 0);
  EXPECT_EQ(errno, EMFILE);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsa::resilience
