// Supervisor: the one object a bench driver instantiates to make its
// BatchRunner resilient. It composes the four resilience pieces
// (docs/RESILIENCE.md) behind the runner's existing seams:
//   - process isolation  -> wraps RunnerOptions::run_fn (isolate.h)
//   - crash-safe journal -> restore_fn (resume replay; a cell recorded
//     under another config throws a kStaleResume DsaError) + on_outcome
//     (append each completed cell)                      (journal.h)
//   - circuit breaker    -> fail-fast inside the wrapped run_fn
//                                                       (breaker.h)
//   - graceful drain     -> SIGINT/SIGTERM set a process-wide flag the
//     runner polls; in-flight cells finish, the journal is fsynced from
//     the (async-signal-safe) handler, queued cells become "cancelled"
//     and the JSON reports run_status "interrupted".
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "resilience/breaker.h"
#include "resilience/isolate.h"
#include "resilience/journal.h"
#include "sim/runner.h"

namespace dsa::resilience {

// Installs the SIGINT/SIGTERM graceful-drain handler (idempotent): the
// handler sets Supervisor::DrainFlag() and fsyncs every open journal,
// both async-signal-safe. Supervisor::Attach calls this; it is exposed
// for long-lived drivers that drain without a Supervisor (the serving
// daemon, src/serve/daemon.cc).
void InstallDrainHandler();

struct SupervisorOptions {
  // Process isolation (--isolate): run each cell in a forked child.
  bool isolate = false;
  // Per-cell wall-clock deadline / child memory cap; require isolate.
  std::uint64_t deadline_ms = 0;
  std::uint64_t mem_limit_mb = 0;
  // Crash-safe journal (--journal): append each completed cell.
  std::string journal_path;
  // Resume (--resume): replay this journal and skip completed cells.
  std::string resume_path;
  JournalOptions journal;
  // Circuit breaker (--breaker N): open after N consecutive failures of
  // one workload; 0 disables.
  int breaker_threshold = 0;
  int breaker_probe_after = 2;
  // SIGINT/SIGTERM graceful drain (on by default when a supervisor is
  // constructed; tests can opt out to keep gtest's signal handling).
  bool install_signal_drain = true;

  [[nodiscard]] bool any() const {
    return isolate || !journal_path.empty() || !resume_path.empty() ||
           breaker_threshold > 0 || deadline_ms > 0 || mem_limit_mb > 0;
  }
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions opts);

  // Replays the resume journal and opens the append journal. Returns
  // false with `error` filled on an unreadable/incompatible journal.
  [[nodiscard]] bool Init(std::string* error = nullptr);

  // Installs the resilience seams into the runner options. Call after
  // Init() and before constructing the BatchRunner. The existing run_fn
  // (test seam / fault injection) keeps working — it becomes the inner
  // function the isolation wrapper executes.
  void Attach(sim::RunnerOptions& ro);

  // Census for WriteBenchJson, after runner.Finish().
  [[nodiscard]] sim::BenchJsonExtras Extras(
      const sim::BatchReport& report) const;

  [[nodiscard]] const ReplayResult& replay() const { return replay_; }
  [[nodiscard]] Journal& journal() { return journal_; }
  [[nodiscard]] CircuitBreaker& breaker() { return breaker_; }
  [[nodiscard]] const SupervisorOptions& options() const { return opts_; }

  // The process-wide drain flag (set by SIGINT/SIGTERM once a supervisor
  // with install_signal_drain has attached, or manually by tests).
  [[nodiscard]] static std::atomic<bool>& DrainFlag();
  [[nodiscard]] static bool DrainRequested();

 private:
  SupervisorOptions opts_;
  ReplayResult replay_;
  Journal journal_;
  CircuitBreaker breaker_;
};

}  // namespace dsa::resilience
