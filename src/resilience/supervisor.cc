#include "resilience/supervisor.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/error.h"
#include "sim/system.h"

namespace dsa::resilience {

namespace {

std::atomic<bool> g_drain{false};

#if defined(__unix__) || defined(__APPLE__)
extern "C" void DrainSignalHandler(int /*sig*/) {
  // Async-signal-safe: an atomic store plus fsync of registered fds.
  g_drain.store(true, std::memory_order_relaxed);
  FlushAllJournals();
}
#endif

void InstallAbnormalExitFlush() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  // quick_exit skips destructors, so the journal's own Close() never
  // runs — flush from the quick-exit path too.
  (void)std::at_quick_exit(&FlushAllJournals);
}

}  // namespace

void InstallDrainHandler() {
#if defined(__unix__) || defined(__APPLE__)
  static bool installed = false;
  if (installed) return;
  installed = true;
  struct sigaction sa = {};
  sa.sa_handler = &DrainSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  (void)::sigaction(SIGINT, &sa, nullptr);
  (void)::sigaction(SIGTERM, &sa, nullptr);
#endif
}

Supervisor::Supervisor(SupervisorOptions opts)
    : opts_(std::move(opts)),
      breaker_(opts_.breaker_threshold, opts_.breaker_probe_after) {}

bool Supervisor::Init(std::string* error) {
  if (!opts_.resume_path.empty()) {
    if (!ReplayJournal(opts_.resume_path, replay_, error)) return false;
  }
  if (!opts_.journal_path.empty()) {
    if (!journal_.Open(opts_.journal_path, opts_.journal, error)) return false;
  }
  return true;
}

void Supervisor::Attach(sim::RunnerOptions& ro) {
  InstallAbnormalExitFlush();
  if (opts_.install_signal_drain) InstallDrainHandler();
  ro.drain = &g_drain;

  // Wrap whatever run function the driver installed (sim::Run when none)
  // with the breaker gate and, when requested, the forked-child sandbox.
  auto inner = ro.run_fn;
  if (!inner) {
    inner = [](const sim::Workload& wl, sim::RunMode mode,
               const sim::SystemConfig& cfg) { return sim::Run(wl, mode, cfg); };
  }
  const bool isolate = opts_.isolate && IsolationAvailable();
  IsolateOptions iso;
  iso.deadline_ms = opts_.deadline_ms;
  iso.mem_limit_mb = opts_.mem_limit_mb;
  ro.run_fn = [this, inner, isolate, iso](const sim::Workload& wl,
                                          sim::RunMode mode,
                                          const sim::SystemConfig& cfg) {
    if (breaker_.enabled() && !breaker_.Allow(wl.name)) {
      throw sim::DsaError(sim::DsaErrorCode::kBreakerOpen,
                          "circuit breaker open for workload '" + wl.name +
                              "'");
    }
    try {
      sim::RunResult r =
          isolate ? RunIsolated([&] { return inner(wl, mode, cfg); }, iso,
                                wl.name + "@" + std::string(ToString(mode)))
                  : inner(wl, mode, cfg);
      breaker_.Record(wl.name, /*success=*/true);
      return r;
    } catch (...) {
      // Every failure reaches the breaker, not just sim::DsaError: an
      // exception escaping the cell any other way (bad_alloc in-process,
      // a test seam throwing std::runtime_error) used to skip Record —
      // and when the failed cell was a half-open probe, that wedged
      // probe_in_flight forever: the breaker never re-opened and every
      // sibling was skipped with no path back to closed.
      breaker_.Record(wl.name, /*success=*/false);
      throw;
    }
  };

  if (!replay_.cells.empty()) {
    ro.restore_fn = [this](const std::string& key, sim::JobOutcome& out) {
      const auto it = replay_.cells.find(key);
      if (it == replay_.cells.end()) return false;
      // The runner hands in the digest of the config this run submits the
      // cell under; a cell journaled under another config is not what
      // this run would compute.
      if (it->second.config_digest != out.config_digest) {
        char digests[64];
        std::snprintf(digests, sizeof(digests), "%016llx vs %016llx",
                      static_cast<unsigned long long>(
                          it->second.config_digest),
                      static_cast<unsigned long long>(out.config_digest));
        throw sim::DsaError(sim::DsaErrorCode::kStaleResume,
                            "cell " + key + " in " + opts_.resume_path +
                                " was recorded under another config (" +
                                digests + "); resume refused");
      }
      out = it->second;
      return true;
    };
  }
  if (journal_.open()) {
    ro.on_outcome = [this](const sim::JobOutcome& out) {
      // Only completed cells are worth replaying; failed cells should
      // re-execute on resume (the fault may have been environmental).
      if (out.cell_status == "ok" && !out.restored) journal_.Append(out);
    };
  }
}

sim::BenchJsonExtras Supervisor::Extras(const sim::BatchReport& report) const {
  sim::BenchJsonExtras extras;
  extras.run_status =
      (report.interrupted || DrainRequested()) ? "interrupted" : "complete";
  extras.breaker_enabled = breaker_.enabled();
  if (breaker_.enabled()) extras.breaker = breaker_.Census();
  if (journal_.open() || !opts_.journal_path.empty() ||
      !opts_.resume_path.empty()) {
    // A resume-only run (--resume without --journal) still reports the
    // journal it restored from, so restored_cells always has provenance.
    extras.journal_path = !opts_.journal_path.empty() ? opts_.journal_path
                                                      : opts_.resume_path;
    extras.journal_restored = report.restored_cells;
    extras.journal_appended = journal_.appended();
    extras.journal_write_failures = journal_.write_failures();
    extras.journal_fsync_failures = journal_.fsync_failures();
  }
  return extras;
}

std::atomic<bool>& Supervisor::DrainFlag() { return g_drain; }

bool Supervisor::DrainRequested() {
  return g_drain.load(std::memory_order_relaxed);
}

}  // namespace dsa::resilience
