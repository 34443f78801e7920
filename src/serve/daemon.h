// The crash-tolerant simulation daemon (dsa_serve, docs/SERVING.md): a
// long-lived process on a Unix-domain socket that runs each sweep
// request as one sim::BatchRunner batch, wired exactly like a --cache CLI
// sweep — the result cache bound by BindCache (cache.h) answers what it
// can, the rest executes under the daemon's one resilience::Supervisor —
// so every failure is classified through the DsaError taxonomy into
// exactly the per-cell statuses a CLI sweep reports.
//
// Crash tolerance story, layer by layer:
//   - a cell that SIGSEGVs/OOMs/overruns its deadline is contained by
//     the fork isolate (--isolate) and poisons only its own cell;
//   - an exception escaping a cache lookup or store poisons only its
//     own cell ("faulted"); the runner's workers survive it;
//   - a workload that fails repeatedly trips its circuit breaker and is
//     failed fast instead of re-simulated (resilience/breaker.h); the
//     breaker lives as long as the daemon, so its census is cumulative;
//   - the daemon itself dying (kill -9) loses at most the in-flight
//     cells: completed cells were promoted to the persistent cache with
//     fsync + atomic rename, so a restarted daemon serves them
//     bit-identically (cache.h);
//   - SIGINT/SIGTERM drain gracefully: in-flight cells finish, unstarted
//     cells are "cancelled", queued requests are rejected with the typed
//     "overload" status, exit code 3.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "resilience/supervisor.h"
#include "serve/cache.h"
#include "sim/runner.h"

namespace dsa::serve {

// Admission control for the request queue: a bounded total queue depth
// plus a per-client in-flight quota, so one greedy client cannot starve
// the socket for everyone else. Refusals are typed ("overload: ...")
// and become the response's `status` — the client exits 4, distinct
// from simulation failures.
class AdmissionControl {
 public:
  AdmissionControl(int queue_limit, int client_quota)
      : queue_limit_(queue_limit), client_quota_(client_quota) {}

  // Empty string = admitted (caller must pair with Done); otherwise the
  // typed refusal reason, starting with "overload:".
  [[nodiscard]] std::string Admit(const std::string& client);
  void Done(const std::string& client);
  [[nodiscard]] int depth() const;

 private:
  int queue_limit_;
  int client_quota_;
  mutable std::mutex mu_;
  int depth_ = 0;
  std::map<std::string, int> per_client_;
};

struct DaemonOptions {
  std::string socket_path;
  // Persistent result cache directory; empty disables the cache (every
  // request re-simulates).
  std::string cache_dir;
  int workers = 2;       // BatchRunner worker threads per request
  int queue_limit = 8;   // admission: max requests queued + in flight
  int client_quota = 4;  // admission: max per client name
  // Deadline applied to requests that do not carry their own; 0 = none.
  std::uint64_t default_deadline_ms = 0;
  // Per-cell containment and the per-workload circuit breaker, exactly
  // the CLI's (--isolate, --cell-deadline-ms as deadline_ms,
  // --mem-limit-mb, --breaker, --probe-after).
  resilience::SupervisorOptions resilience;
  // Executions per cell (>= 2 feeds the determinism oracle's data; the
  // daemon default is 1 — cache hits make repeats pointless).
  int repeats = 1;
  // Injectable host-I/O fault plan (resilience/iofault.h grammar, e.g.
  // "fsync-fail@0+;seed=7"), installed process-wide at Init. Empty = no
  // injection. Parse errors fail Init with a typed message.
  std::string io_fault_plan;
  // Per-read deadline on client connections (SO_RCVTIMEO): a slow-loris
  // client dripping header bytes is cut off instead of pinning a reader.
  // 0 = no deadline.
  std::uint64_t read_deadline_ms = 5000;
  // --- crash-drill hooks (tests, check.sh, bench_soak only) ----------
  // SIGKILL the daemon after this many executed (non-cached) cells,
  // each already stored, so the kill-and-restart soak can die mid-sweep
  // deterministically.
  std::uint64_t kill_after = 0;
  // abort() inside the isolated child of every cell whose JobKey
  // contains this substring (requires resilience.isolate) — exercises
  // the "crashed" classification end to end.
  std::string crash_cell;
};

// The daemon's sweep space — bench_matrix's batch (same sets, same
// modes, same config tags, default configs) deduplicated by JobKey and
// optionally narrowed by a case-insensitive substring filter. Exposed so
// the soak driver's serve front (bench/bench_soak.cc --front serve) can
// compute its reference from exactly the cells the daemon will serve.
[[nodiscard]] std::vector<sim::BatchJob> SweepJobs(const std::string& filter);

class Daemon {
 public:
  explicit Daemon(DaemonOptions opts);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Opens the cache, binds the socket, installs the drain handler.
  [[nodiscard]] bool Init(std::string* error = nullptr);

  // Accept loop; returns the process exit code (3 after a graceful
  // SIGINT/SIGTERM drain — the only way Serve returns).
  [[nodiscard]] int Serve();

  [[nodiscard]] const DaemonOptions& options() const { return opts_; }

 private:
  struct Request {
    int fd = -1;
    std::string client;
    std::string kind;    // "sweep" | "ping" | "health"
    std::string filter;  // case-insensitive JobKey substring; "" = all
    std::uint64_t deadline_ms = 0;  // 0 = none
    std::chrono::steady_clock::time_point received;
  };

  void AcceptOne();
  // Runs on a short-lived reader thread, one per accepted connection:
  // bounded frame read (SO_RCVTIMEO per read), parse, admission,
  // enqueue. Keeping the read off the accept loop is what stops one
  // slow-loris client from stalling every other connection.
  void HandleConnection(int fd);
  void DispatcherMain();
  void ProcessRequest(Request& req);
  // The runner options of one sweep request: the crash drill as the
  // inner run_fn, the supervisor's wrapper and drain test composed with
  // the request deadline, the cache binding, and the kill drill after
  // each store.
  [[nodiscard]] sim::RunnerOptions RequestOptions(
      const std::vector<sim::BatchJob>& jobs,
      std::chrono::steady_clock::time_point deadline);
  void RespondError(int fd, const std::string& status,
                    const std::string& error);
  [[nodiscard]] std::string BuildResponse(
      const std::string& status, const std::string& error,
      const std::vector<const sim::JobOutcome*>& cells, bool health = false);

  DaemonOptions opts_;
  ResultCache cache_;
  resilience::Supervisor supervisor_;
  AdmissionControl admission_;
  int listen_fd_ = -1;

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  std::thread dispatcher_;

  // Detached reader threads in flight. Serve() refuses to tear the
  // daemon down until this drains to zero — a reader dereferences
  // `this`, so destruction must wait for it. Readers are capped
  // (kMaxReaders); connections over the cap are closed and counted.
  int readers_ = 0;                  // guarded by mu_
  std::condition_variable readers_cv_;
  static constexpr int kMaxReaders = 64;

  std::atomic<std::uint64_t> executed_cells_{0};  // kill_after counter
  std::atomic<std::uint64_t> requests_served_{0};
  // Hostile-client census, reported by the `health` request kind.
  std::atomic<std::uint64_t> corrupt_frames_{0};
  std::atomic<std::uint64_t> read_timeouts_{0};
  std::atomic<std::uint64_t> refused_connections_{0};
};

}  // namespace dsa::serve
