#include "sim/runner.h"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "sim/codec.h"
#include "sim/digest.h"
#include "sim/error.h"

namespace dsa::sim {

namespace {

std::string ModeSlug(RunMode m) { return std::string(ToString(m)); }

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// The outcome of a cell that produced no result: its identity, a failure
// status and why.
JobOutcome Unrun(const BatchJob& job, const std::string& key,
                 const char* status, std::string error) {
  JobOutcome out;
  out.key = key;
  out.workload_key = WorkloadKey(job);
  out.mode = job.mode;
  out.config_tag = job.config_tag;
  out.cell_status = status;
  out.error = std::move(error);
  return out;
}

}  // namespace

std::string WorkloadKey(const BatchJob& job) {
  std::string key = job.workload.name;
  if (!job.workload_tag.empty()) key += "#" + job.workload_tag;
  return key;
}

std::string JobKey(const BatchJob& job) {
  std::string key = WorkloadKey(job) + "@" + ModeSlug(job.mode);
  if (!job.config_tag.empty()) key += "/" + job.config_tag;
  return key;
}

BatchRunner::BatchRunner(RunnerOptions opts)
    : opts_(std::move(opts)), start_(std::chrono::steady_clock::now()) {
  if (opts_.jobs <= 0) {
    opts_.jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (opts_.jobs <= 0) opts_.jobs = 1;
  }
  if (opts_.repeats < 1) opts_.repeats = 1;
  if (!opts_.run_fn) {
    opts_.run_fn = [](const Workload& wl, RunMode mode,
                      const SystemConfig& cfg) { return Run(wl, mode, cfg); };
  }
  workers_.reserve(static_cast<std::size_t>(opts_.jobs));
  for (int i = 0; i < opts_.jobs; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

BatchRunner::~BatchRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::string BatchRunner::Submit(BatchJob job) {
  std::string key = JobKey(job);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(key);
    if (it != jobs_.end()) {
      ++memo_hits_;
      return key;
    }
    auto pending = std::make_unique<Pending>();
    pending->job = std::move(job);
    pending->key = key;
    queue_.push_back(pending.get());
    ++in_flight_;
    jobs_.emplace(key, std::move(pending));
  }
  queue_cv_.notify_one();
  return key;
}

std::array<std::string, 4> BatchRunner::SubmitMatrix(
    const Workload& wl, const SystemConfig& cfg, const std::string& config_tag,
    const std::string& workload_tag) {
  std::array<std::string, 4> keys;
  const RunMode modes[] = {RunMode::kScalar, RunMode::kAutoVec,
                           RunMode::kHandVec, RunMode::kDsa};
  for (int i = 0; i < 4; ++i) {
    keys[i] = Submit(BatchJob{wl, modes[i], cfg, config_tag, workload_tag});
  }
  return keys;
}

void BatchRunner::WorkerLoop() {
  for (;;) {
    Pending* p = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      p = queue_.front();
      queue_.pop_front();
    }
    // A seam that throws (a cache lookup or store, the drain test)
    // poisons only its own cell; the worker lives on and so does the
    // batch.
    Fate fate = Fate::kExecuted;
    try {
      fate = Process(*p);
    } catch (const std::exception& e) {
      p->outcome = Unrun(p->job, p->key, "faulted",
                         std::string("uncaught exception: ") + e.what());
    } catch (...) {
      p->outcome = Unrun(p->job, p->key, "faulted",
                         "uncaught exception: not a std::exception");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fate == Fate::kRestored) ++restored_cells_;
      if (fate == Fate::kCancelled) interrupted_ = true;
      p->done = true;
      --in_flight_;
    }
    done_cv_.notify_all();
  }
}

BatchRunner::Fate BatchRunner::Process(Pending& p) {
  // Resume seam, off the lock: a stored cell is answered without
  // executing. The restore callback fills the full outcome (runs,
  // stats, status), so downstream consumers cannot tell it apart from
  // a fresh execution.
  if (opts_.restore_fn && Restore(p)) return Fate::kRestored;
  if (opts_.drain && opts_.drain()) {
    // Graceful drain: never start new work, but let in-flight cells
    // finish so the cache and the partial report stay consistent.
    p.outcome = Unrun(p.job, p.key, "cancelled",
                      "cancelled: the batch stopped before this cell started");
    return Fate::kCancelled;
  }
  ExecuteCell(p.job, opts_, p.outcome);
  p.outcome.key = p.key;  // the memo key (== JobKey(p.job) by Submit)
  if (opts_.on_outcome) opts_.on_outcome(p.job, p.outcome);
  return Fate::kExecuted;
}

void ExecuteCell(const BatchJob& job, const RunnerOptions& opts,
                 JobOutcome& out) {
  out.key = JobKey(job);
  out.workload_key = WorkloadKey(job);
  out.mode = job.mode;
  out.config_tag = job.config_tag;
  out.config_digest = ConfigDigest(job.config);

  // Watchdog: cap the cell's interpreter step budget so a runaway loop
  // trips DsaError{kStepLimit} instead of wedging the worker thread.
  SystemConfig cfg = job.config;
  if (opts.max_cell_steps > 0 &&
      (cfg.max_steps == 0 || cfg.max_steps > opts.max_cell_steps)) {
    cfg.max_steps = opts.max_cell_steps;
  }

  const int repeats = opts.repeats < 1 ? 1 : opts.repeats;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int attempt = 0;; ++attempt) {
      ++out.attempts;
      try {
        out.runs.push_back(opts.run_fn(job.workload, job.mode, cfg));
        break;
      } catch (const DsaError& e) {
        out.error = e.what();
        // Only transient harness failures earn a bounded retry with
        // exponential backoff; deterministic errors (step limit, OOB,
        // bad workload) would fail identically again. Process-level
        // failures map to their own statuses ("crashed"/"timeout"/"oom"/
        // "skipped") so the JSON census can tell them apart.
        if (!e.transient() || attempt >= opts.max_retries) {
          out.cell_status = std::string(CellStatusFor(e.code()));
          return;
        }
        if (opts.retry_backoff_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              static_cast<std::int64_t>(opts.retry_backoff_ms) << attempt));
        }
        out.error.clear();
      } catch (const std::exception& e) {
        out.error = e.what();
        out.cell_status = "faulted";
        return;
      }
    }
    if (rep == 0) out.wall_ms = ElapsedMs(t0);
  }
  out.cell_status = "ok";
}

bool BatchRunner::Restore(Pending& p) {
  JobOutcome& out = p.outcome;
  if (!opts_.restore_fn(p.job, out)) {
    out = JobOutcome{};  // a miss leaves nothing behind for ExecuteCell
    return false;
  }
  out.key = p.key;
  out.workload_key = WorkloadKey(p.job);
  out.mode = p.job.mode;
  out.config_tag = p.job.config_tag;
  out.restored = true;
  return true;
}

const JobOutcome& BatchRunner::Get(const std::string& key) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(key);
  if (it == jobs_.end()) {
    throw std::invalid_argument("BatchRunner::Get: unknown job " + key);
  }
  Pending* p = it->second.get();
  done_cv_.wait(lock, [p] { return p->done; });
  if (!p->outcome.error.empty()) {
    throw std::runtime_error("job " + key + " failed: " + p->outcome.error);
  }
  return p->outcome;
}

const JobOutcome& BatchRunner::Outcome(const std::string& key) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(key);
  if (it == jobs_.end()) {
    throw std::invalid_argument("BatchRunner::Outcome: unknown job " + key);
  }
  Pending* p = it->second.get();
  done_cv_.wait(lock, [p] { return p->done; });
  return p->outcome;
}

BatchReport BatchRunner::Finish() {
  BatchReport report;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return in_flight_ == 0; });
    outcomes_.clear();
    for (const auto& [key, pending] : jobs_) {
      outcomes_.emplace(key, pending->outcome);
    }
    report.memo_hits = memo_hits_;
    report.restored_cells = restored_cells_;
    report.interrupted = interrupted_;
  }

  report.distinct_jobs = outcomes_.size();
  for (const auto& [key, out] : outcomes_) {
    report.executed_runs += out.runs.size();
    if (out.cell_status != "ok") ++report.faulted_cells;
    if (out.cell_status == "cancelled") {
      // A graceful drain abandoned this cell before it executed; that is
      // an interruption (BatchReport::interrupted, run_status in the
      // JSON), not a correctness violation of anything that ran.
      ++report.cancelled_cells;
      continue;
    }
    if (!out.error.empty()) {
      report.violations.push_back(
          oracle::Violation{key, "run.exception", out.error});
    }
  }

  if (opts_.oracle) {
    // Per-run invariants + determinism between repeated executions.
    for (const auto& [key, out] : outcomes_) {
      if (out.runs.empty()) continue;
      auto v = oracle::CheckInvariants(out.result(), key);
      report.violations.insert(report.violations.end(), v.begin(), v.end());
      for (std::size_t i = 1; i < out.runs.size(); ++i) {
        auto d = oracle::CheckDeterminism(out.runs[0], out.runs[i], key);
        report.violations.insert(report.violations.end(), d.begin(), d.end());
      }
    }
    // Output equivalence across modes of the same workload. The reference
    // is a scalar run when the batch contains one (the paper's baseline);
    // otherwise any member, which still enforces within-group agreement.
    std::map<std::string, std::vector<const JobOutcome*>> groups;
    for (const auto& [key, out] : outcomes_) {
      if (!out.runs.empty()) groups[out.workload_key].push_back(&out);
    }
    for (const auto& [wkey, members] : groups) {
      const JobOutcome* ref = members.front();
      for (const JobOutcome* m : members) {
        if (m->mode == RunMode::kScalar) {
          ref = m;
          break;
        }
      }
      for (const JobOutcome* m : members) {
        if (m == ref) continue;
        auto v = oracle::CheckEquivalence(ref->result(), m->result(), m->key);
        report.violations.insert(report.violations.end(), v.begin(), v.end());
      }
    }
  }

  report.wall_ms = ElapsedMs(start_);
  return report;
}

// ---------------------------------------------------------------------------
// JSON emission: the report envelope around one codec cell per job.

bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const BatchRunner& runner, const BatchReport& report,
                    const BenchJsonExtras* extras) {
  // Scalar baseline cycles per workload group, for the speedup column.
  std::map<std::string, std::uint64_t> baseline;
  for (const auto& [key, out] : runner.outcomes()) {
    if (out.mode == RunMode::kScalar && !out.runs.empty()) {
      baseline.emplace(out.workload_key, out.result().cycles);
    }
  }

  std::string doc;
  JsonWriter w(doc);
  w.Open({}, '{');
  w.Str("schema", kBenchSchema);
  w.Str("bench", bench_name);
  w.U64("jobs", static_cast<std::uint64_t>(runner.options().jobs));
  w.U64("repeats", static_cast<std::uint64_t>(runner.options().repeats));
  w.Dbl("wall_ms", report.wall_ms);
  w.U64("distinct_jobs", report.distinct_jobs);
  w.U64("executed_runs", report.executed_runs);
  w.U64("faulted_cells", report.faulted_cells);
  w.U64("memo_hits", report.memo_hits);
  w.U64("restored_cells", report.restored_cells);
  w.U64("cancelled_cells", report.cancelled_cells);
  w.Str("run_status", extras != nullptr ? extras->run_status
                                        : (report.interrupted ? "interrupted"
                                                              : "complete"));
  if (extras != nullptr && !extras->cache_path.empty()) {
    w.Open("cache", '{');
    w.Str("path", extras->cache_path);
    w.U64("hits", extras->cache_hits);
    w.U64("stores", extras->cache_stores);
    w.U64("store_failures", extras->cache_store_failures);
    w.U64("fsync_failures", extras->cache_fsync_failures);
    w.U64("quarantined", extras->cache_quarantined);
    if (extras->cache_store_failures > 0 || extras->cache_fsync_failures > 0) {
      // Typed degradation instead of silent success: the cache hit the
      // host's disk limits and some cells may not be durable.
      w.Str("warning",
            "[io-fault] " + std::to_string(extras->cache_store_failures) +
                " store failure(s), " +
                std::to_string(extras->cache_fsync_failures) +
                " fsync failure(s): cache durability not guaranteed");
    }
    w.Close('}');
  }
  if (extras != nullptr && extras->breaker_enabled) {
    w.Open("breaker", '{');
    w.Bool("enabled", true);
    w.Open("workloads", '[');
    for (const BreakerCensusEntry& b : extras->breaker) {
      w.Open({}, '{');
      w.Str("workload", b.workload);
      w.Str("state", b.state);
      w.U64("failures", b.failures);
      w.U64("trips", b.trips);
      w.U64("skipped", b.skipped);
      w.Close('}');
    }
    w.Close(']');
    w.Close('}');
  }

  w.Open("oracle", '{');
  w.Bool("enabled", runner.options().oracle);
  w.Bool("ok", report.ok());
  w.Open("violations", '[');
  for (const oracle::Violation& v : report.violations) {
    w.Open({}, '{');
    w.Str("job", v.job);
    w.Str("check", v.check);
    w.Str("detail", v.detail);
    w.Close('}');
  }
  w.Close(']');
  w.Close('}');

  // One cell per line, exactly as the result cache stores it.
  std::string results = "[";
  for (const auto& [key, out] : runner.outcomes()) {
    const auto base = baseline.find(out.workload_key);
    results += results.size() == 1 ? "\n  " : ",\n  ";
    results += SerializeOutcome(out, base != baseline.end() ? base->second : 0);
  }
  results += "\n]";
  w.Value("results", results);
  w.Close('}');
  doc += '\n';

  // Write-then-rename so a reader (or a kill signal) can never observe a
  // half-written report at `path`.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool written = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (std::fclose(f) != 0 || !written ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace dsa::sim
