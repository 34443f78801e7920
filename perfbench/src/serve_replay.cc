#include "serve_replay.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "report.h"
#include "serve/cache.h"
#include "serve/daemon.h"
#include "serve/proto.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

using dsa::sim::BatchJob;
using dsa::sim::JobOutcome;
using dsa::sim::RunMode;
using dsa::sim::RunResult;
using dsa::sim::SystemConfig;
using dsa::sim::Workload;
namespace serve = dsa::serve;
namespace wl = dsa::workloads;

// Mirrors the sweep space dsa_serve documents (docs/SERVING.md) from the
// public factories alone, so the reference does not share code with the
// daemon it checks.
std::vector<BatchJob> ReferenceJobs() {
  const SystemConfig cfg;
  SystemConfig orig;
  orig.dsa = dsa::engine::DsaConfig::Original();
  std::vector<BatchJob> jobs;
  std::set<std::string> seen;
  const auto add = [&](const Workload& w, RunMode m, const SystemConfig& c,
                       const std::string& tag) {
    BatchJob job{w, m, c, tag, ""};
    if (seen.insert(dsa::sim::JobKey(job)).second) jobs.push_back(job);
  };
  for (const Workload& w : wl::Article3Set()) {
    for (RunMode m : {RunMode::kScalar, RunMode::kAutoVec, RunMode::kHandVec,
                      RunMode::kDsa}) {
      add(w, m, cfg, "");
    }
  }
  for (const Workload& w : wl::Article2Set()) add(w, RunMode::kDsa, orig, "orig");
  for (const Workload& w : wl::StreamingSet()) {
    add(w, RunMode::kScalar, cfg, "");
    add(w, RunMode::kDsa, cfg, "");
  }
  return jobs;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

// One framed round trip of `body` over a socketpair: the daemon's
// SendFrame on one end, the client's RecvFrame on the other.
bool FrameRoundTrip(const std::string& body) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  bool sent = false;
  std::thread writer([&] {
    sent = serve::SendFrame(fds[0], serve::kFrameResponse, body);
  });
  char type = 0;
  std::string got;
  const serve::RecvStatus rs = serve::RecvFrame(fds[1], type, got);
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return sent && rs == serve::RecvStatus::kOk && got == body;
}

}  // namespace

int RunServeReference() {
  dsa::sim::RunnerOptions ro;
  ro.jobs = 1;
  ro.repeats = 2;
  dsa::sim::BatchRunner runner(ro);
  for (BatchJob& job : ReferenceJobs()) (void)runner.Submit(std::move(job));
  const dsa::sim::BatchReport report = runner.Finish();

  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<const JobOutcome*> outcomes;
  std::string cells = "[";
  for (const auto& [key, o] : runner.outcomes()) {
    outcomes.push_back(&o);
    if (o.cell_status != "ok" || o.runs.empty() || !o.result().output_ok) {
      ++failed;
      errors.push_back(key + ": status " + o.cell_status);
      continue;
    }
    const RunResult& r = o.result();
    JsonObject c;
    c.Str("job", key);
    c.Str("workload", o.workload_key);
    c.Int("cycles", r.cycles);
    c.Str("output_digest", Hex(r.output_digest));
    c.Int("retired", r.cpu.retired_total);
    if (cells.size() > 1) cells += ',';
    cells += c.Done();
  }
  for (const auto& v : report.violations) {
    ++failed;
    errors.push_back("oracle: " + v.check + " " + v.job + ": " + v.detail);
  }
  JsonObject o;
  o.Int("failed", failed);
  o.Strs("errors", errors);
  o.Str("fingerprint", Hex(Fingerprint(outcomes)));
  o.Raw("cells", cells + "]");
  std::printf("%s\n", o.Done().c_str());
  return failed == 0 ? 0 : 1;
}

namespace {

struct WarmRequest {
  std::string filter;
  std::string response;  // the body dsa_serve sent for this request
};

struct Replay {
  SpanLog& log;
  serve::ResultCache& cache;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }

  // The write path of one request whose cells all miss.
  void Cold(const std::string& filter, std::uint64_t id, LayerSums& layers) {
    ScopedSpan root(&log, "serve.cold_request", -1, id);
    std::vector<BatchJob> jobs;
    {
      ScopedSpan s(&log, "serve.sweep_jobs", root.id(), id);
      jobs = serve::SweepJobs(filter);
    }
    if (jobs.empty()) Fail("filter " + filter + " matches nothing");
    for (const BatchJob& job : jobs) {
      serve::CacheKey key;
      {
        ScopedSpan s(&log, "serve.key_digest", root.id(), id);
        key = serve::KeyFor(job);
      }
      JobOutcome out;
      {
        ScopedSpan s(&log, "serve.simulate", root.id(), id);
        dsa::sim::RunnerOptions ro;
        ro.repeats = 1;
        ro.run_fn = [this, parent = s.id(), id](const Workload& w, RunMode m,
                                                 const SystemConfig& c) {
          ScopedSpan run(&log, "sim.run", parent, id);
          return dsa::sim::Run(w, m, c);
        };
        dsa::sim::ExecuteCell(job, ro, out);
      }
      if (out.cell_status != "ok" || out.runs.empty() ||
          !out.result().output_ok) {
        Fail(out.key + ": status " + out.cell_status);
        continue;
      }
      layers.AddTiming(out.result());
      layers.AddCounts(out.result());
      ScopedSpan s(&log, "serve.cache_store", root.id(), id);
      (void)cache.Store(key, out);
    }
  }

  // The read path of one fully cached request, then its response frame.
  // `traced` false runs the same calls without spans.
  void Warm(const WarmRequest& req, std::uint64_t id, bool traced) {
    SpanLog* l = traced ? &log : nullptr;
    ScopedSpan root(l, "serve.request", -1, id);
    std::vector<BatchJob> jobs;
    {
      ScopedSpan s(l, "serve.sweep_jobs", root.id(), id);
      jobs = serve::SweepJobs(req.filter);
    }
    if (jobs.empty()) Fail("filter " + req.filter + " matches nothing");
    for (const BatchJob& job : jobs) {
      serve::CacheKey key;
      {
        ScopedSpan s(l, "serve.key_digest", root.id(), id);
        key = serve::KeyFor(job);
      }
      JobOutcome out;
      bool hit = false;
      {
        ScopedSpan s(l, "serve.cache_load", root.id(), id);
        hit = cache.Load(key, out);
      }
      if (!hit) Fail(dsa::sim::JobKey(job) + ": warm replay missed the cache");
    }
    bool framed = false;
    {
      ScopedSpan s(l, "serve.frame", root.id(), id);
      framed = FrameRoundTrip(req.response);
    }
    if (!framed) Fail("frame round trip failed for " + req.filter);
  }
};

}  // namespace

int RunServeReplay(const ReplayArgs& args) {
  std::vector<std::string> cold;
  std::vector<WarmRequest> warm;
  {
    std::ifstream f(args.requests);
    std::string line;
    while (std::getline(f, line)) {
      std::vector<std::string> cols;
      std::size_t from = 0;
      for (std::size_t tab; (tab = line.find('\t', from)) != std::string::npos;
           from = tab + 1) {
        cols.push_back(line.substr(from, tab - from));
      }
      cols.push_back(line.substr(from));
      if (cols.size() == 2 && cols[0] == "cold") {
        cold.push_back(cols[1]);
      } else if (cols.size() == 3 && cols[0] == "warm") {
        WarmRequest w{cols[1], ""};
        if (!ReadFile(cols[2], w.response)) {
          std::fprintf(stderr, "perfbench: cannot read %s\n", cols[2].c_str());
          return 1;
        }
        warm.push_back(std::move(w));
      }
    }
  }
  if (cold.empty() || warm.empty()) {
    std::fprintf(stderr, "perfbench: %s lists no cold or no warm requests\n",
                 args.requests.c_str());
    return 1;
  }
  serve::ResultCache cache;
  std::string error;
  if (!cache.Open(args.cache_dir, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }

  SpanLog log;
  Replay replay{log, cache, 0, {}};
  LayerSums layers;
  for (std::size_t i = 0; i < cold.size(); ++i) replay.Cold(cold[i], i, layers);
  const serve::CacheStats cold_stats = cache.stats();
  const auto cold_spans = Summarize(log.Snapshot());

  // Warm replay, untraced then traced over the same requests: the
  // difference of the two walls is the tracing overhead.
  const std::uint64_t base = cold.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < warm.size(); ++i) {
    replay.Warm(warm[i], base + i, false);
  }
  const double plain_ms = MsSince(t0);
  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < warm.size(); ++i) {
    replay.Warm(warm[i], base + i, true);
  }
  const double traced_ms = MsSince(t1);

  const auto all_spans = Summarize(log.Snapshot());
  const auto total = [](const std::map<std::string, SpanTotals>& m,
                        const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.total_ms;
  };
  const auto warm_total = [&](const std::string& name) {
    return total(all_spans, name) - total(cold_spans, name);
  };
  const double n = static_cast<double>(warm.size());
  double response_bytes = 0;
  for (const WarmRequest& w : warm) {
    response_bytes += static_cast<double>(w.response.size());
  }
  JsonObject l;
  // Warm request steps, mean per request.
  l.Num("serve.sweep_jobs_ms", warm_total("serve.sweep_jobs") / n);
  l.Num("serve.key_digest_ms", warm_total("serve.key_digest") / n);
  l.Num("serve.cache_load_ms", warm_total("serve.cache_load") / n);
  l.Num("serve.frame_ms", warm_total("serve.frame") / n);
  l.Num("serve.response_bytes", response_bytes / n);
  l.Num("trace.overhead_pct",
        plain_ms > 0 ? 100.0 * (traced_ms - plain_ms) / plain_ms : 0.0);
  // Cold write path, totals over the cold pass.
  l.Num("serve.cold_sweep_jobs_ms", total(cold_spans, "serve.sweep_jobs"));
  l.Num("serve.cold_key_digest_ms", total(cold_spans, "serve.key_digest"));
  l.Num("serve.simulate_ms", total(cold_spans, "serve.simulate"));
  l.Num("serve.cache_store_ms", total(cold_spans, "serve.cache_store"));
  l.Int("serve.stores", cold_stats.stores);
  l.Int("serve.store_failures", cold_stats.store_failures);
  l.Num("sim.run_ms", total(cold_spans, "sim.run"));
  layers.Emit(l, total(cold_spans, "sim.run"), 1.0);

  if (!log.WriteJson(args.out_dir + "/spans.json")) {
    replay.Fail("could not write spans.json");
  }
  JsonObject o;
  o.Int("failed", replay.failed);
  o.Strs("errors", replay.errors);
  o.Raw("layers", l.Done());
  std::printf("%s\n", o.Done().c_str());
  return replay.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
