// Kill-and-resume soak driver for both front ends (docs/RESILIENCE.md,
// docs/SERVING.md): proves that a cell restored from the result cache
// after a kill -9 is exactly what this binary computes. One invocation
//
//   1. runs the front's sweep in-process (BatchRunner, 2 repeats, oracle
//      on) and keeps its bench JSON as the reference,
//   2. starts a worker process over an empty cache and has it SIGKILLed
//      in the middle of a batch, after at least one cache store,
//   3. resumes over the same cache,
//   4. gates every ok cell that was resumed or served against the
//      reference through one comparison (Same): the fields the front
//      reports must equal the reference's once host-volatile fields are
//      stripped.
//
// --front cli: the worker re-executes this binary (--worker) on a seeded
// sweep (--steps, --seed) and SIGKILLs itself after K cache stores (K
// from the seed). The resumed bench report, canonicalized, must be
// byte-identical to the reference, with restored_cells > 0.
//
// --front serve: the worker is the real dsa_serve next to this binary and
// the sweep is the daemon's own (serve::SweepJobs(--filter)). Each of
// --rounds rounds boots the daemon twice over the one cache. First a
// fault-free daemon SIGKILLs itself after the store of its first
// executed cell (--kill-after 1): the sweep must see a torn connection
// (exit 5) and the cache must hold the cell. Then a daemon under a
// rotated io-fault plan must answer the sweep, serving that cell from
// the cache, keep dsa_chaos_client answered and grow its fd table by at
// most 8, and is killed -9; one byte of a cache entry is then flipped
// for the next boot scrub. A final clean round must answer every
// reference cell, some from the cache, report a scrub quarantine, answer
// a resubmit entirely from the cache, and exit 3 on SIGTERM.
//
// Only the driver's own files under --dir are removed: all of them at
// the start, and the directory itself after a pass unless --keep.
//
// Usage: bench_soak [--front cli|serve] [--seed N] [--jobs N] [--dir PATH]
//                   [--keep] [--steps small|full] [--filter SUBSTR]
//                   [--rounds N]
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "resilience/mini_json.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "workloads/workloads.h"

namespace {

namespace fs = std::filesystem;
using dsa::resilience::JsonValue;

struct SoakArgs {
  std::string front = "cli";
  std::uint64_t seed = 7;
  int jobs = 2;
  std::string dir = "bench_soak.tmp";
  bool keep = false;
  std::string steps = "small";      // cli front
  std::string filter = "BitCount";  // serve front
  std::uint64_t rounds = 3;         // serve front
  // --worker (the cli front's re-exec):
  bool worker = false;
  std::string json_path;
  std::string cache_dir;
  std::uint64_t kill_after = 0;  // SIGKILL self after K cache stores
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--front cli|serve] [--seed N] [--jobs N] "
               "[--dir PATH] [--keep]\n"
               "       cli front:   [--steps small|full]\n"
               "       serve front: [--filter SUBSTR] [--rounds N>=1]\n",
               argv0);
  std::exit(2);
}

SoakArgs ParseArgs(int argc, char** argv) {
  SoakArgs a;
  std::string cli_flag, serve_flag;  // a flag only that front takes
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--front") {
      a.front = value();
      if (a.front != "cli" && a.front != "serve") Usage(argv[0]);
    } else if (arg == "--seed") {
      a.seed = dsa::bench::ParseU64Arg(arg, value());
    } else if (arg == "--jobs") {
      a.jobs = static_cast<int>(dsa::bench::ParseCountArg(arg, value()));
    } else if (arg == "--dir") {
      a.dir = value();
    } else if (arg == "--keep") {
      a.keep = true;
    } else if (arg == "--steps") {
      a.steps = value();
      if (a.steps != "small" && a.steps != "full") Usage(argv[0]);
      cli_flag = arg;
    } else if (arg == "--filter") {
      a.filter = value();
      serve_flag = arg;
    } else if (arg == "--rounds") {
      a.rounds = dsa::bench::ParseU64Arg(arg, value());
      serve_flag = arg;
    } else if (arg == "--worker") {
      a.worker = true;
    } else if (arg == "--json") {
      a.json_path = value();
    } else if (arg == "--cache") {
      a.cache_dir = value();
    } else if (arg == "--kill-after") {
      a.kill_after = dsa::bench::ParseU64Arg(arg, value());
    } else {
      Usage(argv[0]);
    }
  }
  const std::string& other = a.front == "cli" ? serve_flag : cli_flag;
  if (!other.empty()) {
    std::fprintf(stderr, "%s does not apply to --front %s\n", other.c_str(),
                 a.front.c_str());
    Usage(argv[0]);
  }
  if (a.front == "serve" && a.rounds == 0) Usage(argv[0]);
  return a;
}

// The front's sweep. cli: a few size-randomized workloads across three
// run modes; the same (seed, steps) always builds the same sweep, which
// is what makes the bit-identical gate meaningful. serve: the daemon's
// own sweep space, narrowed by --filter.
std::vector<dsa::sim::BatchJob> Sweep(const SoakArgs& a) {
  if (a.front == "serve") return dsa::serve::SweepJobs(a.filter);
  std::mt19937_64 rng(a.seed);
  auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                             hi - lo + 1));
  };
  std::vector<dsa::sim::Workload> sweep;
  sweep.push_back(dsa::workloads::MakeVecAdd(256 * pick(2, 8)));
  sweep.push_back(dsa::workloads::MakeBitCount(512 * pick(2, 6)));
  sweep.push_back(dsa::workloads::MakeShiftAdd(256 * pick(2, 8), pick(4, 16)));
  sweep.push_back(dsa::workloads::MakeStrCopy(500 * pick(2, 6)));
  if (a.steps == "full") {
    sweep.push_back(dsa::workloads::MakeRgbGray(1024 * pick(4, 16)));
    sweep.push_back(dsa::workloads::MakeSusanE(1024 * pick(4, 12), 48));
    sweep.push_back(dsa::workloads::MakeMatMul(8 * pick(3, 6)));
    sweep.push_back(dsa::workloads::MakeQSort(256 * pick(2, 6)));
  }
  std::vector<dsa::sim::BatchJob> jobs;
  for (const dsa::sim::Workload& wl : sweep) {
    for (const dsa::sim::RunMode mode :
         {dsa::sim::RunMode::kScalar, dsa::sim::RunMode::kAutoVec,
          dsa::sim::RunMode::kDsa}) {
      jobs.push_back({wl, mode, dsa::sim::SystemConfig{}, "", ""});
    }
  }
  return jobs;
}

// One sweep through the BatchRunner (2 repeats, so the determinism
// oracle has two samples per cell), over the result cache when
// `cache_dir` is set, SIGKILLing itself after `kill_after` stores. Writes
// the bench JSON to `json_path`; returns the exit code (0 = oracle clean).
int RunSweep(const SoakArgs& a, const std::string& json_path,
             const std::string& cache_dir, std::uint64_t kill_after) {
  const std::vector<dsa::sim::BatchJob> jobs = Sweep(a);
  if (jobs.empty()) {
    std::fprintf(stderr, "soak: filter \"%s\" matches no cells\n",
                 a.filter.c_str());
    return 2;
  }
  dsa::sim::RunnerOptions ro;
  ro.jobs = a.jobs;
  ro.repeats = 2;
  std::unique_ptr<dsa::serve::ResultCache> cache;
  if (!cache_dir.empty()) {
    std::string err;
    cache = std::make_unique<dsa::serve::ResultCache>();
    if (!cache->Open(cache_dir, &err)) {
      std::fprintf(stderr, "soak: %s\n", err.c_str());
      return 2;
    }
    dsa::serve::BindCache(*cache, ro);
  }
  std::atomic<std::uint64_t> stored{0};
  if (kill_after > 0) {
    ro.on_outcome = [inner = ro.on_outcome, &stored, kill_after](
                        const dsa::sim::BatchJob& job,
                        const dsa::sim::JobOutcome& out) {
      if (inner) inner(job, out);
      // Every store is fsync'd before its rename, so the cell is
      // durable; die the hard way, mid-batch, like a real OOM-kill.
      if (out.cell_status == "ok" && stored.fetch_add(1) + 1 == kill_after) {
        ::raise(SIGKILL);
      }
    };
  }

  dsa::sim::BatchRunner runner(ro);
  for (const dsa::sim::BatchJob& job : jobs) runner.Submit(job);
  const dsa::sim::BatchReport report = runner.Finish();
  dsa::sim::BenchJsonExtras extras;
  if (cache) dsa::bench::FillCacheCensus(*cache, report, extras);
  if (!dsa::sim::WriteBenchJson(json_path, "soak", runner, report, &extras)) {
    std::fprintf(stderr, "soak: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("soak: %zu cell(s), %" PRIu64 " restored, cache %s -> %s\n",
              jobs.size(), report.restored_cells,
              cache_dir.empty() ? "off" : cache_dir.c_str(),
              json_path.c_str());
  return report.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Processes.

struct Exit {
  bool signalled = false;
  int signal = 0;
  int code = -1;

  [[nodiscard]] bool Is(int c) const { return !signalled && code == c; }
  [[nodiscard]] bool KilledBy(int sig) const {
    return signalled && signal == sig;
  }
  [[nodiscard]] std::string Describe() const {
    return signalled ? "signal " + std::to_string(signal)
                     : "exit " + std::to_string(code);
  }
};

// A spawned process. One still running when its Child goes out of scope
// (a gate failed mid-round) is SIGKILLed and reaped; one the driver
// waits for is bounded by the caller's timeout and PR_SET_PDEATHSIG.
class Child {
 public:
  Child(const std::string& exe, std::vector<std::string> args) {
    args.insert(args.begin(), exe);
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    std::fflush(nullptr);  // keep this process's output ahead of the child's
    pid_ = ::fork();
    if (pid_ < 0) std::perror("fork");
    if (pid_ == 0) {
      (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the driver
      ::execv(exe.c_str(), argv.data());
      std::perror(exe.c_str());
      ::_exit(127);
    }
  }
  ~Child() {
    if (pid_ > 0) {
      (void)::kill(pid_, SIGKILL);
      (void)Wait();
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  void Signal(int sig) const {
    if (pid_ > 0) (void)::kill(pid_, sig);
  }
  Exit Wait() {
    Exit e;
    if (pid_ <= 0) return e;
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    e.signalled = WIFSIGNALED(status);
    e.signal = e.signalled ? WTERMSIG(status) : 0;
    e.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return e;
  }

 private:
  pid_t pid_ = -1;
};

int Fail(const std::string& why) {
  std::fprintf(stderr, "soak FAILED: %s\n", why.c_str());
  return 1;
}

// ---------------------------------------------------------------------------
// The one bit-identity gate.

bool LoadJson(const std::string& path, JsonValue& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "soak: %s: missing\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!ParseJson(ss.str(), out, &err)) {
    std::fprintf(stderr, "soak: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

// The cli front's view: a bench report minus the host-volatile fields —
// per-result wall_ms, host.wall_ms/mips/phases (timing) and restored
// (bookkeeping), plus the top-level run bookkeeping (jobs, wall_ms,
// memo/restored counters, cache census). host.steps and host.dispatch
// stay, so a restored cell must name the core that ran it.
JsonValue Canonicalize(const JsonValue& report) {
  static const char* kTopLevel[] = {"schema",        "bench",
                                    "repeats",       "distinct_jobs",
                                    "executed_runs", "faulted_cells",
                                    "oracle",        "results"};
  JsonValue out;
  out.type = JsonValue::Type::kObject;
  for (const char* keep : kTopLevel) {
    const JsonValue* v = report.Find(keep);
    if (v == nullptr) continue;
    out.object.emplace_back(keep, *v);
    if (std::string_view(keep) != "results") continue;
    for (JsonValue& cell : out.object.back().second.array) {
      std::erase_if(cell.object, [](const auto& kv) {
        return kv.first == "wall_ms" || kv.first == "restored";
      });
      for (auto& [key, host] : cell.object) {
        if (key != "host") continue;
        std::erase_if(host.object, [](const auto& kv) {
          return kv.first == "wall_ms" || kv.first == "mips" ||
                 kv.first == "phases";
        });
      }
    }
  }
  return out;
}

// The serve front's view: what a response cell reports of its run.
JsonValue ServedFields(const JsonValue& cell) {
  JsonValue out;
  out.type = JsonValue::Type::kObject;
  for (const char* keep : {"job", "cycles", "output_digest"}) {
    if (const JsonValue* v = cell.Find(keep)) out.object.emplace_back(keep, *v);
  }
  return out;
}

// `got` must equal `want` once both are reduced by `view`. On a mismatch
// both reductions are written under `dir` for a diff.
bool Same(const JsonValue& got, const JsonValue& want,
          JsonValue (*view)(const JsonValue&), const std::string& what,
          const std::string& dir) {
  const std::string g = DumpJson(view(got));
  const std::string w = DumpJson(view(want));
  if (g == w) return true;
  std::ofstream(dir + "/mismatch.got.json") << g << "\n";
  std::ofstream(dir + "/mismatch.want.json") << w << "\n";
  std::fprintf(stderr,
               "soak: %s diverges from the reference (diff %s/mismatch."
               "want.json %s/mismatch.got.json)\n",
               what.c_str(), dir.c_str(), dir.c_str());
  return false;
}

// ---------------------------------------------------------------------------
// cli front.

int CliFront(const SoakArgs& a, const std::string& self,
             const JsonValue& ref) {
  const std::size_t cells = Sweep(a).size();
  const std::uint64_t kill_after = 1 + a.seed % (cells - 1);
  const std::string resumed_json = a.dir + "/resumed.json";
  std::printf("soak: front=cli steps=%s seed=%" PRIu64 " (%zu cells, kill "
              "after %" PRIu64 " cache store(s))\n",
              a.steps.c_str(), a.seed, cells, kill_after);
  std::vector<std::string> worker = {
      "--worker", "--steps", a.steps, "--seed", std::to_string(a.seed),
      "--jobs", std::to_string(a.jobs), "--json", resumed_json, "--cache",
      a.dir + "/cache"};

  std::vector<std::string> killed_args = worker;
  killed_args.push_back("--kill-after");
  killed_args.push_back(std::to_string(kill_after));
  Exit e = Child(self, killed_args).Wait();
  if (!e.KilledBy(SIGKILL)) {
    return Fail("kill run was supposed to die on SIGKILL, got " +
                e.Describe());
  }
  e = Child(self, worker).Wait();
  if (!e.Is(0)) return Fail("resume run failed (" + e.Describe() + ")");

  JsonValue resumed;
  if (!LoadJson(resumed_json, resumed)) return Fail("no resumed report");
  const JsonValue* restored = resumed.Find("restored_cells");
  if (restored == nullptr || restored->AsU64() == 0) {
    return Fail("resumed run restored no cells from the cache");
  }
  if (!Same(resumed, ref, Canonicalize, "resumed report", a.dir)) {
    return Fail("resumed report is not bit-identical");
  }
  std::printf("soak PASSED: killed-and-resumed sweep is bit-identical to "
              "the uninterrupted run (%" PRIu64 " cell(s) restored)\n",
              restored->AsU64());
  return 0;
}

// ---------------------------------------------------------------------------
// serve front.

bool WaitForDaemon(const std::string& socket_path) {
  dsa::serve::ClientOptions po;
  po.socket_path = socket_path;
  po.client_name = "soak-orchestrator";
  po.ping = true;
  po.quiet = true;
  po.recv_timeout_ms = 5000;
  for (int i = 0; i < 250; ++i) {
    if (dsa::serve::Submit(po) == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// Open fds of a live process (the leak gate); -1 when unreadable.
int CountFds(pid_t pid) {
  std::error_code ec;
  fs::directory_iterator it("/proc/" + std::to_string(pid) + "/fd", ec);
  int n = 0;
  for (; !ec && it != fs::directory_iterator(); it.increment(ec)) ++n;
  return ec ? -1 : n;
}

// The cache's published entries, sorted by file name (a store's
// ".tmp.*" sibling is not one).
std::vector<fs::path> CellFiles(const std::string& cache_dir) {
  std::vector<fs::path> entries;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(cache_dir, ec)) {
    const fs::path& p = e.path();
    if (p.extension() == ".cell" && !p.filename().string().starts_with(".")) {
      entries.push_back(p);
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

// The job whose cell a cache entry ("<crc> <json>") holds; "" when the
// entry does not parse.
std::string EntryJob(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::getline(in, line);
  const std::size_t space = line.find(' ');
  JsonValue entry;
  if (space == std::string::npos ||
      !ParseJson(std::string_view(line).substr(space + 1), entry)) {
    return "";
  }
  const JsonValue* key = entry.Find("key");
  return key != nullptr ? key->AsString() : "";
}

// Flips one byte in the middle of a seeded cache entry, so the next boot
// scrub has a real torn entry to quarantine.
void CorruptOneEntry(const std::string& cache_dir, std::uint64_t seed) {
  const std::vector<fs::path> entries = CellFiles(cache_dir);
  if (entries.empty()) return;
  const fs::path& path = entries[seed % entries.size()];
  std::error_code ec;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto mid = static_cast<std::streamoff>(fs::file_size(path, ec) / 2);
  char b = 0;
  if (ec || mid == 0 || !f.seekg(mid).get(b)) return;
  f.seekp(mid).put(static_cast<char>(b ^ 0x5A));
  std::printf("soak: corrupted one byte of %s for the boot scrub\n",
              path.c_str());
}

// The io-fault plans the chaos rounds rotate through: finite counts, so
// the daemon degrades typed and then recovers within the same round.
std::string PlanForRound(std::uint64_t round, std::uint64_t seed) {
  static const char* const kPlans[] = {
      "fsync-fail@0+2",
      "enospc@1+2",
      "short-write@0+4",
      "rename-fail@0+1,eio@2+1",
  };
  return std::string(kPlans[round % 4]) + ";seed=" +
         std::to_string(seed + round);
}

struct Served {
  std::set<std::string> ok;      // jobs of the ok cells, each gated
  std::set<std::string> cached;  // the ok cells answered from the cache
};

// Gates every ok cell of the response at `path` against the reference.
// A missing or malformed response fails, like a mismatch; a failed or
// refused cell is fine — a wrong one never is.
bool CheckServed(const std::string& path,
                 const std::map<std::string, JsonValue>& ref,
                 const std::string& dir, Served& s) {
  JsonValue resp;
  if (!LoadJson(path, resp)) return false;
  const JsonValue* cells = resp.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    std::fprintf(stderr, "soak: %s: no cells array\n", path.c_str());
    return false;
  }
  for (const JsonValue& cell : cells->array) {
    const JsonValue* status = cell.Find("cell_status");
    if (status == nullptr || status->AsString() != "ok") continue;
    const JsonValue* job = cell.Find("job");
    const std::string key = job != nullptr ? job->AsString() : "";
    const auto it = ref.find(key);
    if (it == ref.end()) {
      std::fprintf(stderr, "soak: served cell \"%s\" has no reference\n",
                   key.c_str());
      return false;
    }
    if (!Same(cell, it->second, ServedFields, "served cell " + key, dir)) {
      return false;
    }
    s.ok.insert(key);
    const JsonValue* cached = cell.Find("cached");
    if (cached != nullptr && cached->AsBool()) s.cached.insert(key);
  }
  return true;
}

int ServeFront(const SoakArgs& a, const std::string& self,
               const JsonValue& ref_report) {
  std::map<std::string, JsonValue> ref;
  for (const JsonValue& cell : ref_report.Find("results")->array) {
    ref[cell.Find("job")->AsString()] = cell;
  }
  const std::string bin = fs::path(self).parent_path().string();
  const std::string socket = a.dir + "/soak.sock";
  const std::string cache = a.dir + "/cache";
  const std::vector<std::string> daemon_args = {
      "--socket", socket, "--cache", cache, "--workers", "2",
      "--queue", "16", "--client-quota", "8", "--read-deadline-ms", "1000"};
  const auto submit = [&](const char* client, const std::string& json,
                          int retries, bool health) {
    dsa::serve::ClientOptions o;
    o.socket_path = socket;
    o.client_name = client;
    o.filter = health ? "" : a.filter;
    o.health = health;
    o.quiet = true;
    o.retries = retries;
    o.recv_timeout_ms = 120000;
    o.json_path = json;
    return dsa::serve::Submit(o);
  };
  std::uint64_t checked = 0;

  for (std::uint64_t round = 0; round < a.rounds; ++round) {
    const std::string tag =
        std::to_string(round + 1) + "/" + std::to_string(a.rounds);
    // Kill: a fault-free daemon SIGKILLs itself right after the store of
    // its first executed cell, so that cell is durable. There is always
    // one to execute: the first round starts cold, and every later one
    // follows a planted corruption that the boot scrub quarantines.
    std::printf("soak: front=serve round %s: daemon --kill-after 1\n",
                tag.c_str());
    std::set<std::string> stored;  // jobs the killed daemon left on disk
    {
      std::vector<std::string> args = daemon_args;
      args.insert(args.end(), {"--kill-after", "1"});
      Child daemon(bin + "/dsa_serve", args);
      if (!WaitForDaemon(socket)) return Fail("daemon never came up");
      const std::vector<fs::path> before = CellFiles(cache);  // scrubbed
      // The client sees a torn connection (exit 5), never a fabricated
      // result.
      const int rc = submit("soak-sweep", "", 0, false);
      if (rc != 5) {
        return Fail("kill round: sweep exited " + std::to_string(rc) +
                    ", want 5 (the daemon did not die of its --kill-after "
                    "drill)");
      }
      const Exit de = daemon.Wait();
      if (!de.KilledBy(SIGKILL)) {
        return Fail("daemon was supposed to die on SIGKILL, got " +
                    de.Describe());
      }
      for (const fs::path& p : CellFiles(cache)) {
        if (std::binary_search(before.begin(), before.end(), p)) continue;
        const std::string job = EntryJob(p);
        if (job.empty()) return Fail("unreadable cache entry " + p.string());
        stored.insert(job);
      }
      if (stored.empty()) return Fail("the killed daemon stored no cell");
    }

    // Chaos: a restarted daemon under an io-fault plan answers the sweep
    // while dsa_chaos_client attacks it, then is killed -9.
    const std::string plan = PlanForRound(round, a.seed);
    std::printf("soak: front=serve round %s: io-faults \"%s\", chaos "
                "client, kill -9\n",
                tag.c_str(), plan.c_str());
    {
      std::vector<std::string> args = daemon_args;
      args.insert(args.end(), {"--io-faults", plan});
      Child daemon(bin + "/dsa_serve", args);
      if (!WaitForDaemon(socket)) return Fail("daemon never came up");
      const int fds_before = CountFds(daemon.pid());
      Child chaos(bin + "/dsa_chaos_client",
                  {"--socket", socket, "--seed",
                   std::to_string(a.seed * 1000 + round), "--rounds", "6",
                   "--slow-ms", "20"});
      const std::string json =
          a.dir + "/round_" + std::to_string(round) + ".json";
      const int rc = submit("soak-sweep", json, 4, false);
      if (rc != 0 && rc != 1) {
        return Fail("sweep exited " + std::to_string(rc) +
                    " in a chaos round");
      }
      Served s;
      if (!CheckServed(json, ref, a.dir, s)) return Fail("chaos round");
      for (const std::string& job : stored) {
        if (s.cached.count(job) == 0) {
          return Fail("restarted daemon did not serve " + job +
                      " from the cache, where the killed daemon stored it");
        }
      }
      checked += s.ok.size();
      const Exit ce = chaos.Wait();
      if (!ce.Is(0)) {
        return Fail("chaos client found the daemon unresponsive (" +
                    ce.Describe() + ")");
      }
      const int fds_after = CountFds(daemon.pid());
      if (fds_before > 0 && fds_after > fds_before + 8) {
        return Fail("fd leak: " + std::to_string(fds_before) +
                    " fds before chaos, " + std::to_string(fds_after) +
                    " after");
      }
      daemon.Signal(SIGKILL);
      const Exit de = daemon.Wait();
      if (!de.KilledBy(SIGKILL)) {
        return Fail("daemon was supposed to die on SIGKILL, got " +
                    de.Describe());
      }
    }
    CorruptOneEntry(cache, a.seed + round);
  }

  std::printf("soak: front=serve final clean round\n");
  Child daemon(bin + "/dsa_serve", daemon_args);
  if (!WaitForDaemon(socket)) return Fail("final daemon never came up");
  Served fin;
  int rc = submit("soak-final", a.dir + "/final.json", 2, false);
  if (rc != 0) return Fail("final clean sweep exited " + std::to_string(rc));
  if (!CheckServed(a.dir + "/final.json", ref, a.dir, fin)) {
    return Fail("final round");
  }
  if (fin.ok.size() != ref.size()) {
    return Fail("final round answered " + std::to_string(fin.ok.size()) +
                " of " + std::to_string(ref.size()) + " reference cells");
  }
  if (fin.cached.empty()) {
    return Fail("restarted daemon served no cached cell");
  }
  checked += fin.ok.size();

  // The scrub must have quarantined the corruption the rounds planted.
  JsonValue health;
  const JsonValue* q = nullptr;
  if (submit("soak-final", a.dir + "/health.json", 2, true) == 0 &&
      LoadJson(a.dir + "/health.json", health)) {
    const JsonValue* h = health.Find("health");
    const JsonValue* scrub = h != nullptr ? h->Find("scrub") : nullptr;
    q = scrub != nullptr ? scrub->Find("quarantined") : nullptr;
  }
  if (q == nullptr || q->AsU64() == 0) {
    return Fail("boot scrub quarantined nothing despite planted corruption");
  }

  Served again;
  rc = submit("soak-final", a.dir + "/resubmit.json", 2, false);
  if (rc != 0 || !CheckServed(a.dir + "/resubmit.json", ref, a.dir, again) ||
      again.cached.size() != ref.size()) {
    return Fail("resubmit was not answered entirely from the cache");
  }
  checked += again.ok.size();

  // Graceful drain: SIGTERM -> exit 3, the daemon's documented contract.
  daemon.Signal(SIGTERM);
  const Exit fe = daemon.Wait();
  if (!fe.Is(3)) {
    return Fail("drained daemon: " + fe.Describe() + ", want exit 3");
  }
  std::printf("soak PASSED: %" PRIu64 " kill-and-chaos round(s) + clean "
              "round, %" PRIu64 " served cell(s) bit-identical to the "
              "reference, every killed daemon's stored cells served from "
              "the cache, scrub quarantined planted corruption, resubmit "
              "fully cached, drain exit 3\n",
              a.rounds, checked);
  return 0;
}

// Whether `name` is a file this driver writes under --dir. Only these
// are ever removed, so a --dir that names an existing tree loses nothing
// else.
bool IsArtifact(const std::string& name) {
  return name == "cache" || name == "soak.sock" || name == "reference.json" ||
         name == "resumed.json" || name == "final.json" ||
         name == "health.json" || name == "resubmit.json" ||
         name.starts_with("mismatch.") ||
         (name.starts_with("round_") && name.ends_with(".json"));
}

void RemoveArtifacts(const std::string& dir, std::error_code& ec) {
  std::vector<fs::path> doomed;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (IsArtifact(e.path().filename().string())) doomed.push_back(e.path());
  }
  for (const fs::path& p : doomed) {
    if (!ec) fs::remove_all(p, ec);
  }
}

int OrchestratorMain(const SoakArgs& a) {
  std::error_code ec;
  fs::create_directories(a.dir, ec);
  if (!ec) RemoveArtifacts(a.dir, ec);
  if (ec) return Fail("cannot empty --dir: " + ec.message());
  const std::string self = fs::read_symlink("/proc/self/exe", ec).string();
  if (ec) return Fail("cannot locate this binary: " + ec.message());

  const std::string ref_json = a.dir + "/reference.json";
  JsonValue ref;
  if (RunSweep(a, ref_json, "", 0) != 0 || !LoadJson(ref_json, ref)) {
    return Fail("reference sweep failed");
  }
  const int rc =
      a.front == "cli" ? CliFront(a, self, ref) : ServeFront(a, self, ref);
  if (rc == 0 && !a.keep) {
    RemoveArtifacts(a.dir, ec);
    fs::remove(a.dir, ec);  // only when nothing else is in it
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const SoakArgs a = ParseArgs(argc, argv);
  if (a.worker) return RunSweep(a, a.json_path, a.cache_dir, a.kill_after);
  return OrchestratorMain(a);
}
