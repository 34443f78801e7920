"""The `serve` workload: the real dsa_serve daemon over its Unix socket.

Per run:
  1. set-up, cold pass and warm segment, for COLD_SHARE of --seconds and
     at least MIN_SETUPS times: spawn the daemon on an empty cache
     directory, time spawn until the first ping is answered (boot scrub
     included), then send one request per workload filter across the whole
     sweep space; every cell misses, simulates and is stored with fsync;
     then WARM_SEGMENT_S of open-loop requests at REPORT_RATE, all cache
     hits, which give warm.p50_ms and warm.p90_ms;
  2. ladder on the last daemon: an open-loop ladder at 20, 40, 60 and
     160 req/s of single-workload requests in a seeded order, all cache
     hits, sent on schedule from one thread of this process with at most
     IN_FLIGHT requests outstanding;
  3. traced runs add an unloaded pass (one request at a time) and the
     in-process replay of the daemon's request steps (perfbench
     serve-replay), which attributes a request layer by layer.

Every response is checked against an in-process sim::Run of the same cells
(perfbench serve-ref): status, cell set, cycles and output digest.

The host-speed calibration kernel (perfbench calibrate) runs before the
first spawn, after every cold pass and after every ladder step. Set-up,
cold pass and latency times are scaled by the run's calibration
(rules.host_scale). Each step's offered rate is scaled by the calibration
so far, so the ladder's rates are req/s at the nominal host speed and the
daemon sees the same utilization however fast the host runs
(calibrate.h).
"""

import json
import os
import random
import shutil
import signal
import selectors
import socket
import struct
import subprocess
import threading
import time
import zlib

import rules

# Open-loop rates in req/s at the nominal host speed. The top rung sits well
# above the daemon's capacity (about 100 req/s of single-workload requests at
# the nominal speed), so max_rate_rps does not flip between rungs.
LADDER = (20, 40, 60, 160)
REPORT_RATE = 40                     # warm.p50_ms / warm.p90_ms come from here
# Set-up, cold passes and warm segments take this share of --seconds. Warm
# latency is sampled on every daemon of the run in short segments rather
# than in one step on one daemon: from one daemon instance to the next, and
# from one few-second stretch of the shared host to the next, latency moves
# by 10-30%, and the segments average over both.
COLD_SHARE = 0.6
MIN_SETUPS = 7                       # daemon spawns (and cold passes) per run
WARM_SEGMENT_S = 0.75
# The rest of --seconds goes to the ladder, split between the rates so.
STEP_SHARE = {20: 0.15, 40: 0.35, 60: 0.30, 160: 0.20}
# Outstanding requests, each from its own client slot (CLIENT-<slot>), as
# independent users: one request per client, however late the daemon
# releases a finished one from its per-client quota, and IN_FLIGHT plus as
# many finished ones stays within its queue of 8, so admission never
# refuses. A due request waits (and counts as late) while all are taken.
IN_FLIGHT = 4
DAEMON_WORKERS = 2                   # dsa_serve's default, which runs here
CLIENT = "perfbench"
CUTOFF_S = 0.5                       # requests not sent by window end + this
REQUEST_TIMEOUT_S = 60.0


class ServeError(Exception):
    pass


def _recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ServeError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def encode_request(kind, filt, client=CLIENT):
    body = {"schema": "dsa-serve/1", "kind": kind, "client": client}
    if filt:
        body["filter"] = filt
    payload = b"Q" + json.dumps(body).encode()
    return (b"DSAS" + struct.pack("<II", len(payload), zlib.crc32(payload)) +
            payload)


def frame_length(head):
    """Payload length from a 12-byte response header."""
    if head[:4] != b"DSAS":
        raise ServeError("bad response magic")
    return struct.unpack("<I", head[4:8])[0]


def decode_response(head, data):
    """(parsed JSON, raw JSON) of one response frame."""
    if zlib.crc32(data) != struct.unpack("<I", head[8:12])[0] or \
            data[:1] != b"S":
        raise ServeError("corrupt response frame")
    raw = data[1:]
    return json.loads(raw), raw


def request(sock_path, kind="sweep", filt="", timeout=REQUEST_TIMEOUT_S):
    """One DSAS request/response exchange. Returns (parsed JSON, raw JSON)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(encode_request(kind, filt))
        head = _recv_exact(s, 12)
        data = _recv_exact(s, frame_length(head))
    return decode_response(head, data)


class Daemon:
    """One dsa_serve process; always stopped through stop()."""

    def __init__(self, binary, sock_path, cache_dir, log_path):
        self.binary = binary
        self.sock_path = sock_path
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.proc = None

    def start(self):
        """Spawns the daemon; returns seconds until a ping was answered."""
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        with open(self.log_path, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                [self.binary, "--socket", self.sock_path, "--cache",
                 self.cache_dir], stdout=log, stderr=log)
        while True:
            if self.proc.poll() is not None:
                raise ServeError(f"dsa_serve exited {self.proc.returncode} "
                                 "before answering a ping")
            try:
                resp, _ = request(self.sock_path, kind="ping", timeout=5.0)
                if resp.get("status") == "ok":
                    return time.perf_counter() - t0
            except (OSError, ServeError):
                pass
            if time.perf_counter() - t0 > 30:
                raise ServeError("dsa_serve did not answer a ping in 30 s")
            # Fine-grained, so the measured time is not rounded up to a
            # coarse polling grid.
            time.sleep(0.0001)

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("VmHWM missing from /proc status")

    def stop(self):
        """SIGTERM drains the daemon (exit 3); SIGKILL after 20 s."""
        if self.proc is None or self.proc.poll() is not None:
            return None if self.proc is None else self.proc.returncode
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return None


class Checker:
    """Compares responses with the in-process reference cells."""

    def __init__(self, reference):
        self.cells = {c["job"]: c for c in reference["cells"]}
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.errors = []
        self.lock = threading.Lock()

    def expected(self, filt):
        needle = filt.lower()
        return {job for job in self.cells if needle in job.lower()}

    def check(self, filt, resp, want_cached):
        """Records one attempted request; returns True when correct."""
        problems = []
        status = resp.get("status") if resp is not None else "no response"
        if status != "ok":
            problems.append(f"status {status}: {resp and resp.get('error')}")
        else:
            got = {c.get("job"): c for c in resp.get("cells", [])}
            if set(got) != self.expected(filt):
                problems.append("cell set differs from the reference")
            for job, cell in got.items():
                ref = self.cells.get(job)
                if cell.get("cell_status") != "ok" or ref is None:
                    problems.append(f"{job}: {cell.get('cell_status')}")
                elif (cell.get("cycles") != ref["cycles"] or
                      cell.get("output_digest") != ref["output_digest"]):
                    problems.append(f"{job}: cycles/digest mismatch")
                elif cell.get("cached") is not want_cached:
                    problems.append(f"{job}: cached={cell.get('cached')}")
        with self.lock:
            self.attempted += 1
            if status == "overload":
                self.refused += 1
            if problems:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{filt!r}: " + "; ".join(problems))
        return not problems

    def transport_error(self, filt, e):
        with self.lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{filt!r}: transport: {e}")

    def send(self, sock_path, filt, want_cached):
        """Request + check; returns (ok, raw response or None)."""
        try:
            resp, raw = request(sock_path, filt=filt)
        except (OSError, ServeError, ValueError) as e:
            self.transport_error(filt, e)
            return False, None
        return self.check(filt, resp, want_cached), raw


def warm_order(filters, seed):
    """Endless seeded request order: each round is a fresh permutation of
    the workload filters, so every filter is asked equally often."""
    rng = random.Random(seed)
    while True:
        round_ = list(filters)
        rng.shuffle(round_)
        yield from round_


def calibrate(ctx, samples=8):
    """Best time of the calibration kernel in ms, run on as many threads at
    once as dsa_serve has workers, and its nominal time. The daemon's
    speed depends on how much of the host its workers get at once, which
    a single thread would not see."""
    proc = subprocess.run([ctx.perfbench, "calibrate", "--samples",
                           str(samples), "--threads", str(DAEMON_WORKERS)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise ServeError("calibrate failed: " + proc.stderr[-2000:])
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    return rep["cal_ms"], rep["nominal_cal_ms"]


class _InFlight:
    """One outstanding request of a rate step."""

    def __init__(self, index, sock, slot):
        self.index = index
        self.sock = sock
        self.slot = slot
        self.buf = bytearray()
        self.need = 12  # header first, then the payload

    def feed(self, chunk):
        """Appends received bytes; returns (head, data) once the frame is
        complete, else None."""
        self.buf += chunk
        if len(self.buf) >= 12 and self.need == 12:
            self.need = 12 + frame_length(bytes(self.buf[:12]))
        if len(self.buf) >= self.need > 12:
            return bytes(self.buf[:12]), bytes(self.buf[12:self.need])
        return None


def run_step(checker, sock_path, offered, seconds, order):
    """One open-loop rate step: requests are due every 1/offered s. One
    thread sends each request at its due time, on its own connection, and
    collects the responses as they arrive, with at most IN_FLIGHT
    outstanding. Latency and lateness are both measured from the due time.
    Returns the samples."""
    count = max(1, int(offered * seconds))
    start = time.perf_counter() + 0.02
    samples = [rules.Sample(due=start + i / offered) for i in range(count)]
    filters = [next(order) for _ in range(count)]
    window_end = start + seconds + CUTOFF_S
    sel = selectors.DefaultSelector()
    free_slots = list(range(IN_FLIGHT))
    next_i = 0

    def finish(req, error=None, frame=None):
        sel.unregister(req.sock)
        req.sock.close()
        free_slots.append(req.slot)
        s = samples[req.index]
        s.done = time.perf_counter()
        f = filters[req.index]
        if frame is not None:
            try:
                resp, _ = decode_response(*frame)
            except (ServeError, ValueError) as e:
                error = e
            else:
                s.ok = checker.check(f, resp, True)
                return
        checker.transport_error(f, error)

    try:
        while next_i < count or sel.get_map():
            now = time.perf_counter()
            while (next_i < count and samples[next_i].due <= now and
                   free_slots):
                s = samples[next_i]
                if now > window_end:
                    next_i = count  # never sent: the step ended first
                    break
                slot = free_slots.pop()
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.sent = now
                try:
                    sock.connect(sock_path)
                    sock.sendall(encode_request("sweep", filters[next_i],
                                                f"{CLIENT}-{slot}"))
                except OSError as e:
                    sock.close()
                    free_slots.append(slot)
                    s.done = time.perf_counter()
                    checker.transport_error(filters[next_i], e)
                else:
                    sock.setblocking(False)
                    sel.register(sock, selectors.EVENT_READ,
                                 _InFlight(next_i, sock, slot))
                next_i += 1
                now = time.perf_counter()
            if next_i < count and free_slots:
                wait = max(0.0, samples[next_i].due - now)
            else:
                wait = 0.05
            for key, _ in sel.select(timeout=wait):
                req = key.data
                try:
                    chunk = req.sock.recv(65536)
                except BlockingIOError:
                    continue
                except OSError as e:
                    finish(req, error=e)
                    continue
                if not chunk:
                    finish(req, error=ServeError("connection closed"))
                    continue
                try:
                    frame = req.feed(chunk)
                except ServeError as e:
                    finish(req, error=e)
                    continue
                if frame is not None:
                    finish(req, frame=frame)
            now = time.perf_counter()
            for key in list(sel.get_map().values()):
                req = key.data
                if now - samples[req.index].sent > REQUEST_TIMEOUT_S:
                    finish(req, error=ServeError("response timed out"))
    finally:
        for key in list(sel.get_map().values()):
            key.data.sock.close()
        sel.close()
    return samples


def run(ctx):
    """Runs the workload; returns (end-to-end metrics, per-layer metrics or
    {} when untraced, the Checker with the correctness tally, summary
    lines)."""
    run_dir = ctx.run_dir
    ref_proc = subprocess.run([ctx.perfbench, "serve-ref"], capture_output=True,
                              text=True, timeout=170)
    if ref_proc.returncode != 0:
        raise ServeError("serve-ref failed: " + ref_proc.stderr[-2000:] +
                         ref_proc.stdout[-2000:])
    reference = json.loads(ref_proc.stdout.strip().splitlines()[-1])
    checker = Checker(reference)
    workloads = sorted({c["workload"] for c in reference["cells"]})
    filters = [w + "@" for w in workloads]
    retired = sum(c["retired"] for c in reference["cells"])
    sock_path = os.path.join(run_dir, "d.sock")
    log_path = os.path.join(run_dir, "dsa_serve.log")

    setup_s, cold_s = [], []
    daemon = None
    lines = []
    out = {}
    try:
        cal, nominal = calibrate(ctx)
        cals = [cal]
        order = warm_order(filters, ctx.seed)
        warm_samples = []
        cold_end = time.perf_counter() + COLD_SHARE * ctx.seconds
        cache_dir = None
        while len(cold_s) < MIN_SETUPS or time.perf_counter() < cold_end:
            if daemon is not None:
                code = daemon.stop()
                if code != 3:
                    raise ServeError(f"dsa_serve drained with exit {code}")
                shutil.rmtree(cache_dir, ignore_errors=True)
            cache_dir = os.path.join(run_dir, f"cache{len(cold_s)}")
            shutil.rmtree(cache_dir, ignore_errors=True)
            daemon = Daemon(ctx.dsa_serve, sock_path, cache_dir, log_path)
            setup_s.append(daemon.start())
            t0 = time.perf_counter()
            for f in filters:
                checker.send(sock_path, f, False)
            cold_s.append(time.perf_counter() - t0)
            warm_samples += run_step(
                checker, sock_path,
                REPORT_RATE * rules.host_scale(cals, nominal),
                WARM_SEGMENT_S, order)
            cals.append(calibrate(ctx)[0])

        # Warm-up: one cached request per filter, response kept for the
        # traced replay.
        responses = {}
        for i, f in enumerate(filters):
            ok, raw = checker.send(sock_path, f, True)
            if ok:
                path = os.path.join(run_dir, f"response{i}.json")
                with open(path, "wb") as fh:
                    fh.write(raw)
                responses[f] = path
        health_before, _ = request(sock_path, kind="health")

        unloaded = []
        if ctx.trace:
            # Unloaded: one request at a time, 20 ms apart.
            for _ in range(2):
                for f in filters:
                    time.sleep(0.02)
                    t0 = time.perf_counter()
                    ok, _ = checker.send(sock_path, f, True)
                    unloaded.append((time.perf_counter() - t0) * 1000.0
                                    if ok else float("inf"))
        step_samples = []
        for rate in LADDER:
            offered = rate * rules.host_scale(cals, nominal)
            step_samples.append(run_step(checker, sock_path, offered,
                                         (1 - COLD_SHARE) * ctx.seconds *
                                         STEP_SHARE[rate],
                                         order))
            cals.append(calibrate(ctx)[0])
        health_after, _ = request(sock_path, kind="health")
        out["peak_rss_mb"] = daemon.vm_hwm_mb()
    finally:
        if daemon is not None:
            code = daemon.stop()
            if code != 3:
                checker.failed += 1
                checker.attempted += 1
                checker.errors.append(f"dsa_serve drained with exit {code}")

    # Set-up and cold pass repeat the same work: best of their repetitions.
    scale = rules.host_scale(cals, nominal)
    steps = [rules.summarize_step(rate, samples, scale)
             for rate, samples in zip(LADDER, step_samples)]
    warm = rules.summarize_step(REPORT_RATE, warm_samples, scale)
    cold_best = min(cold_s) * scale
    out.update({
        "setup_s": min(setup_s) * scale,
        "sim_mips": retired / cold_best / 1e6,
        "cold_sweep_s": cold_best,
        "warm.p50_ms": warm.p50_ms,
        "warm.p90_ms": warm.p90_ms,
        "max_rate_rps": rules.max_rate(steps),
    })
    lines.append(f"fingerprint serve seed={ctx.seed}: {reference['fingerprint']}"
                 f" ({len(reference['cells'])} cells)")
    lines.append(f"host scale {scale:.4f} (calibration best {min(cals):.3f} "
                 f"ms, median {rules.median(cals):.3f} ms over {len(cals)}, "
                 f"nominal {nominal} ms); unscaled set-up best "
                 f"{min(setup_s) * 1000:.3f} ms, cold pass "
                 f"best {min(cold_s):.4f} s, median {rules.median(cold_s):.4f} "
                 f"s over {len(cold_s)} passes")
    lines.append(f"warm segments at {REPORT_RATE} req/s: {warm.sent} requests "
                 f"on {len(cold_s)} daemons, unscaled p50 "
                 f"{warm.p50_ms / scale:.3f} ms, p90 {warm.p90_ms / scale:.3f} ms,"
                 f" late p99 {warm.late_p99_ms:.2f} ms")
    lines.append("ladder  rate  sent/sched  p50_ms  p90_ms  "
                 "late_p99_ms  backlog_grew  met")
    for s in steps:
        lines.append(f"ladder {s.rate:5.0f}  {s.sent:4d}/{s.scheduled:<4d}"
                     f"  {s.p50_ms:7.2f} {s.p90_ms:7.2f} {s.late_p99_ms:9.2f}"
                     f"    {str(s.backlog_grew):5s}      {s.met}")

    layers = {}
    if ctx.trace:
        layers = traced_layers(ctx, checker, filters, responses, unloaded,
                               warm, steps, out, rules.median(cold_s),
                               health_before, health_after)
    return out, layers, checker, lines


def traced_layers(ctx, checker, filters, responses, unloaded, warm, steps,
                  out, cold_s, health_before, health_after):
    """Per-layer metrics in unscaled host time: the replay runs in another
    process, so the daemon's times are taken as measured too. `cold_s` is
    the unscaled median cold pass."""
    run_dir = ctx.run_dir
    req_path = os.path.join(run_dir, "replay.tsv")
    with open(req_path, "w") as fh:
        for f in filters:
            fh.write(f"cold\t{f}\n")
        order = warm_order(filters, ctx.seed)
        for _ in range(2 * len(filters)):
            f = next(order)
            if f in responses:
                fh.write(f"warm\t{f}\t{responses[f]}\n")
    cache_dir = os.path.join(run_dir, "replay_cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    proc = subprocess.run([ctx.perfbench, "serve-replay", "--requests",
                           req_path, "--cache", cache_dir, "--out", run_dir],
                          capture_output=True, text=True, timeout=170)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ServeError(f"serve-replay exited {proc.returncode} without a "
                         "report: " + proc.stderr[-2000:])
    with checker.lock:
        checker.attempted += 1
        if proc.returncode != 0:
            checker.failed += 1
            checker.errors.extend(report.get("errors", [])[:10])
    replay = report["layers"]

    def cache_delta(key):
        return (health_after["cache"][key] - health_before["cache"][key])

    hits, misses = cache_delta("hits"), cache_delta("misses")
    unloaded_p50 = rules.percentile(unloaded, 50)
    steps_ms = sum(replay[k] for k in ("serve.sweep_jobs_ms",
                                       "serve.key_digest_ms",
                                       "serve.cache_load_ms",
                                       "serve.frame_ms"))
    cold_steps_ms = sum(replay[k] for k in ("serve.cold_sweep_jobs_ms",
                                            "serve.cold_key_digest_ms",
                                            "serve.simulate_ms",
                                            "serve.cache_store_ms"))
    met = [s for s in steps if s.rate <= out["max_rate_rps"]] or steps[:1]
    p50_ms = warm.p50_ms / warm.scale
    layers = dict(replay)
    layers.update({
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0,
        "serve.unloaded_p50_ms": unloaded_p50,
        "serve.unattributed_ms": unloaded_p50 - steps_ms,
        "serve.queue_wait_ms": p50_ms - unloaded_p50,
        "serve.cold_unattributed_ms": cold_s * 1000 - cold_steps_ms,
        "cold_sweep_ms": cold_s * 1000,
        "serve.refused": checker.refused,
        "client.late_p99_ms": max(s.late_p99_ms for s in met),
        # The warm request at the reported rate, as the buckets above
        # split it: replayed steps + unattributed + queue wait.
        "trace.wall_ms": p50_ms,
    })
    return layers
