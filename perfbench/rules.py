"""Statistics and open-loop rules of the benchmark, kept free of I/O so the
benchmark's own tests (perfbench/tests) can pin them down.

Times are seconds on one monotonic clock unless a name ends in ``_ms``.
"""

import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence

# A warm request meets its latency limit when it completes within this many
# milliseconds of its due time.
P90_LIMIT_MS = 50.0
# A rate step is invalid when the generator sent its requests later than
# this, at the 99th percentile.
LATE_LIMIT_MS = 20.0
# The backlog grew when its mean over the last third of a step exceeds the
# mean over the first third by more than this many requests.
BACKLOG_SLACK = 1.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it. p in (0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def host_scale(cal_ms: Sequence[float], nominal_ms: float) -> float:
    """Host-speed calibration of a run: nominal_ms over the fastest time of
    the calibration kernel, sampled all through the run. The host flips
    between a fast and a slow state; the fastest kernel run is the one that
    ran in the fast state, however the run's time was split between the
    two. Times multiplied by the scale read as at the nominal host speed:
    on a host running at half speed both a time and the kernel's time
    double, and the product stays put."""
    if not cal_ms or any(c <= 0 for c in cal_ms):
        raise ValueError("calibration times must be positive")
    return nominal_ms / min(cal_ms)


@dataclass
class Sample:
    """One scheduled request of an open-loop step."""
    due: float
    sent: Optional[float] = None  # None: never sent (the step ended first)
    done: Optional[float] = None  # None: no response
    ok: bool = False              # response arrived and was correct

    def latency_ms(self) -> float:
        """From the due time, so a stall also charges every request it
        delayed. A request that failed or never completed misses every
        limit."""
        if not self.ok or self.done is None:
            return math.inf
        return (self.done - self.due) * 1000.0

    def late_ms(self) -> Optional[float]:
        return None if self.sent is None else (self.sent - self.due) * 1000.0


def backlog_series(samples: Sequence[Sample]) -> List[int]:
    """Requests due but not yet answered, sampled at each due time."""
    dues = sorted(s.due for s in samples)
    dones = sorted(s.done for s in samples if s.done is not None)
    series = []
    answered = 0
    for i, t in enumerate(dues):
        while answered < len(dones) and dones[answered] <= t:
            answered += 1
        series.append(i + 1 - answered)
    return series


def backlog_grew(series: Sequence[int]) -> bool:
    third = len(series) // 3
    if third == 0:
        return False
    first = sum(series[:third]) / third
    last = sum(series[-third:]) / third
    return last - first > BACKLOG_SLACK


@dataclass
class StepResult:
    rate: float
    scheduled: int
    sent: int
    failed: int
    p50_ms: float
    p90_ms: float
    late_p99_ms: float
    backlog_grew: bool
    scale: float = 1.0  # host-speed scale applied to p50_ms and p90_ms

    @property
    def generator_late(self) -> bool:
        return self.late_p99_ms > LATE_LIMIT_MS

    @property
    def met(self) -> bool:
        return (self.p90_ms <= P90_LIMIT_MS and not self.backlog_grew
                and not self.generator_late)


def summarize_step(rate: float, samples: Sequence[Sample],
                   scale: float = 1.0) -> StepResult:
    """Latency percentiles are multiplied by `scale`, the run's host-speed
    calibration; lateness is the generator's own real time."""
    latencies = [s.latency_ms() * scale for s in samples]
    late = [x for x in (s.late_ms() for s in samples) if x is not None]
    sent = [s for s in samples if s.sent is not None]
    return StepResult(
        rate=rate,
        scheduled=len(samples),
        sent=len(sent),
        failed=sum(1 for s in sent if not s.ok),
        p50_ms=percentile(latencies, 50),
        p90_ms=percentile(latencies, 90),
        late_p99_ms=percentile(late, 99) if late else math.inf,
        backlog_grew=backlog_grew(backlog_series(samples)),
        scale=scale,
    )


def max_rate(steps: Sequence[StepResult]) -> float:
    """Highest ladder rate met with every lower rate met too; 0 if the
    lowest rate already fails."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if not step.met:
            break
        best = step.rate
    return best
