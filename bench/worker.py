"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py <manifest.json> <result.json> <mode>

mode is ``pass`` (run every item), ``trace`` (run every item with the tracer
installed) or ``setup`` (stop where the first item would start).  The result
file records the monotonic time at which the first item started, so that the
parent can measure set-up from process spawn, plus item latencies, per-item
correctness, output digests, the pass wall time and peak RSS.

Every duration is also reported at reference speed (the ``scaled_*`` and
``*_scale`` fields).  Each vCPU of the machine the benchmark was built on
switches, every few seconds, between full speed and about 1.7 times slower,
and the share of slow time drifts over minutes, so raw times of identical
passes spread by a third.  A timer signal therefore runs a fixed probe of
pure-Python work every ``SAMPLE_INTERVAL_S`` while the pass runs, and an
interval's duration is multiplied by ``REFERENCE_PROBE_NS`` over the mean
probe time sampled inside it: the time the interval would have taken with
the probe at its reference duration.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from uctbench import cli  # noqa: E402  (the package import is part of set-up)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


SAMPLE_INTERVAL_S = 0.02
# An interval with fewer samples inside it than this (an item shorter than
# a tenth of a second) is scaled by this many samples nearest to it; the
# speed changes over seconds, not within a tenth of one.
MIN_SAMPLES = 5
# Probe time at full speed on the baseline machine (the lower quartile of
# the samples of a pass, bench/BASELINE.md), so that scaled times read as
# seconds on that machine at full speed.
REFERENCE_PROBE_NS = 35_000


def _probe_work() -> int:
    a = [[(i * 31 + j * 17) % 97 - 48 for j in range(6)] for i in range(6)]
    return sum(sum(x * y for x, y in zip(r, c)) for r in a for c in a)


class SpeedSampler:
    """Probe times sampled while the process runs, by a timer signal."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []  # (perf_counter_ns, probe ns)

    def sample(self, signum=None, frame=None) -> None:
        # The faster of two probes, so that one interrupted probe is not
        # taken for a slow machine.
        t0 = time.perf_counter_ns()
        _probe_work()
        t1 = time.perf_counter_ns()
        _probe_work()
        t2 = time.perf_counter_ns()
        self.samples.append((t0, min(t1 - t0, t2 - t1)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: int, end: int) -> float:
        """Reference probe time over the mean probe time sampled in
        [start, end], or over the MIN_SAMPLES samples nearest to its middle
        when fewer fall inside it."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_right(self.samples, (end, math.inf))
        if hi - lo < MIN_SAMPLES:
            mid = (start + end) // 2
            near = self.samples[max(0, lo - MIN_SAMPLES):hi + MIN_SAMPLES]
            near.sort(key=lambda s: abs(s[0] - mid))
            return REFERENCE_PROBE_NS / statistics.fmean(ns for _, ns in near[:MIN_SAMPLES])
        return REFERENCE_PROBE_NS / statistics.fmean(ns for _, ns in self.samples[lo:hi])


class _ItemLog:
    """Start, end and failure of each item, in run order."""

    def __init__(self, tracer) -> None:
        self.spans: list[tuple[int, int]] = []
        self.failed: list[bool] = []
        self.tracer = tracer

    def start(self) -> int:
        if self.tracer is not None:
            self.tracer.item = len(self.spans)
        return time.perf_counter_ns()

    def stop(self, start: int, failed: bool) -> None:
        self.spans.append((start, time.perf_counter_ns()))
        self.failed.append(failed)


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _call(fn):
    return fn()


def _timed_suite(log: _ItemLog, builder, item_checks, call):
    """Wrap a suite builder so that each suite item is timed as one item and
    run through ``call``.  An item fails when it reports an error, raises, or
    runs a number of checks other than its closed form (when the suite has
    one)."""

    def build(bound, seed):
        items = builder(bound, seed)

        def timed(fn, index):
            def run():
                start = log.start()
                try:
                    checks, err = call(fn)
                except Exception as exc:  # recorded as a failed item
                    log.stop(start, True)
                    return 0, f"raised {type(exc).__name__}: {exc}"
                wrong = (item_checks is not None
                         and (index >= len(item_checks) or checks != item_checks[index]))
                log.stop(start, err is not None or wrong)
                return checks, err
            return run

        return [(key, timed(fn, i)) for i, (key, fn) in enumerate(items)]

    return build


def run_entries(entries: list[dict], tracer=None) -> dict:
    """Run every entry once; return latencies, failures and output digests,
    and the perf-counter span of the pass and of each item."""
    log = _ItemLog(tracer)
    call = _call if tracer is None else tracer.wrap(tracing.SUITE_ITEM, _call)
    digests = []
    outputs = []  # (entry, rc, out, first item index, item count)
    wall_start = time.perf_counter_ns()
    for entry in entries:
        first = len(log.spans)
        if entry["kind"] == "suite":
            name = entry["suite"]
            builder = cli.SUITES[name]
            cli.SUITES[name] = _timed_suite(log, builder, entry["expect"]["item_checks"], call)
            try:
                rc, out = _run_cli(entry["argv"])
            except Exception as exc:  # the suite as a whole failed
                rc, out = -1, f"raised {type(exc).__name__}: {exc}"
            finally:
                cli.SUITES[name] = builder
        else:
            start = log.start()
            try:
                rc, out = _run_cli(entry["argv"])
            except Exception as exc:  # recorded as a failed item
                rc, out = -1, f"raised {type(exc).__name__}: {exc}"
            log.stop(start, False)
        outputs.append((entry, rc, out, first, len(log.spans) - first))
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    wall_end = time.perf_counter_ns()

    failed = list(log.failed)
    attempted = len(failed)
    for entry, rc, out, first, count in outputs:
        if entry["kind"] == "cli":
            failed[first] = failed[first] or not workloads.check_cli(entry, rc, out)
            continue
        want = entry["expect"]
        if not (workloads.check_suite(entry, rc, out) and count == want["items"]):
            missing = max(want["items"] - count, 0)
            failed[first:first + count] = [True] * count
            failed += [True] * missing
            attempted += missing
    return {"wall_ns": wall_end - wall_start,
            "latency_ns": [end - start for start, end in log.spans],
            "wall_span": (wall_start, wall_end), "item_spans": log.spans,
            "attempted": attempted, "failed": sum(failed), "digests": digests}


def main(argv: list[str]) -> int:
    manifest_path, result_path, mode = argv
    sampler = SpeedSampler()
    sampler.sample()
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sampler.sample()
    # Set-up is too short for the timer: its scale comes from the two
    # samples around reading the manifest, just before the first item.
    first_item_ns = time.monotonic_ns()
    result: dict = {"first_item_ns": first_item_ns,
                    "setup_scale": sampler.scale(0, time.perf_counter_ns())}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
        sampler.start()
        try:
            result.update(run_entries(manifest["entries"], tracer))
        finally:
            sampler.stop()
        start, end = result.pop("wall_span")
        result["scaled_wall_ns"] = result["wall_ns"] * sampler.scale(start, end)
        result["scaled_latency_ns"] = [(end - start) * sampler.scale(start, end)
                                       for start, end in result.pop("item_spans")]
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()
            if manifest.get("spans_path"):
                tracer.write(manifest["spans_path"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
