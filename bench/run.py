"""uctbench benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload {hom-ext,verify,rings} --seed N \
        --seconds S --trace {0,1}

The run writes the workload's seeded inputs under ``.bench_work/``, then
measures for about S seconds.  Every pass over the workload's items runs in a
fresh interpreter (``bench/worker.py``), so module caches start cold as they
do for a ``workbench`` user; passes run one after another, never in parallel.
Extra interpreters that stop where the first item would start give more
set-up samples.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics (medians over passes).  Their times are
at reference speed: each interval is scaled by a probe of the machine's
speed sampled while it runs (see ``bench/worker.py``), because the raw times
of identical passes on a shared vCPU spread by a third.  With ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones
from the traced passes, plus the tracing overhead and the coverage check.
Spans of the last traced pass are written to ``.bench_trace/``.  The exit
code is 0 whenever a result is printed; ``correct`` is false when any item's
output differs from its independently computed expected value.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")

SETUP_PROBES = 10
RUN_LIMIT_S = 150  # every child is stopped before the run exceeds this
COVERAGE_TOLERANCE = 0.10

# Layers whose calls must be non-zero in the traced run of each workload:
# the "should move" map of the layers to the end-to-end metrics.
SHOULD_MOVE = {
    "hom-ext": ("zlinalg.hnf", "zlinalg.snf", "zlinalg.congruence_kernel",
                "zlinalg.cokernel", "zlinalg.ExactSolver.init",
                "zlinalg.ExactSolver.solve", "amod.ext_group", "amod.hom_group",
                "amod.validate", "amod.uct_order", "amod.family_from_json",
                "amod.presentation_of", "cli.main"),
    "verify": ("green.char_solve", "green.restrict", "green.induce",
               "green.descend", "green.frobenius_check",
               "cyclotomic.evaluate_at_root", "cyclotomic.psi",
               "cyclotomic.crt_split", "cyclotomic.crt_join", "cli.main",
               "cli.suite_item"),
    "rings": ("zlinalg.IntMatrix.matmul", "groups.preset_group",
              "groups.group_from_table", "groups.cyclic_classes",
              "crossring.target_category", "crossring.split_ring",
              "crossring.splitting_idempotents",
              "crossring.regular_representation", "crossring.CrossedElt.mul",
              "cli.main", "cli.suite_item"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("WORKBENCH_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Spawns worker interpreters, one at a time, within the run's deadline."""

    def __init__(self, workdir: str, manifest: str) -> None:
        self.workdir = workdir
        self.manifest = manifest
        self.count = 0
        self.started = time.monotonic()

    def spawn(self, mode: str) -> dict:
        self.count += 1
        out = os.path.join(self.workdir, f"result{self.count}.json")
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise BenchError("run time limit reached")
        spawn_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, self.manifest, out, mode],
                cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=budget, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass exceeded the run time limit") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_ns"] = result["first_item_ns"] - spawn_ns
        return result


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _measure(runner: Runner, seconds: float, modes: tuple[str, ...]) -> list[list[dict]]:
    """Run rounds of passes (one pass per mode) while the next round, taken
    to last as long as the previous one, ends within the measured time;
    always at least one round."""
    start = time.monotonic()
    rounds: list[list[dict]] = []
    while True:
        round_start = time.monotonic()
        rounds.append([runner.spawn(mode) for mode in modes])
        now = time.monotonic()
        if (now - start) + (now - round_start) > seconds:
            return rounds


def end_to_end(setups: list[dict], passes: list[dict], tail_p: int) -> dict:
    latencies = [ns / 1e9 for p in passes for ns in p["scaled_latency_ns"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": _metric(statistics.median(
            r["setup_ns"] * r["setup_scale"] / 1e9 for r in setups + passes), "s"),
        "wall_s": _metric(statistics.median(p["scaled_wall_ns"] / 1e9 for p in passes), "s"),
        "item_p50_s": _metric(statistics.median(latencies), "s"),
        "item_tail_s": _metric(_percentile(latencies, tail_p), "s"),
        "peak_rss_mb": _metric(statistics.median(
            p["peak_rss_kb"] / 1024 for p in passes), "MB"),
        "pass_ratio": _metric((attempted - failed) / attempted, "ratio"),
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and the problems found."""
    import tracer as tracing

    problems = []
    metrics = {}
    # Self times are brought to reference speed with their pass's factor.
    scales = [t["scaled_wall_ns"] / t["wall_ns"] for t in traced]
    for name in tracing.LAYERS:
        rows = [t["trace"]["layers"][name] for t in traced]
        metrics[f"{name}.calls"] = _metric(statistics.median(r["calls"] for r in rows), "count")
        metrics[f"{name}.self_s"] = _metric(statistics.median(
            r["self_ns"] * f / 1e9 for r, f in zip(rows, scales)), "s")
        if name in tracing.KERNELS:
            metrics[f"{name}.cells"] = _metric(
                statistics.median(r["cells"] for r in rows), "count")
            metrics[f"{name}.max_dim"] = _metric(max(r["max_dim"] for r in rows), "count")
    for name in SHOULD_MOVE[workload]:
        if metrics[f"{name}.calls"]["value"] == 0:
            problems.append(f"{name} was never called")

    ratios, shares = [], []
    for t in traced:
        wall = t["wall_ns"]
        summary = t["trace"]
        self_total = sum(r["self_ns"] for r in summary["layers"].values())
        ratios.append((self_total + wall - summary["top_level_ns"]) / wall)
        shares.append(summary["top_level_ns"] / wall)
    accounted = statistics.median(ratios)
    ok = abs(accounted - 1) <= COVERAGE_TOLERANCE
    if not ok:
        problems.append(f"layer self times account for {accounted:.3f} of traced wall")
    plain_wall = statistics.median(p["scaled_wall_ns"] / 1e9 for p in plain)
    traced_wall = statistics.median(t["scaled_wall_ns"] / 1e9 for t in traced)
    metrics["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    metrics["trace.top_level_share"] = _metric(statistics.median(shares), "ratio")
    print(f"coverage: layer self times plus the untraced remainder are {accounted:.4f}"
          f" of traced wall ({'within' if ok else 'outside'} {COVERAGE_TOLERANCE:.0%});"
          f" traced calls cover {statistics.median(shares):.4f} of it")
    print(f"tracing overhead: {traced_wall - plain_wall:.3f} s"
          f" (traced wall {traced_wall:.3f} s, untraced {plain_wall:.3f} s,"
          f" at reference speed)")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("hom-ext", "verify", "rings"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the running worker is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "uctbench", "__init__.py")):
        print(f"error: no uctbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        entries = workloads.generate(args.workload, args.seed, workdir)
        spans_path = None
        if args.trace:
            trace_dir = os.path.join(ROOT, ".bench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            spans_path = os.path.join(trace_dir, f"{args.workload}-{args.seed}.tsv")
        manifest = os.path.join(workdir, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"entries": entries, "spans_path": spans_path}, fh)

        runner = Runner(workdir, manifest)
        tail_p = workloads.tail_percentile(workloads.items_per_pass(entries))
        if args.trace:
            rounds = _measure(runner, args.seconds, ("pass", "trace"))
            plain = [r[0] for r in rounds]
            traced = [r[1] for r in rounds]
            metrics, problems = per_layer(args.workload, plain, traced)
        else:
            setups = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
            plain = [r[0] for r in _measure(runner, args.seconds, ("pass",))]
            metrics = end_to_end(setups, plain, tail_p)
            problems = []
            traced = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if any(p["digests"] != plain[0]["digests"] for p in passes):
        problems.append("outputs differ between passes")
    if failed:
        problems.append(f"{failed} of {attempted} items failed their check")
    walls = ", ".join(f"{p['wall_ns'] / 1e9:.3f} ({p['scaled_wall_ns'] / 1e9:.3f})"
                      for p in plain)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced passes"
          f" (wall s, at reference speed in brackets: {walls}), {len(traced)} traced;"
          f" {workloads.items_per_pass(entries)} items per pass, tail percentile p{tail_p}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
