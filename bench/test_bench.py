"""Self-tests of the benchmark: tracer bindings, span accounting, speed
scaling, traced output identity, the output gate, and the traced run of
every workload.

Run from the repository root:  python3 -m unittest bench/test_bench.py
(the last test runs each workload's traced pass once; about 70 s in all).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from uctbench import amod, cli, crossring, green, preset_group, target_category, zlinalg  # noqa: E402,E501


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, argv
    return buf.getvalue()


class TracerBindings(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        before = tracing.untraced_bindings()
        for name in ("uctbench.amod.congruence_kernel", "uctbench.amod.cokernel",
                     "uctbench.crossring.cyclic_classes", "uctbench.green.evaluate_at_root",
                     "uctbench.green.psi", "uctbench.cli.target_category",
                     "uctbench.cli.uct_order", "uctbench.amod.ExactSolver.solve"):
            self.assertIn(name, before)
        t = tracing.Tracer()
        t.install()
        try:
            self.assertEqual(tracing.untraced_bindings(), [])
            for fn in (amod.congruence_kernel, amod.cokernel, crossring.cyclic_classes,
                       green.evaluate_at_root, green.psi, cli.frobenius_check,
                       zlinalg.ExactSolver.__init__, crossring.CrossedElt.__rmul__):
                self.assertTrue(hasattr(fn, "__wrapped_original__"), fn)
        finally:
            t.uninstall()
        self.assertEqual(tracing.untraced_bindings(), before)

    def test_calls_through_foreign_bindings_are_recorded(self):
        t = tracing.Tracer()
        t.install()
        try:
            _cli(["target-category", "preset:symmetric(3)", "--json"])
            _cli(["verify", "characters", "--max-n", "6"])
            _cli(["verify", "frobenius", "--max-n", "4"])
            summand = target_category(preset_group("cyclic(2)")).flat_summands()[0]
            module = amod.AModObject.build(summand, degree0=((3,), ()))
            amod.ext_group(module, module)
        finally:
            t.uninstall()
        layers = t.summary()["layers"]
        for name in ("groups.cyclic_classes", "cyclotomic.evaluate_at_root",
                     "cyclotomic.psi", "zlinalg.congruence_kernel", "zlinalg.cokernel",
                     "zlinalg.ExactSolver.solve", "green.frobenius_check"):
            self.assertGreater(layers[name]["calls"], 0, name)


class SpanAccounting(unittest.TestCase):
    def test_self_times_partition_top_level_time(self):
        t = tracing.Tracer()

        def leaf(n):
            return sum(range(n))

        traced_leaf = t.wrap("leaf", leaf)

        def outer():
            return traced_leaf(20000) + traced_leaf(30000) + sum(range(10000))

        t.wrap("outer", outer)()
        summary = t.summary()
        spans = t.spans()
        self.assertEqual(summary["spans"], 3)
        outer_span = spans[0]
        self.assertEqual([s[3] for s in spans], [-1, 0, 0])
        total_self = sum(r["self_ns"] for r in summary["layers"].values())
        self.assertEqual(total_self, outer_span[2] - outer_span[1])
        self.assertEqual(summary["top_level_ns"], outer_span[2] - outer_span[1])
        self.assertEqual(summary["layers"]["leaf"]["calls"], 2)

    def test_kernel_shapes(self):
        t = tracing.Tracer()
        t.install({"zlinalg.IntMatrix.matmul": tracing.TARGETS["zlinalg.IntMatrix.matmul"],
                   "zlinalg.cokernel": tracing.TARGETS["zlinalg.cokernel"]})
        try:
            a = zlinalg.IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
            b = zlinalg.IntMatrix.from_rows([[1], [0], [1]])
            a @ b
            zlinalg.cokernel([(2, 0), (0, 3), (1, 1)], 2)
        finally:
            t.uninstall()
        layers = t.summary()["layers"]
        self.assertEqual(layers["zlinalg.IntMatrix.matmul"]["cells"], 6 + 3)
        self.assertEqual(layers["zlinalg.IntMatrix.matmul"]["max_dim"], 3)
        self.assertEqual(layers["zlinalg.cokernel"]["cells"], 6)


class SpeedScaling(unittest.TestCase):
    def test_interval_is_scaled_by_the_samples_near_it(self):
        ref = worker.REFERENCE_PROBE_NS
        self.assertEqual(worker.MIN_SAMPLES, 5)
        s = worker.SpeedSampler()
        s.samples = [(t, ref) for t in range(0, 50, 10)] + [(t, 3 * ref) for t in range(50, 100, 10)]
        self.assertEqual(s.scale(0, 40), 1.0)
        self.assertEqual(s.scale(50, 95), 1 / 3)
        self.assertEqual(s.scale(20, 70), 0.5)
        # fewer than five samples inside: the five nearest to the middle
        self.assertEqual(s.scale(12, 13), 1.0)
        self.assertEqual(s.scale(44, 46), 5 / 9)
        self.assertEqual(s.scale(500, 600), 1 / 3)

    def test_sampler_leaves_output_unchanged_and_stops(self):
        import signal

        argv = ["verify", "characters", "--max-n", "30", "--json"]
        plain = _cli(argv)
        s = worker.SpeedSampler()
        s.start()
        try:
            sampled = _cli(argv)
        finally:
            s.stop()
        self.assertEqual(sampled, plain)
        self.assertGreater(len(s.samples), 2)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class OutputIdentity(unittest.TestCase):
    def test_traced_and_untraced_outputs_are_byte_identical(self):
        argvs = [["target-category", "preset:dihedral(6)", "--json"],
                 ["verify", "crt", "--max-n", "8", "--seed", "3", "--json"],
                 ["verify", "crossed-relations", "--max-n", "6", "--json"]]
        plain = [_cli(a) for a in argvs]
        t = tracing.Tracer()
        t.install()
        try:
            traced = [_cli(a) for a in argvs]
        finally:
            t.uninstall()
        self.assertEqual(plain, traced)


class OutputGate(unittest.TestCase):
    def setUp(self):
        self.tmp = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)

    def tearDown(self):
        import shutil

        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_closed_form_matches_and_mismatch_counts_as_failure(self):
        entries = workloads.generate("hom-ext", 7, self.tmp)
        small = [e for e in entries if "klein_four" in e["label"]][:3]
        got = worker.run_entries(small)
        self.assertEqual((got["attempted"], got["failed"]), (3, 0))
        wrong = json.loads(json.dumps(small))
        wrong[0]["expect"]["degree0"]["kk_order"] += 1
        got = worker.run_entries(wrong)
        self.assertEqual((got["attempted"], got["failed"]), (3, 1))

    def test_suite_item_checks_and_totals(self):
        entry = workloads._suite_entry("crt", 30, 5)
        got = worker.run_entries([entry])
        self.assertEqual((got["attempted"], got["failed"]), (130, 0))
        bad = json.loads(json.dumps(entry))
        bad["expect"]["item_checks"][3] += 1
        got = worker.run_entries([bad])
        self.assertEqual((got["attempted"], got["failed"]), (130, 1))
        bad = json.loads(json.dumps(entry))
        bad["expect"]["checks"] += 1
        got = worker.run_entries([bad])
        self.assertEqual((got["attempted"], got["failed"]), (130, 130))

    def test_closed_form_check_counts_match_pinned_totals(self):
        for (suite, bound), (items, checks) in workloads.PINNED_SUITES.items():
            per_item = workloads.suite_item_checks(suite, bound)
            if per_item is not None:
                self.assertEqual((len(per_item), sum(per_item)), (items, checks), suite)


class TracedWorkloads(unittest.TestCase):
    def test_should_move_layers_record_calls(self):
        for workload in ("hom-ext", "verify", "rings"):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"], proc.stdout)
            metrics = result["metrics"]
            for name in run.SHOULD_MOVE[workload]:
                self.assertGreater(metrics[f"{name}.calls"]["value"], 0, (workload, name))
            self.assertIn("coverage:", proc.stdout)
            self.assertGreater(metrics["trace.top_level_share"]["value"], 0.9)


if __name__ == "__main__":
    unittest.main()
