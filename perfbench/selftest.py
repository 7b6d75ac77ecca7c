#!/usr/bin/env python3
"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Checks that a seed gives byte-identical instance files, that every stored
case meets the hardness rules, and that self time comes out right on a
synthetic nest of spans.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import client  # noqa: E402
import workloads  # noqa: E402
from coalition_bribery.generators import POLYNOMIAL_VARIANTS  # noqa: E402
from coalition_bribery.instance_io import serialize_instance  # noqa: E402
from coalition_bribery.oracle import oracle_solve  # noqa: E402
from run import WORKLOADS, expected_file  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

ENTRIES = {w: workloads.load_entries(expected_file(w, workloads.POOL_SEED))
           for w in WORKLOADS}


def request_files(workload: str, seed: int) -> list[tuple[str, bytes]]:
    with tempfile.TemporaryDirectory() as tmp:
        requests = client.make_requests(workload, ENTRIES[workload], Path(tmp), seed,
                                         write=True)
        return [(Path(r.path).name + ":" + r.command, Path(r.path).read_bytes())
                for r in requests]


class Determinism(unittest.TestCase):
    def test_same_seed_same_bytes_and_order(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = request_files(workload, 5)
                self.assertEqual(first, request_files(workload, 5))
                other = request_files(workload, 6)
                self.assertNotEqual([n for n, _ in first], [n for n, _ in other])
                self.assertEqual(sorted(first), sorted(other))

    def test_random_keys_rebuild_identically(self):
        entry = ENTRIES["poly-scale"][0]
        texts = {serialize_instance(workloads.build(entry)) for _ in range(3)}
        self.assertEqual(len(texts), 1)


class Hardness(unittest.TestCase):
    def test_goals_unmet_at_zero_and_budgets_positive(self):
        for workload, entries in ENTRIES.items():
            for entry in entries:
                with self.subTest(case=workloads.case_name(entry)):
                    self.assertTrue(workloads.unmet_at_zero(workloads.build(entry)))
                    pairs = workloads.budgets(entry)
                    self.assertTrue(all(b >= 1 for b, _ in pairs))
                    if "fixed" not in entry:
                        self.assertGreaterEqual(entry["opt"], 2)
                        self.assertEqual(len(pairs), 2)

    def test_every_prescribed_cell_is_present(self):
        cells = {e["cell"] for e in ENTRIES["poly-scale"]}
        self.assertEqual(cells, {v.label() for v in POLYNOMIAL_VARIANTS})
        cells = {e["cell"] for e in ENTRIES["small-stream"]}
        self.assertEqual(cells, {v.label() for v in POLYNOMIAL_VARIANTS})
        cells = {e.get("cell") for e in ENTRIES["np-hard"]} - {None}
        self.assertEqual(cells, {v.label() for v in workloads.ORACLE_VARIANTS})

    def test_stored_small_stream_optima(self):
        # Every 12th tiny case: enough to catch a stale file, a few seconds.
        for entry in ENTRIES["small-stream"][::12]:
            with self.subTest(case=workloads.case_name(entry)):
                self.assertEqual(oracle_solve(workloads.build(entry))[0], entry["opt"])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SelfTime(unittest.TestCase):
    def test_synthetic_nest(self):
        spans = [
            ("a", 0.0, 10.0, -1),
            ("b", 1.0, 4.0, 0),
            ("c", 5.0, 9.0, 0),
            ("d", 6.0, 8.0, 2),
            ("e", 11.0, 12.0, -1),
        ]
        self.assertEqual(self_times(spans), [3.0, 3.0, 2.0, 2.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [("a", 0.0, 10.0, -1), ("b", 2.0, 6.0, 0), ("c", 4.0, 12.0, 0)]
        self.assertEqual(self_times(spans)[0], 2.0)

    def test_wrapped_calls_nest(self):
        tracer = Tracer(clock=FakeClock())
        inner = tracer.span("inner", lambda: None)
        outer = tracer.span("outer", lambda: [inner(), inner()])
        outer()
        names = [(name, parent) for name, _s, _e, parent in tracer.spans]
        self.assertEqual(names, [("outer", -1), ("inner", 0), ("inner", 0)])
        # outer: ticks 1..6; each inner covers one tick.
        self.assertEqual(self_times(tracer.spans), [3.0, 1.0, 1.0])


class TraceInstall(unittest.TestCase):
    def test_install_and_uninstall_restore_originals(self):
        from coalition_bribery import cli, dispatch
        before = (cli.main, dispatch.solve_borda_zero)
        tracer = Tracer()
        tracer.install()
        self.assertEqual(tracer.missing, [])
        self.assertIsNot(cli.main, before[0])
        tracer.uninstall()
        self.assertEqual((cli.main, dispatch.solve_borda_zero), before)

    def test_missing_name_leaves_metric_absent(self):
        tracer = Tracer()
        tracer._replace("dispatch", "no_such_function", lambda f: f)
        tracer.missing.append("cli.solve_instance")
        metrics = tracer.layer_metrics()
        self.assertNotIn("dispatch.verify_s", metrics)
        self.assertIn("cli.self_s", metrics)
        self.assertIn("dispatch.no_such_function", tracer.missing)


class Tail(unittest.TestCase):
    def test_ten_requests_beyond_the_tail(self):
        self.assertEqual(2016 - 1 - client.tail_index(2016), 10)
        self.assertEqual(client.tail_index(5), 0)


if __name__ == "__main__":
    unittest.main()
