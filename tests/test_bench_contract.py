"""The benchmark's per-layer metrics stay reachable.

`perfbench/tracer.py` wraps package functions by name from outside and
silently leaves out every metric whose wrapped name has gone.  One traced
`solve` per polynomial cell, plus one instance routed to the exact search,
must yield every per-layer metric `BENCHMARK.json` declares.  The exact
search runs on a Borda_t unit, swap and shift instance whose goals are unmet
at zero cost, so each of its order enumerators runs under the tracer.
"""

import importlib.util
import json
from pathlib import Path

import coalition_bribery.cli as cli
from coalition_bribery.core import ScoringRule
from coalition_bribery.generators import POLYNOMIAL_VARIANTS, Variant, random_instance
from coalition_bribery.instance_io import serialize_instance

ROOT = Path(__file__).resolve().parents[1]
# Computed by the benchmark client from whole runs, not by the tracer.
NOT_FROM_TRACER = {"trace.overhead_frac"}
# (variant, index) of instances routed to the exact search
ORACLE_CASES = (
    (Variant(ScoringRule.BORDA, True, "unit", False), 0),
    (Variant(ScoringRule.BORDA, True, "swap", False), 4),
    (Variant(ScoringRule.BORDA, True, "shift", False), 1),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_is_reported(tmp_path):
    declared = {
        metric["name"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    cases = tuple((variant, 0) for variant in POLYNOMIAL_VARIANTS) + ORACLE_CASES
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, (variant, index) in enumerate(cases):
            path = tmp_path / f"case{i}.txt"
            path.write_text(serialize_instance(random_instance(variant, 1, index)))
            options = tracer.counts["oracle.options"]
            assert cli.main(["solve", str(path), "--format", "json"]) in (0, 1)
            if (variant, index) in ORACLE_CASES:
                assert tracer.counts["oracle.options"] > options, variant.label()
    finally:
        tracer.uninstall()
    assert declared - NOT_FROM_TRACER <= set(tracer.layer_metrics())
    # Every engine ran, so no metric is reported only for want of a call.
    assert all(tracer.counts[f"dispatch.calls.{s}"] for s in tracing.SOLVERS.values())
