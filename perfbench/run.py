#!/usr/bin/env python3
"""The repository's benchmark: closed-loop solve requests, measured from
outside the package.

    python3 perfbench/run.py --workload poly-scale --seed 3 --seconds 30 --trace 0

One client sends requests back to back, in a fresh process (`client.py`)
that repeats the workload in rounds until `--seconds` are used up (at least
three rounds); a request's latency is its median over the rounds.  Every
time is normalized by a calibration probe timed between requests
(`calibration.py`), because the shared host's speed drifts by up to 1.6x.
Set-up is measured in that process and in four more that only set up;
`setup_s` is their median.  With `--trace 1`, rounds alternate untraced and
traced, and the per-layer metrics are medians over the traced rounds.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  See README.md in this
directory for workloads, metrics and held-out seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import speed_now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("poly-scale", "np-hard", "small-stream")
POOL_SEED = 1
SETUP_PROBES = 4
# A round takes about 5.5 reference seconds.  The client may end its last
# round, or the three rounds it always makes, up to a few rounds past
# --seconds on a slow host.
OVERRUN_S = 60


def expected_file(workload: str, pool_seed: int) -> Path:
    """Where regen.py stores a pool's expected verdicts."""
    if pool_seed == POOL_SEED:
        return HERE / "expected" / f"{workload}.json"
    return CACHE / f"{workload}-pool{pool_seed}.json"


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def start_client(workload: str, seed: int, expected: Path, run_dir: Path,
                 timeout: float, extra: list[str]) -> dict:
    """Run client.py to completion in a fresh interpreter; its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "client.py"),
        "--workload", workload, "--seed", str(seed), "--expected", str(expected),
        "--run-dir", str(run_dir),
    ] + extra
    parent_probe = speed_now()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(spawned), "--parent-probe", repr(parent_probe)],
            env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} client still running after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} client exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _show(walls: list[float]) -> str:
    return " ".join(f"{w:.3f}" for w in walls)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the requests of a round")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=POOL_SEED,
                        help="instance pool; other than the default, made first by regen.py")
    args = parser.parse_args()

    if not (ROOT / "src" / "coalition_bribery" / "__init__.py").is_file():
        print(f"error: no coalition_bribery package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = expected_file(args.workload, args.pool_seed)
    if not expected.is_file():
        print(f"error: {expected} is missing; make it with "
              f"python3 perfbench/regen.py --pool-seed {args.pool_seed}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds
    timeout = args.seconds + OVERRUN_S
    sys.path.insert(0, str(ROOT / "src"))
    import client
    import workloads

    run_dir = CACHE / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        client.make_requests(args.workload, workloads.load_entries(expected), run_dir,
                             args.seed, write=True)
        setups = [
            start_client(args.workload, args.seed, expected, run_dir, timeout, [])["setup_s"]
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        result = start_client(args.workload, args.seed, expected, run_dir, timeout, [
            "--deadline", repr(deadline), "--trace", str(args.trace),
        ])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(result["setup_s"])
    for line in result["examples"]:
        print(f"failure: {line}", file=sys.stderr)

    attempted, failed, requests = result["attempted"], result["failed"], result["requests"]
    print(f"{args.workload}: {requests} requests a round; round walls "
          f"{_show(result['round_walls'])} s (raw {_show(result['raw_round_walls'])} s)"
          + (f"; traced {_show(result['traced_walls'])} s" if args.trace else ""))
    print(f"req_tail_ms is p{100.0 * max(0, requests - 10) / requests:.2f}; "
          f"fail_frac = {failed}/{attempted} = {failed / attempted:.6f}")

    if args.trace:
        units = metric_units("per_layer")
        metrics = {}
        for name, unit in units.items():
            values = [layers[name] for layers in result["layers"] if name in layers]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(result["traced_walls"])
            / statistics.median(result["round_walls"]) - 1,
            "unit": units["trace.overhead_frac"],
        }
        absent = sorted(set(units) - set(metrics))
        if absent:
            print(f"absent, their wrapped names are missing: {' '.join(absent)}")
    else:
        result["setup_s"] = statistics.median(setups)
        metrics = {
            name: {"value": result[name], "unit": unit}
            for name, unit in metric_units("end_to_end").items()
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
