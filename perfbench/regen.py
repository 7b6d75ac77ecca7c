#!/usr/bin/env python3
"""Find each case's `opt` for a pool seed and store the expected verdicts.

    python3 perfbench/regen.py --pool-seed 7    # held-out pool
    python3 perfbench/regen.py                  # refresh the stored pool

For the stored pool seed the result goes to perfbench/expected/; for any
other seed to .bench_build/perfbench/, where `run.py --pool-seed` finds it.
Small-stream cases get `opt` from `oracle_solve`; every other case from
`minimal_feasible_budget` with the solver `dispatch` routes it to.  A random key
is redrawn (next `attempt`) until its goals are unmet at zero cost and
2 <= opt.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from coalition_bribery.dispatch import (  # noqa: E402
    dispatch,
    minimal_feasible_budget,
    solver_for,
)
from coalition_bribery.oracle import SearchBudget, oracle_solve  # noqa: E402
from run import WORKLOADS, expected_file  # noqa: E402


def find_opt(workload: str, instance):
    if workload == "small-stream":
        return oracle_solve(instance, SearchBudget())[0]
    return minimal_feasible_budget(instance, solver_for(dispatch(instance), SearchBudget()))


def resolve(workload: str, shape: dict, pool_seed: int) -> dict:
    if "fixed" in shape:
        instance = workloads.FIXED_CASES[shape["fixed"]]()
        opt = find_opt(workload, instance)
        if not workloads.unmet_at_zero(instance) or opt is None:
            raise ValueError(f"{shape['fixed']} is not a case: opt {opt}")
        return dict(shape, opt=opt)
    variant = workloads.VARIANTS[shape["cell"]]
    for attempt in range(workloads.MAX_ATTEMPTS):
        instance = workloads.random_case(
            variant, shape["n"], shape["m"], shape["k"], pool_seed, shape["slot"], attempt
        )
        if not workloads.unmet_at_zero(instance):
            continue
        opt = find_opt(workload, instance)
        if opt is not None and opt >= 2:
            return dict(shape, seed=pool_seed, attempt=attempt, opt=opt)
    raise ValueError(f"no hard instance for {shape} in {workloads.MAX_ATTEMPTS} attempts")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pool-seed", type=int, default=workloads.POOL_SEED)
    args = parser.parse_args()
    for workload in WORKLOADS:
        cases = []
        for shape in workloads.SHAPES[workload]:
            start = time.monotonic()
            entry = resolve(workload, shape, args.pool_seed)
            cases.append(entry)
            print(f"{workload} {workloads.case_name(entry)} opt={entry['opt']} "
                  f"({time.monotonic() - start:.1f}s)", flush=True)
        path = expected_file(workload, args.pool_seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"workload": workload, "pool_seed": args.pool_seed, "cases": cases},
            indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
