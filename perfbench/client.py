"""The measuring process of one run, started fresh by `run.py`.

Set-up rebuilds the workload's instances from their stored keys, to check
answers against; `run.py` has already written one instance file per
(case, budget).  Then rounds follow until the run's deadline: each round sends every request back to back through
`coalition_bribery.cli.main`, in process, as
`solve|oracle FILE --format json --emit-witness`, capturing what it prints.
Answers are checked after each round, outside the timed region.  The last
line of standard output is a JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads
from calibration import REFERENCE_S, Normalizer, speed_now
from coalition_bribery import cli
from coalition_bribery.core import DomainError, PreferenceOrder, check_goals
from coalition_bribery.costs import BribePlan, apply_plan, plan_cost
from coalition_bribery.instance_io import serialize_instance

EXIT_FEASIBLE, EXIT_INFEASIBLE, EXIT_REFUSAL = 0, 1, 3
MIN_ROUNDS = 3

# workload -> the subcommands each (case, budget) is sent to
COMMANDS = {
    "poly-scale": ("solve",),
    "np-hard": ("solve",),
    "small-stream": ("solve", "oracle"),
}


@dataclasses.dataclass(frozen=True)
class Request:
    instance: object
    expected: int  # exit code
    command: str
    path: str


def make_requests(workload: str, entries, run_dir: Path, seed: int,
                  write: bool = False) -> list[Request]:
    """The requests, in the order the seed gives; with `write`, also write
    their instance files into `run_dir`."""
    requests = []
    for entry in entries:
        instance = workloads.build(entry)
        name = workloads.case_name(entry)
        for budget, feasible in workloads.budgets(entry):
            inst = dataclasses.replace(instance, budget=budget)
            path = run_dir / f"{name}-b{budget}.txt"
            if write:
                path.write_text(serialize_instance(inst))
            for command in COMMANDS[workload]:
                code = EXIT_FEASIBLE if feasible else EXIT_INFEASIBLE
                requests.append(Request(inst, code, command, str(path)))
    random.Random(f"order:{seed}").shuffle(requests)
    return requests


def send(request: Request):
    """One request through the CLI: (exit code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([request.command, request.path,
                             "--format", "json", "--emit-witness"])
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception:
            error = traceback.format_exc()
    return code, out.getvalue(), err.getvalue(), error


def check(request: Request, answer) -> tuple[str | None, tuple | None]:
    """Failure reason (None when the answer is right) and the answer's
    (exit code, cost), which `solve` and `oracle` must agree on."""
    code, stdout, _stderr, error = answer
    if error is not None:
        return "exception", None
    if code == EXIT_REFUSAL:
        return "refusal", None
    if code != request.expected:
        return f"exit {code}, expected {request.expected}", None
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "unreadable report", None
    if payload.get("feasible") is not (code == EXIT_FEASIBLE):
        return "verdict disagrees with exit code", None
    if code == EXIT_INFEASIBLE:
        return None, (code, None)
    instance = request.instance
    election = instance.election
    try:
        replacements = {
            election.voter_index(voter): PreferenceOrder(tuple(ranking.split()))
            for voter, ranking in payload.get("witness", {}).items()
        }
    except DomainError:
        return "unreadable witness", None
    plan = BribePlan(replacements, 0)
    cost = plan_cost(instance.cost_model, instance.coalition, election, plan)
    if cost is None or cost > instance.budget or cost != payload.get("cost"):
        return "witness cost", None
    if not check_goals(apply_plan(election, plan), instance):
        return "witness misses the goals", None
    return None, (code, cost)


def check_round(requests: list[Request], answers, reasons: Counter, examples: list) -> None:
    verdicts: dict[str, dict] = {}
    for request, answer in zip(requests, answers):
        reason, verdict = check(request, answer)
        verdicts.setdefault(request.path, {})[request.command] = verdict
        if reason is not None:
            reasons[reason] += 1
            if len(examples) < 3:
                examples.append(f"{request.command} {Path(request.path).name}: "
                                f"{reason}\n{answer[3] or answer[2]}")
    for path, by_command in verdicts.items():
        values = list(by_command.values())
        if None not in values and any(v != values[0] for v in values):
            reasons["solve and oracle disagree"] += 1
            if len(examples) < 3:
                examples.append(f"{Path(path).name}: {by_command}")


def run_round(requests: list[Request]) -> tuple[list[float], float, float, list]:
    """Normalized latency per request, raw and normalized wall time of the
    round, and the answers."""
    clock = time.perf_counter
    speed = Normalizer()
    spans, answers = [], []
    for request in requests:
        speed.maybe_probe()
        t0 = clock()
        answers.append(send(request))
        spans.append((t0, clock() - t0))
    speed.probe()
    raw_wall = sum(d for _, d in spans)
    latencies = [speed.normalize(t0, d) for t0, d in spans]
    return latencies, raw_wall, sum(latencies), answers


def tail_index(count: int) -> int:
    """Index into sorted latencies of the highest percentile with at least
    10 requests beyond it (the maximum when there are fewer than 11)."""
    return max(0, count - 11)


def measure(requests: list[Request], deadline: float, trace: bool) -> dict:
    """Rounds until about the deadline, at least MIN_ROUNDS untraced or one
    traced pair; each request's latency is its median over the untraced
    rounds.  With tracing, rounds alternate untraced and
    traced, and a traced round's layer times are scaled by its speed."""
    from tracer import Tracer

    reasons: Counter = Counter()
    examples: list[str] = []
    per_round: list[list[float]] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    raw_walls: list[float] = []
    layers, missing = [], []
    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_ROUNDS
    started = time.monotonic()
    cycles = 0
    while True:
        for traced in modes:
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                latencies, raw_wall, wall, answers = run_round(requests)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            walls[traced].append(wall)
            if tracer is not None:
                scale = wall / raw_wall
                layers.append({
                    name: value * scale if name.endswith("_s") else value
                    for name, value in tracer.layer_metrics().items()
                })
                missing = tracer.missing
            else:
                per_round.append(latencies)
                raw_walls.append(raw_wall)
            check_round(requests, answers, reasons, examples)
        cycles += 1
        now = time.monotonic()
        # Another round starts while at least half a round's time is left.
        if cycles >= min_rounds and now + (now - started) / cycles / 2 > deadline:
            break

    typical = [statistics.median(samples) for samples in zip(*per_round)]
    ordered = sorted(typical)
    return {
        "wall_s": sum(typical),
        "req_p50_ms": statistics.median(typical) * 1000,
        "req_tail_ms": ordered[tail_index(len(ordered))] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "round_walls": walls[False],
        "raw_round_walls": raw_walls,
        "traced_walls": walls[True],
        "requests": len(requests),
        "attempted": len(requests) * cycles * len(modes),
        "failed": sum(reasons.values()),
        "reasons": dict(reasons),
        "examples": examples,
        "layers": layers,
        "missing": missing,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--parent-probe", type=float, required=True,
                        help="calibration probe time the parent measured just before")
    parser.add_argument("--deadline", type=float,
                        help="time.monotonic() after which no round starts; "
                             "without it, only set up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    entries = workloads.load_entries(Path(args.expected))
    requests = make_requests(args.workload, entries, Path(args.run_dir), args.seed)
    setup = time.monotonic() - args.spawned
    # Keep the client's own objects out of the collector's way, so that a
    # request's collections scan what the request allocated, as they would
    # in a fresh CLI process.
    gc.collect()
    gc.freeze()
    probe = (args.parent_probe + speed_now()) / 2
    result = {"setup_s": setup * REFERENCE_S / probe, "raw_setup_s": setup}
    if args.deadline is not None:
        result.update(measure(requests, args.deadline, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
