"""Command-line front end.

Subcommands: solve, oracle, crossval, reduce, gen.  The parser is built
once, at import; each subcommand names its handler through
`set_defaults(run=...)`; `main` calls it and maps any error to its exit
code.  Exit codes for solve/oracle: 0 feasible, 1 infeasible, 2 input
error, 3 search refusal, 4 failed witness check (a solver emitted a
malformed plan or one that does not verify).  `crossval` exits 1 on a
disagreement and 3 on a search refusal.  Every subcommand exits 2 when an
input cannot be read or an output cannot be written: a closed pipe, a full
device, an unwritable `--output` or crossval dump."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .core import DomainError, ProblemInstance, ScoringRule, Variant
from .costs import BRIBERY_KINDS, WitnessError
from .dispatch import (
    CROSSVAL_VARIANTS,
    SolveReport,
    dispatch,
    minimal_feasible_budget,
    solve_instance,
    solver_for,
)
from .generators import random_instance, with_budget
from .instance_io import (
    InstanceParseError,
    format_rational,
    parse_exact_cover,
    parse_instance,
    parse_min_bisection,
    serialize_instance,
)
from .oracle import OracleRefusal, SearchBudget, oracle_solve
from .reductions import (
    reduce_minbisection_to_borda_swap_cb,
    reduce_x3c_to_borda_unit_cb,
    reduce_x3c_to_plurality_shift_cb,
)

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT_ERROR = 2
EXIT_REFUSAL = 3
EXIT_WITNESS_ERROR = 4

# Each `reduce` kind: the parser of its source format, then the reduction.
REDUCTIONS = {
    "x3c-plurality-shift": (parse_exact_cover, reduce_x3c_to_plurality_shift_cb),
    "x3c-borda-unit": (parse_exact_cover, reduce_x3c_to_borda_unit_cb),
    "bisection-borda-swap": (parse_min_bisection, reduce_minbisection_to_borda_swap_cb),
}


def _print_report(report: SolveReport, emit_witness: bool, fmt: str,
                  instance: ProblemInstance) -> None:
    """The report's payload as JSON, or as text: a `key: value` line per field
    not None (`_` read as `-`), and a `witness:` line per bribed voter."""
    def shares(seats):
        return None if seats is None else {p: format_rational(v) for p, v in seats.items()}

    payload = {
        "variant": report.variant,
        "solver": report.solver,
        "feasible": report.feasible,
        "cost": report.cost,
        "time_seconds": round(report.elapsed, 6),
        "scores_before": report.scores_before,
        "scores_after": report.scores_after,
        "seats_before": shares(report.seats_before),
        "seats_after": shares(report.seats_after),
    }
    if emit_witness and report.plan is not None:
        payload["witness"] = {
            instance.election.voters[i]: " ".join(order.ranking)
            for i, order in sorted(report.plan.replacements.items())
        }
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if key == "witness":
            for voter, ranking in value.items():
                print(f"witness: {voter} -> {ranking}")
        elif value is not None:
            if isinstance(value, dict):
                value = " ".join(f"{p}={v}" for p, v in value.items())
            elif isinstance(value, bool):
                value = "yes" if value else "no"
            print(f"{key.replace('_', '-')}: {value}")


def _cmd_solve(args) -> int:
    """`solve`, or `oracle` when the exact search must answer."""
    instance = parse_instance(Path(args.instance).read_text())
    budget = SearchBudget(max_expansions=args.max_expansions)
    report = solve_instance(instance, budget, force_oracle=args.command == "oracle")
    _print_report(report, args.emit_witness, args.format, instance)
    return EXIT_FEASIBLE if report.feasible else EXIT_INFEASIBLE


def _agrees(instance: ProblemInstance, solver, optimum: Optional[int]) -> bool:
    """Whether `solver` finds the exact search's `optimum` uncapped, a plan
    costing it when capped there, and none when capped one below."""
    if minimal_feasible_budget(instance, solver) != optimum:
        return False
    if optimum is None:
        return True
    capped = solver(instance, optimum)
    return (capped is not None and capped.cost == optimum
            and solver(instance, optimum - 1) is None)


def _cmd_crossval(args) -> int:
    budget = SearchBudget(max_expansions=args.max_expansions)
    failures = 0
    print("variant agree total")
    for variant in CROSSVAL_VARIANTS:
        agree = 0
        for index in range(args.count):
            instance = random_instance(
                variant, args.seed, index,
                max_voters=args.max_voters, max_parties=args.max_parties,
                max_price=args.max_price,
            )
            solver = solver_for(dispatch(instance), budget)
            why = ""
            try:
                optimum, _plan = oracle_solve(instance, budget)
                agrees = _agrees(instance, solver, optimum)
            except OracleRefusal as exc:
                raise OracleRefusal(exc.required, exc.limit,
                                    f"{variant.label()} index {index}: {exc.what}") from exc
            except WitnessError as exc:
                agrees, why = False, f" ({exc})"
            if agrees:
                agree += 1
            else:
                failures += 1
                dump = Path(args.artifact_dir) / (
                    f"disagreement-{variant.label().replace('/', '-')}-{index}.txt"
                )
                try:
                    dump.parent.mkdir(parents=True, exist_ok=True)
                    dump.write_text(serialize_instance(instance))
                except OSError as exc:
                    raise OSError(f"disagreement on {variant.label()} index {index}"
                                  f" not written: {exc}") from exc
                print(
                    f"disagreement on {variant.label()} index {index}{why}; "
                    f"instance written to {dump}",
                    file=sys.stderr,
                )
        print(f"{variant.label()} {agree} {args.count}")
    return EXIT_INFEASIBLE if failures else EXIT_FEASIBLE


def _cmd_reduce(args) -> int:
    parse_source, reduce = REDUCTIONS[args.kind]
    instance = reduce(parse_source(Path(args.source).read_text()))
    return _emit(serialize_instance(instance), args.output)


def _cmd_gen(args) -> int:
    variant = Variant(ScoringRule(args.rule), args.thresholded, args.bribery, args.preferred)
    instance = random_instance(
        variant, args.seed, args.index,
        max_voters=args.max_voters, max_parties=args.max_parties,
        max_price=args.max_price,
    )
    if args.budget is not None:
        instance = with_budget(instance, args.budget)
    return _emit(serialize_instance(instance), args.output)


def _emit(text: str, output: Optional[str]) -> int:
    """Write `text` to the file `output`, or to stdout when there is none."""
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_FEASIBLE


def _at_least(low: int):
    """Argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalition-bribery",
        description="Exact solvers for coalition bribery in parliamentary elections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--max-expansions", type=_at_least(0),
                       default=SearchBudget().max_expansions,
                       help="expansion limit for the exact search and for "
                       "Borda menu placement")

    def add_sizes(p):
        p.add_argument("--max-voters", type=_at_least(1), default=5)
        p.add_argument("--max-parties", type=_at_least(2), default=4)
        p.add_argument("--max-price", type=_at_least(0), default=3)

    for name, help_text in (("solve", "solve an instance file"),
                            ("oracle", "solve with the exact search only")):
        p_solve = sub.add_parser(name, help=help_text)
        p_solve.set_defaults(run=_cmd_solve)
        p_solve.add_argument("instance")
        p_solve.add_argument("--emit-witness", action="store_true")
        p_solve.add_argument("--format", choices=("text", "json"), default="text")
        add_common(p_solve)

    p_cv = sub.add_parser("crossval", help="compare polynomial solvers with the exact search")
    p_cv.set_defaults(run=_cmd_crossval)
    p_cv.add_argument("--seed", type=int, default=1)
    p_cv.add_argument("--count", type=_at_least(0), default=100)
    add_sizes(p_cv)
    p_cv.add_argument("--artifact-dir", default="crossval-artifacts")
    add_common(p_cv)

    p_red = sub.add_parser("reduce", help="emit a hardness-construction instance")
    p_red.set_defaults(run=_cmd_reduce)
    p_red.add_argument("kind", choices=REDUCTIONS)
    p_red.add_argument("source")
    p_red.add_argument("--output")

    p_gen = sub.add_parser("gen", help="emit a seeded random instance")
    p_gen.set_defaults(run=_cmd_gen)
    p_gen.add_argument("--rule", choices=[r.value for r in ScoringRule], default="plurality")
    p_gen.add_argument("--bribery", choices=BRIBERY_KINDS, default="unit")
    p_gen.add_argument("--thresholded", action="store_true")
    p_gen.add_argument("--preferred", action="store_true")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--index", type=int, default=0)
    add_sizes(p_gen)
    p_gen.add_argument("--budget", type=_at_least(0))
    p_gen.add_argument("--output")
    return parser


PARSER = _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand; the one place an error becomes its exit status."""
    args = PARSER.parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()
        return status
    except OracleRefusal as exc:
        status, message = EXIT_REFUSAL, f"refused: {exc}"
    except WitnessError as exc:
        status, message = EXIT_WITNESS_ERROR, f"error: {exc}"
    except BrokenPipeError:  # nobody reads stdout any more
        status, message = EXIT_INPUT_ERROR, None
    except (OSError, UnicodeDecodeError, InstanceParseError, DomainError) as exc:
        status, message = EXIT_INPUT_ERROR, f"error: {exc}"
    if message:
        print(message, file=sys.stderr)
    try:
        sys.stdout.flush()
    except OSError:
        # Point stdout at devnull, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
