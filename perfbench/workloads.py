"""Seeded hard instances and the case lists of the benchmark's workloads.

A *case* is one instance whose goals are unmet at zero cost and reachable at
some cost `opt`; random cases have `opt` >= 2.  Each case is requested at
budget `opt` (feasible) and at `opt - 1` (infeasible) unless that is 0: a
zero budget would let pruning at the cost cap answer at once.  Only the
2-vertex "yes" bisection image has `opt` = 1.  Finding `opt` costs one
bisection over budgets per case, so it is done once per pool seed by
`regen.py` and stored in `expected/<workload>.json`; a run rebuilds each
instance from its stored key and trusts the stored `opt`.
"""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

from coalition_bribery.core import (
    Election,
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    check_goals,
)
from coalition_bribery.costs import DollarCost, ShiftCost, SwapCost, UnitCost
from coalition_bribery.generators import POLYNOMIAL_VARIANTS, Variant
from coalition_bribery.reductions import (
    ExactCover34Instance,
    MinBisectionInstance,
    reduce_minbisection_to_borda_swap_cb,
    reduce_x3c_to_plurality_shift_cb,
    shift_to_swap,
)
from coalition_bribery.sample_instances import sixteen_voter_shift_cbp

POOL_SEED = 1
PHI = Fraction(3, 4)
RHO = Fraction(1, 2)
MAX_ATTEMPTS = 200

ORACLE_VARIANTS = tuple(
    Variant(rule, thresholded, bribery, preferred)
    for rule, thresholded, briberies in (
        (ScoringRule.PLURALITY, True, ("swap", "shift")),
        (ScoringRule.BORDA, True, ("unit", "dollar", "swap", "shift")),
        (ScoringRule.BORDA, False, ("swap",)),
    )
    for bribery in briberies
    for preferred in (False, True)
)
VARIANTS = {v.label(): v for v in POLYNOMIAL_VARIANTS + ORACLE_VARIANTS}


def _phi(rule: ScoringRule, m: int, k: int) -> Fraction:
    """3/4, or under Borda the largest of a few round shares below the most
    a k-party coalition can hold (two parties hold at most 7/10 at m = 5)."""
    if rule is ScoringRule.PLURALITY:
        return PHI
    most = Fraction(sum(m - i for i in range(1, k + 1)), m * (m - 1) // 2)
    return next(f for f in (PHI, Fraction(2, 3), Fraction(3, 5), Fraction(1, 2),
                            Fraction(1, 3)) if f < most)


def _cost_model(rng: random.Random, bribery: str, parties, n: int):
    m = len(parties)
    if bribery == "unit":
        return UnitCost()
    if bribery == "dollar":
        return DollarCost(tuple(rng.randint(1, 5) for _ in range(n)))
    if bribery == "swap":
        return SwapCost(tuple(
            {(x, y): rng.randint(1, 3) for x in parties for y in parties if x != y}
            for _ in range(n)
        ))
    tables = []
    for _ in range(n):
        table = [0]
        for _ in range(m * (m - 1) // 2):
            table.append(table[-1] + rng.randint(1, 3))
        tables.append(tuple(table))
    return ShiftCost(tuple(tables))


def random_case(variant: Variant, n: int, m: int, k: int, seed: int, slot: int,
                attempt: int) -> ProblemInstance:
    """One random instance of `variant`; its budget is the worst-case total.

    Every price is at least 1, so no bribe is free and `opt` >= 1.
    """
    rng = random.Random(f"{seed}:{variant.label()}:{n}:{m}:{k}:{slot}:{attempt}")
    parties = tuple(f"p{i}" for i in range(1, m + 1))
    orders = tuple(
        PreferenceOrder(tuple(rng.sample(parties, m))) for _ in range(n)
    )
    election = Election(parties, tuple(f"v{i}" for i in range(1, n + 1)), orders)
    model = _cost_model(rng, variant.bribery, parties, n)
    coalition = tuple(rng.sample(parties, k))
    return ProblemInstance(
        election=election,
        rule=variant.rule,
        threshold=Fraction(1, 2 * m) if variant.thresholded else Fraction(0),
        coalition=coalition,
        preferred=coalition[0] if variant.with_preferred else None,
        phi=_phi(variant.rule, m, k),
        rho=RHO if variant.with_preferred else Fraction(0),
        budget=sum(model.max_voter_cost(i, m) for i in range(n)),
        cost_model=model,
    )


COVERED4 = ExactCover34Instance(4, ((1, 2, 3, 4),) * 3)
COVERLESS8 = ExactCover34Instance(
    8,
    ((1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7),
     (2, 4, 7, 8), (3, 5, 6, 8), (4, 6, 7, 8)),
)

FIXED_CASES = {
    "x3c-plurality-shift-covered4":
        lambda: reduce_x3c_to_plurality_shift_cb(COVERED4),
    "x3c-plurality-shift-coverless8":
        lambda: reduce_x3c_to_plurality_shift_cb(COVERLESS8),
    "bisection-borda-swap-v2-yes":
        lambda: reduce_minbisection_to_borda_swap_cb(
            MinBisectionInstance(2, frozenset(), 0)),
    "bisection-borda-swap-v2-no":
        lambda: reduce_minbisection_to_borda_swap_cb(
            MinBisectionInstance(2, frozenset({(1, 2)}), 0)),
    "sixteen-voter-shift": lambda: sixteen_voter_shift_cbp(3),
    "sixteen-voter-shift-swap-image":
        lambda: shift_to_swap(sixteen_voter_shift_cbp(3, multiplicative=True)),
}


def build(entry: dict) -> ProblemInstance:
    """The instance a stored entry names, at budget `opt`."""
    if "fixed" in entry:
        instance = FIXED_CASES[entry["fixed"]]()
    else:
        instance = random_case(
            VARIANTS[entry["cell"]], entry["n"], entry["m"], entry["k"],
            entry["seed"], entry["slot"], entry["attempt"],
        )
    return dataclasses.replace(instance, budget=entry["opt"])


def budgets(entry: dict) -> list[tuple[int, bool]]:
    """(budget, feasible) pairs a case is requested at."""
    opt = entry["opt"]
    return [(opt, True)] + ([(opt - 1, False)] if opt >= 2 else [])


def case_name(entry: dict) -> str:
    if "fixed" in entry:
        return entry["fixed"]
    cell = entry["cell"].replace("/", "-")
    return f"{cell}-n{entry['n']}-m{entry['m']}-k{entry['k']}-s{entry['slot']}"


def unmet_at_zero(instance: ProblemInstance) -> bool:
    return not check_goals(instance.election.orders, instance)


def load_entries(path: Path) -> list[dict]:
    return json.loads(path.read_text())["cases"]


def _shapes(rows):
    """Stored-entry keys for (cell label, n, m, k) rows, one slot per row."""
    return [
        {"cell": label, "n": n, "m": m, "k": k, "slot": slot}
        for slot, (label, n, m, k) in enumerate(rows)
    ]


def _tiny_size(variant: Variant, i: int) -> tuple[int, int]:
    """(n, m) of the i-th tiny case of a variant: n 3-8, m 3-4.  Borda
    unit/dollar at m = 4 stops at n = 4: beyond it the exact search takes
    0.1-0.4 s a request, which is engine scale, not tiny."""
    n, m = 3 + i % 6, 3 + (i // 6) % 2
    if m == 4 and variant.rule is ScoringRule.BORDA and variant.bribery in ("unit", "dollar"):
        n = 3 + i % 2
    return n, m


# Each engine runs up to the largest size that keeps a round of the whole
# workload near 5.5 reference seconds: a 30 s run then holds four or five
# rounds, and still three when the host runs 1.5x slow.
SHAPES = {
    "poly-scale": _shapes([
        ("Plurality_t-CB/unit", 80, 4, 2), ("Plurality_t-CB/unit", 20, 7, 3),
        ("Plurality_t-CBP/unit", 40, 6, 3), ("Plurality_t-CBP/unit", 20, 5, 2),
        ("Plurality_t-CB/dollar", 32, 5, 3), ("Plurality_t-CB/dollar", 20, 6, 2),
        ("Plurality_t-CBP/dollar", 60, 4, 2), ("Plurality_t-CBP/dollar", 20, 4, 3),
        ("Plurality_0-CB/swap", 20, 4, 2), ("Plurality_0-CBP/swap", 20, 5, 2),
        ("Plurality_0-CB/shift", 20, 6, 2), ("Plurality_0-CBP/shift", 20, 4, 2),
        ("Borda_0-CB/unit", 32, 4, 2), ("Borda_0-CBP/unit", 20, 5, 2),
        ("Borda_0-CB/dollar", 20, 4, 2), ("Borda_0-CBP/dollar", 30, 4, 2),
        ("Borda_0-CB/shift", 48, 4, 2), ("Borda_0-CBP/shift", 32, 5, 2),
    ]),
    "np-hard": [{"fixed": name} for name in FIXED_CASES] + _shapes([
        (variant.label(), n, 4, 2)
        for variant, n in zip(ORACLE_VARIANTS, (12, 12, 12, 12, 8, 8, 8, 8,
                                          8, 8, 12, 12, 8, 8))
    ]),
    "small-stream": _shapes([
        (variant.label(), *_tiny_size(variant, i), 2)
        for i in range(16)
        for variant in POLYNOMIAL_VARIANTS
    ]),
}
