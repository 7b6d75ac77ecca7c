"""The plurality DP (any threshold), the Borda-zero table and the plurality flow
engine against the exact search, on seeded tiny instances whose goals are
unmet at zero cost (no bribe of cost 0 meets them), so every case exercises
the engine rather than an early exit."""

import random

import pytest

from coalition_bribery.core import ScoringRule, check_goals
from coalition_bribery.dispatch import BORDA_DP, PLURALITY_DP, PLURALITY_FLOW, solver_for
from coalition_bribery.generators import with_budget
from coalition_bribery.oracle import SearchBudget, oracle_solve

from conftest import assert_verifies, random_problem

CASES = 40

# (name in ids and seeds, rule, thresholded, bribery, cbp, solver, max voters);
# "plurality0" names the zero-threshold unit/dollar cells the DP also serves.
VARIANTS = [
    ("plurality", ScoringRule.PLURALITY, True, kind, cbp, PLURALITY_DP, 8)
    for kind in ("unit", "dollar")
    for cbp in (False, True)
] + [
    ("borda", ScoringRule.BORDA, False, kind, cbp, BORDA_DP, 4)
    for kind in ("unit", "dollar", "swap", "shift")
    for cbp in (False, True)
] + [
    ("plurality", ScoringRule.PLURALITY, False, kind, cbp, PLURALITY_FLOW, 5)
    for kind in ("swap", "shift")
    for cbp in (False, True)
] + [
    ("plurality0", ScoringRule.PLURALITY, False, kind, cbp, PLURALITY_DP, 8)
    for kind in ("unit", "dollar")
    for cbp in (False, True)
]


def hard_instances(name, rule, thresholded, kind, cbp, max_voters):
    """(instance, oracle optimum) pairs whose goals no free bribe meets."""
    rng = random.Random(f"hard:{name}:{kind}:{cbp}")
    found = []
    while len(found) < CASES:
        inst = random_problem(
            rng, rule, thresholded, kind, cbp, max_voters=max_voters, max_parties=4
        )
        if check_goals(inst.election.orders, inst):
            continue
        optimum, _ = oracle_solve(inst)
        if optimum != 0:
            found.append((inst, optimum))
    return found


@pytest.mark.parametrize(
    "name, rule, thresholded, kind, cbp, solver, max_voters",
    VARIANTS,
    ids=[f"{v[0]}-{v[3]}-{'cbp' if v[4] else 'cb'}" for v in VARIANTS],
)
def test_least_budget_matches_oracle(
    name, rule, thresholded, kind, cbp, solver, max_voters
):
    solve = solver_for(solver, SearchBudget())
    for inst, optimum in hard_instances(name, rule, thresholded, kind, cbp, max_voters):
        plan = solve(inst, None)
        assert (None if plan is None else plan.cost) == optimum
        if optimum is not None:
            at_optimum = with_budget(inst, optimum)
            assert_verifies(at_optimum, plan)
            capped = solve(inst, optimum)
            assert capped is not None and capped.cost == optimum
            assert solve(inst, optimum - 1) is None
