"""Every routed cell against the exact search at the goals' edge values.

Each crossval cell is solved at (phi, rho) in {(0, 0), (1, 0), (1, 1),
(0, 1), (1/2, 1)} (the CB cells, which have no preferred party, only at
rho = 0), with all-party coalitions, a threshold of 1 or 1/2 on thresholded
cells, and prices 0-2 mixed in.  The routed solver must find the oracle's
optimum uncapped, a plan costing it when capped there, and none when capped
one below.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from coalition_bribery.dispatch import (
    CROSSVAL_VARIANTS,
    dispatch,
    minimal_feasible_budget,
    solver_for,
)
from coalition_bribery.generators import random_instance
from coalition_bribery.oracle import SearchBudget, oracle_solve

EDGES = [(0, 0), (1, 0), (1, 1), (0, 1), (Fraction(1, 2), 1)]
SEEDS = 8


def edge_instances(variant):
    """SEEDS instances per edge (phi, rho) the variant admits."""
    index = 0
    for phi, rho in EDGES:
        if rho and not variant.with_preferred:
            continue
        for seed in range(SEEDS):
            inst = random_instance(variant, 7, index, max_price=2)
            index += 1
            coalition = inst.coalition
            if seed % 2:
                leader = coalition[0]
                coalition = (leader, *(p for p in inst.election.parties if p != leader))
            threshold = inst.threshold
            if variant.thresholded:
                threshold = Fraction(1, 1 + seed // 2 % 2)
            yield replace(inst, phi=Fraction(phi), rho=Fraction(rho),
                          coalition=coalition, threshold=threshold)


@pytest.mark.parametrize("variant", CROSSVAL_VARIANTS, ids=lambda v: v.label())
def test_routed_solver_matches_the_oracle_at_edge_values(variant):
    instances = list(edge_instances(variant))
    assert len(instances) == SEEDS * (5 if variant.with_preferred else 2)
    for inst in instances:
        solver = solver_for(dispatch(inst), SearchBudget())
        optimum, _ = oracle_solve(inst)
        where = f"{variant.label()} phi={inst.phi} rho={inst.rho} coalition={inst.coalition}"
        assert minimal_feasible_budget(inst, solver) == optimum, where
        if optimum is not None:
            plan = solver(inst, optimum)
            assert plan is not None and plan.cost == optimum, where
            assert solver(inst, optimum - 1) is None, where
