"""Every routed cell against the exact search where the goals are unmet at
zero cost.

About half of the seeded instances crossval draws meet their goals unbribed,
and there every solver answers 0 at once.  This stream instead takes the
benchmark's `random_case` (every price at least 1) at its first attempt whose
goals are unmet at zero cost, at a few sizes per cell.  The routed solver
must find a plan costing the exact search's optimum when capped there, and
none when capped one below.
"""

import pytest

from coalition_bribery.dispatch import CROSSVAL_VARIANTS, dispatch, solver_for
from coalition_bribery.oracle import SearchBudget, oracle_solve

from conftest import unmet_case

# (n, m, k) per slot: 3-12 voters, 3-5 parties, coalitions of 1-2.
SIZES = [(n, m, k) for m in (3, 4, 5) for k in (1, 2) for n in (3, 4, 6, 8, 12)]


@pytest.mark.parametrize("variant", CROSSVAL_VARIANTS, ids=lambda v: v.label())
def test_routed_solver_matches_the_oracle_where_goals_are_unmet(variant):
    feasible = 0
    for slot, (n, m, k) in enumerate(SIZES):
        inst = unmet_case(variant, n, m, k, slot)
        solver = solver_for(dispatch(inst), SearchBudget())
        optimum, _ = oracle_solve(inst)
        where = (variant.label(), n, m, k, slot, optimum)
        if optimum is None:
            assert solver(inst, inst.budget) is None, where
            continue
        feasible += 1
        assert optimum >= 1, where
        plan = solver(inst, optimum)
        assert plan is not None and plan.cost == optimum, where
        assert solver(inst, optimum - 1) is None, where
    assert feasible >= len(SIZES) // 2
