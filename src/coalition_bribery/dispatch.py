"""Routing of instances to solvers, and solve reports.

`ROUTES` maps each routed cell to its dedicated solver, and crossval covers
exactly its cells; every other cell goes to the exact bounded search.
Borda_0 swap bribery is NP-hard with the number of parties in the input
(the min-bisection reduction) but fixed-parameter tractable in it, so the
Borda table serves it too, under the same `SearchBudget` as the search.
Every engine returns its cheapest plan under a cost cap.  `solve_capped` is
the one place that calls an engine: it refuses a polynomial solver for a
cell not routed to it, and re-verifies every plan it returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Callable, Optional

from .borda import solve_borda_zero
from .core import (
    DomainError,
    ProblemInstance,
    ScoringRule,
    Variant,
    check_goals,
    seat_fractions_from_scores,
    tally,
)
from .costs import BribePlan, WitnessError, apply_plan, plan_cost
from .oracle import SearchBudget, solve_np_hard
from .plurality_dp import solve_plurality_t_dollar
from .plurality_flow import solve_plurality_zero

PLURALITY_DP = "plurality-threshold-dp"
PLURALITY_FLOW = "plurality-flow-solver"
BORDA_DP = "borda-solvers"
ORACLE = "oracle-exact"


# The routed cells, (rule, thresholded, bribery) -> solver, in the order
# crossval reports them.  Each serves both goal shapes (CB and CBP).
ROUTES = {
    (ScoringRule.PLURALITY, True, "unit"): PLURALITY_DP,
    (ScoringRule.PLURALITY, True, "dollar"): PLURALITY_DP,
    (ScoringRule.PLURALITY, False, "swap"): PLURALITY_FLOW,
    (ScoringRule.PLURALITY, False, "shift"): PLURALITY_FLOW,
    (ScoringRule.BORDA, False, "unit"): BORDA_DP,
    (ScoringRule.BORDA, False, "dollar"): BORDA_DP,
    (ScoringRule.BORDA, False, "swap"): BORDA_DP,
    (ScoringRule.BORDA, False, "shift"): BORDA_DP,
    (ScoringRule.PLURALITY, False, "unit"): PLURALITY_DP,
    (ScoringRule.PLURALITY, False, "dollar"): PLURALITY_DP,
}

CROSSVAL_VARIANTS: tuple[Variant, ...] = tuple(
    Variant(rule, thresholded, bribery, with_preferred)
    for rule, thresholded, bribery in ROUTES
    for with_preferred in (False, True)
)


def dispatch(instance: ProblemInstance) -> str:
    """Name of the solver responsible for this instance's variant."""
    variant = instance.variant
    return ROUTES.get((variant.rule, variant.thresholded, variant.bribery), ORACLE)


# Engine entry point per solver, by its name in this module: `solve_capped`
# looks it up at call time, so a wrapper installed there is the one called.
ENGINES = {
    PLURALITY_DP: "solve_plurality_t_dollar",
    PLURALITY_FLOW: "solve_plurality_zero",
    BORDA_DP: "solve_borda_zero",
    ORACLE: "solve_np_hard",
}


def solve_capped(
    name: str,
    instance: ProblemInstance,
    cap: Optional[int],
    search_budget: SearchBudget = SearchBudget(),
) -> Optional[BribePlan]:
    """The named solver's cheapest plan costing at most `cap` (None: no
    limit), verified; None when there is none.  Engines take `math.inf` for
    no limit.

    Raises DomainError when a polynomial solver is named for a cell `ROUTES`
    does not route to it, and WitnessError when the engine's plan is
    malformed, inadmissible, misstates or exceeds its cost, or misses goals.
    """
    limit = inf if cap is None else cap
    if limit < 0:
        return None
    if check_goals(instance.election.orders, instance):
        return BribePlan.empty()
    if name != ORACLE and dispatch(instance) != name:
        raise DomainError(f"{name} does not serve {instance.variant.label()}")
    kwargs = {"budget": search_budget} if name in (ORACLE, BORDA_DP) else {}
    plan = globals()[ENGINES[name]](instance, limit, **kwargs)
    if plan is None:
        return None
    election, cost = instance.election, None
    parties = frozenset(election.parties)
    if all(0 <= i < election.num_voters and frozenset(order.ranking) == parties
           for i, order in plan.replacements.items()):
        cost = plan_cost(instance.cost_model, instance.coalition, election, plan)
    if cost is None or cost != plan.cost or cost > limit:
        failure = "fails verification"
    elif not check_goals(apply_plan(election, plan), instance):
        failure = "misses the goals"
    else:
        return plan
    raise WitnessError(f"{name} emitted a plan for {instance.variant.label()} that {failure}")


def solver_for(
    name: str, budget: SearchBudget
) -> Callable[..., Optional[BribePlan]]:
    """`solve_capped` bound to one solver: (instance, cap)."""
    return lambda instance, cap: solve_capped(name, instance, cap, budget)


@dataclass
class SolveReport:
    variant: str
    solver: str
    feasible: bool
    cost: Optional[int]
    plan: Optional[BribePlan]
    elapsed: float
    scores_before: dict[str, int]
    scores_after: Optional[dict[str, int]]
    seats_before: dict[str, Fraction]
    seats_after: Optional[dict[str, Fraction]]


def solve_instance(
    instance: ProblemInstance,
    search_budget: SearchBudget = SearchBudget(),
    force_oracle: bool = False,
) -> SolveReport:
    """Dispatch, solve within the instance's budget, and assemble a report."""
    name = ORACLE if force_oracle else dispatch(instance)
    start = time.monotonic()
    plan = solve_capped(name, instance, instance.budget, search_budget)
    elapsed = time.monotonic() - start

    election = instance.election
    def outcome(orders):
        scores = tally(orders, election.parties, instance.rule)
        return scores, seat_fractions_from_scores(scores, instance.total, instance.threshold)

    scores_before, seats_before = outcome(election.orders)
    scores_after, seats_after = (
        (None, None) if plan is None else outcome(apply_plan(election, plan))
    )
    return SolveReport(
        variant=instance.variant.label(), solver=name, feasible=plan is not None,
        cost=None if plan is None else plan.cost, plan=plan, elapsed=elapsed,
        scores_before=scores_before, scores_after=scores_after,
        seats_before=seats_before, seats_after=seats_after,
    )


def minimal_feasible_budget(
    instance: ProblemInstance,
    solver: Callable[..., Optional[BribePlan]],
) -> Optional[int]:
    """Least budget at which `solver` (from `solver_for`) finds a plan: the
    cost of its uncapped optimum; None when no plan exists."""
    plan = solver(instance, None)
    return None if plan is None else plan.cost
