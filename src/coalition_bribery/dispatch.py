"""Routing of instances to solvers, and solve reports.

Polynomial cells go to their dedicated solvers; everything else goes to the
exact bounded search.  Feasible answers are always re-verified against the
plan machinery before a report is emitted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .borda import solve_borda_zero
from .core import (
    ProblemInstance,
    ScoringRule,
    check_goals,
    grand_total,
    seat_fractions_from_scores,
    tally,
)
from .costs import BribePlan, SolveOutcome, WitnessError, apply_plan, plan_cost
from .generators import with_budget
from .oracle import SearchBudget, solve_np_hard
from .plurality_dp import solve_plurality_t_dollar
from .plurality_flow import solve_plurality_zero

PLURALITY_DP = "plurality-threshold-dp"
PLURALITY_FLOW = "plurality-flow-solver"
BORDA_DP = "borda-solvers"
ORACLE = "oracle-exact"


def dispatch(instance: ProblemInstance) -> str:
    """Name of the solver responsible for this instance's variant."""
    bribery = instance.cost_model.kind
    if instance.rule is ScoringRule.PLURALITY:
        if bribery in ("unit", "dollar"):
            return PLURALITY_DP
        return PLURALITY_FLOW if instance.threshold == 0 else ORACLE
    if instance.threshold == 0 and bribery in ("unit", "dollar", "shift"):
        return BORDA_DP
    return ORACLE


def solver_for(name: str, budget: SearchBudget) -> Callable[[ProblemInstance], SolveOutcome]:
    if name == PLURALITY_DP:
        return solve_plurality_t_dollar
    if name == PLURALITY_FLOW:
        return solve_plurality_zero
    if name == BORDA_DP:
        return solve_borda_zero
    return lambda instance: solve_np_hard(instance, budget)


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
    """Dispatch, solve, verify the witness, and assemble a report."""
    name = ORACLE if force_oracle else dispatch(instance)
    solver = solver_for(name, search_budget)
    start = time.monotonic()
    outcome = solver(instance)
    elapsed = time.monotonic() - start

    election = instance.election
    total = grand_total(election.num_voters, election.num_parties, instance.rule)
    scores_before = tally(election.orders, election.parties, instance.rule)
    seats_before = seat_fractions_from_scores(
        scores_before, total, instance.threshold
    )
    scores_after = seats_after = None
    cost = None
    if outcome.feasible:
        plan = outcome.plan
        cost = plan_cost(instance.cost_model, instance.coalition, election, plan)
        new_orders = apply_plan(election, plan)
        if cost is None or cost > instance.budget or cost != plan.cost:
            raise WitnessError("solver emitted a plan that fails verification")
        if not check_goals(new_orders, instance):
            raise WitnessError("solver emitted a plan that misses the goals")
        scores_after = tally(new_orders, election.parties, instance.rule)
        seats_after = seat_fractions_from_scores(
            scores_after, total, instance.threshold
        )
    return SolveReport(
        variant=instance.variant_label(),
        solver=name,
        feasible=outcome.feasible,
        cost=cost,
        plan=outcome.plan if outcome.feasible else None,
        elapsed=elapsed,
        scores_before=scores_before,
        scores_after=scores_after,
        seats_before=seats_before,
        seats_after=seats_after,
    )


def minimal_feasible_budget(
    instance: ProblemInstance,
    solver: Callable[[ProblemInstance], SolveOutcome],
) -> Optional[int]:
    """Least budget the solver accepts, by bisection; None when none exists."""
    election = instance.election
    upper = sum(
        instance.cost_model.max_voter_cost(i, election.num_parties)
        for i in range(election.num_voters)
    )
    if not solver(with_budget(instance, upper)).feasible:
        return None
    lo, hi = 0, upper
    while lo < hi:
        mid = (lo + hi) // 2
        if solver(with_budget(instance, mid)).feasible:
            hi = mid
        else:
            lo = mid + 1
    return lo
