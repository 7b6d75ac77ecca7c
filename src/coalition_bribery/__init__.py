"""Exact solvers for coalition bribery in parliamentary elections.

Polynomial algorithms cover threshold plurality under unit/dollar pricing
and zero-threshold plurality under swap/shift pricing (via min-cost flow).
Zero-threshold Borda takes one table under all four pricings.  Its menus
visit up to 2^r masks over the r parties free to rise: every party under
swap, the coalition members under unit, dollar and shift.  The other cells
are NP-hard and go to an exact bounded search, also the ground-truth oracle
for the polynomial solvers on small instances.
"""

from .core import (
    DomainError,
    Election,
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    check_goals,
    score,
    tally,
)
from .costs import (
    BribePlan,
    CostModel,
    DollarCost,
    ShiftCost,
    SwapCost,
    UnitCost,
    apply_plan,
    bribe_cost,
    inverted_pairs,
    plan_cost,
)

__all__ = [
    "BribePlan",
    "CostModel",
    "DollarCost",
    "DomainError",
    "Election",
    "PreferenceOrder",
    "ProblemInstance",
    "ScoringRule",
    "ShiftCost",
    "SwapCost",
    "UnitCost",
    "apply_plan",
    "bribe_cost",
    "check_goals",
    "inverted_pairs",
    "plan_cost",
    "score",
    "tally",
]
