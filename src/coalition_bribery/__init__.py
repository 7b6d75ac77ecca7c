"""Exact solvers for coalition bribery in parliamentary elections.

Polynomial algorithms cover threshold plurality under unit/dollar pricing,
zero-threshold plurality under swap/shift pricing (via min-cost flow), and
zero-threshold Borda under unit/dollar/shift pricing.  The remaining variants
are NP-hard and handled by an exact bounded search, which also serves as the
ground-truth oracle for the polynomial solvers on small instances.
"""

from .core import (
    DomainError,
    Election,
    PreferenceOrder,
    ProblemInstance,
    Rational,
    ScoringRule,
    active_parties,
    check_goals,
    seat_fractions,
    score,
    tally,
    total_score,
)
from .costs import (
    BribePlan,
    CostModel,
    DollarCost,
    ShiftCost,
    SwapCost,
    UnitCost,
    admissible,
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
    "Rational",
    "ScoringRule",
    "ShiftCost",
    "SwapCost",
    "UnitCost",
    "active_parties",
    "admissible",
    "apply_plan",
    "bribe_cost",
    "check_goals",
    "inverted_pairs",
    "plan_cost",
    "seat_fractions",
    "score",
    "tally",
    "total_score",
]
