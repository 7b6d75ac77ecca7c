"""Seeded random instance generation for cross-validation and the CLI.

Each instance is derived from a (seed, variant label, index) key rather than
from sequential generator state, so streams are reproducible and independent
of generation order or platform.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from .core import Election, PreferenceOrder, ProblemInstance, ScoringRule, Variant
from .costs import CostModel, DollarCost, ShiftCost, SwapCost, UnitCost

# The 14 polynomial cells perfbench builds its workloads from.
POLYNOMIAL_VARIANTS: tuple[Variant, ...] = tuple(
    Variant(rule, thresholded, bribery, with_preferred)
    for rule, thresholded, briberies in (
        (ScoringRule.PLURALITY, True, ("unit", "dollar")),
        (ScoringRule.PLURALITY, False, ("swap", "shift")),
        (ScoringRule.BORDA, False, ("unit", "dollar", "shift")),
    )
    for bribery in briberies
    for with_preferred in (False, True)
)


def _random_cost_model(
    rng: random.Random, bribery: str, num_voters: int, num_parties: int,
    parties: tuple[str, ...], max_price: int,
) -> CostModel:
    if bribery == "unit":
        return UnitCost()
    if bribery == "dollar":
        return DollarCost(tuple(rng.randint(0, max_price) for _ in range(num_voters)))
    if bribery == "swap":
        return SwapCost(
            tuple(
                {
                    (x, y): rng.randint(0, max_price)
                    for x in parties
                    for y in parties
                    if x != y
                }
                for _ in range(num_voters)
            )
        )
    if bribery == "shift":
        tables = []
        for _ in range(num_voters):
            table = [0]
            for _ in range(num_parties * (num_parties - 1) // 2):
                table.append(table[-1] + rng.randint(0, max_price))
            tables.append(tuple(table))
        return ShiftCost(tuple(tables))
    raise ValueError(f"unknown bribery kind {bribery!r}")


def random_instance(
    variant: Variant,
    seed: int,
    index: int,
    max_voters: int = 5,
    max_parties: int = 4,
    max_price: int = 3,
) -> ProblemInstance:
    """A reproducible random instance of the given variant.

    The budget is set to the summed worst-case bribe cost, which makes the
    instance's feasibility equal to `oracle feasible at any cost`; callers
    probing specific budgets rebuild the instance around them.
    """
    rng = random.Random(f"{seed}:{variant.label()}:{index}")
    num_parties = rng.randint(2, max_parties)
    num_voters = rng.randint(1, max_voters)
    parties = tuple(f"p{i}" for i in range(1, num_parties + 1))
    orders = tuple(
        PreferenceOrder(tuple(rng.sample(parties, num_parties)))
        for _ in range(num_voters)
    )
    election = Election(
        parties, tuple(f"v{i}" for i in range(1, num_voters + 1)), orders
    )
    model = _random_cost_model(
        rng, variant.bribery, num_voters, num_parties, parties, max_price
    )
    coalition = tuple(rng.sample(parties, rng.randint(1, num_parties)))
    den = rng.randint(1, 8)
    if variant.thresholded:
        threshold = Fraction(rng.randint(1, 2 * num_voters), 2 * num_voters)
    else:
        threshold = Fraction(0)
    phi = Fraction(rng.randint(0, den), den)
    rho = Fraction(rng.randint(0, den), den) if variant.with_preferred else Fraction(0)
    budget = sum(
        model.max_voter_cost(i, num_parties) for i in range(num_voters)
    )
    return ProblemInstance(
        election=election,
        rule=variant.rule,
        threshold=threshold,
        coalition=coalition,
        preferred=coalition[0] if variant.with_preferred else None,
        phi=phi,
        rho=rho,
        budget=budget,
        cost_model=model,
    )


def with_budget(instance: ProblemInstance, budget: int) -> ProblemInstance:
    """The same instance with a different budget."""
    return replace(instance, budget=budget)
