"""Hand-built instances used as fixtures by the test suite and demo scripts.

Each builder returns a fully validated `ProblemInstance`.  The preference
orders behind plurality tallies are fixed arbitrarily below the top choice;
only the top matters for those rules.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .core import Election, PreferenceOrder, ProblemInstance, ScoringRule
from .costs import DollarCost, ShiftCost, UnitCost


def _plurality_election(blocks: list[tuple[str, int]], parties: tuple[str, ...]) -> Election:
    """Election whose voters split into blocks by top choice."""
    orders = []
    voters = []
    for top, count in blocks:
        ranking = (top,) + tuple(p for p in parties if p != top)
        for _ in range(count):
            voters.append(f"v{len(voters) + 1}")
            orders.append(PreferenceOrder(ranking))
    return Election(parties=parties, voters=tuple(voters), orders=tuple(orders))


def three_party_unit_cb(budget: int) -> ProblemInstance:
    """100 voters split 35/15/50 over X/Y/Z; unit prices; coalition {X, Y}."""
    election = _plurality_election([("X", 35), ("Y", 15), ("Z", 50)], ("X", "Y", "Z"))
    return ProblemInstance(
        election=election,
        rule=ScoringRule.PLURALITY,
        threshold=Fraction(1, 5),
        coalition=("X", "Y"),
        phi=Fraction(1, 2),
        rho=Fraction(0),
        budget=budget,
        cost_model=UnitCost(),
    )


def _three_party_dollar_model(election: Election) -> DollarCost:
    prices = {"X": 1, "Y": 1, "Z": 2}
    return DollarCost(tuple(prices[o.top()] for o in election.orders))


def three_party_dollar_cb(budget: int) -> ProblemInstance:
    """As `three_party_unit_cb` but X voters cost $1 and Z voters $2."""
    instance = three_party_unit_cb(budget)
    return replace(instance, cost_model=_three_party_dollar_model(instance.election))


def three_party_dollar_cbp(budget: int) -> ProblemInstance:
    """Dollar variant with preferred party X needing 61% of the coalition."""
    return replace(three_party_dollar_cb(budget), preferred="X", rho=Fraction(61, 100))


def unanimous_four_party_borda_cb(budget: int) -> ProblemInstance:
    """Four voters all ranking c4 > c3 > c2 > c1; coalition {c1, c2}; Borda."""
    parties = ("c1", "c2", "c3", "c4")
    order = PreferenceOrder(("c4", "c3", "c2", "c1"))
    election = Election(
        parties=parties,
        voters=("v1", "v2", "v3", "v4"),
        orders=(order,) * 4,
    )
    return ProblemInstance(
        election=election,
        rule=ScoringRule.BORDA,
        threshold=Fraction(0),
        coalition=("c1", "c2"),
        phi=Fraction(1, 4),
        rho=Fraction(0),
        budget=budget,
        cost_model=UnitCost(),
    )


def sixteen_voter_shift_cbp(budget: int, multiplicative: bool = False) -> ProblemInstance:
    """16 voters, 3 parties, threshold 1/8, coalition-shift bribery.

    Voters 1-5 rank c1 first, voter 6 ranks c2 first, voters 7-16 rank c3
    first.  Voters 1, 7 and 8 charge 1 for a single inversion and 5 for two;
    everyone else charges 5 per inversion.  With ``multiplicative=True`` the
    cheap voters charge 1 per inversion instead, which makes every table a
    straight line through the origin.
    """
    parties = ("c1", "c2", "c3")
    front = PreferenceOrder(("c1", "c2", "c3"))
    middle = PreferenceOrder(("c2", "c3", "c1"))
    back = PreferenceOrder(("c3", "c1", "c2"))
    orders = (front,) * 5 + (middle,) + (back,) * 10
    election = Election(
        parties=parties,
        voters=tuple(f"v{i}" for i in range(1, 17)),
        orders=orders,
    )
    cheap_voters = {0, 6, 7}
    if multiplicative:
        cheap = (0, 1, 2, 3)
    else:
        cheap = (0, 1, 5, 5)
    steep = (0, 5, 10, 15)
    model = ShiftCost(
        tuple(cheap if i in cheap_voters else steep for i in range(16))
    )
    return ProblemInstance(
        election=election,
        rule=ScoringRule.PLURALITY,
        threshold=Fraction(1, 8),
        coalition=("c1", "c2"),
        preferred="c1",
        phi=Fraction(1, 2),
        rho=Fraction(3, 4),
        budget=budget,
        cost_model=model,
    )
