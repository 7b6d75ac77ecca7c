"""Shared builders and reference implementations for the test suite."""

import itertools
import random
from fractions import Fraction

import pytest

from coalition_bribery.core import (
    Election,
    PreferenceOrder,
    ProblemInstance,
    check_goals,
)
from coalition_bribery.costs import (
    DollarCost,
    ShiftCost,
    SwapCost,
    UnitCost,
    plan_cost,
    apply_plan,
)
from coalition_bribery.dispatch import solver_for
from coalition_bribery.oracle import SearchBudget, enumerate_voter_options


def make_election(parties, rankings):
    orders = tuple(PreferenceOrder(tuple(r)) for r in rankings)
    voters = tuple(f"v{i}" for i in range(1, len(orders) + 1))
    return Election(tuple(parties), voters, orders)


def random_model(rng, kind, num_voters, num_parties, parties, max_price=3):
    if kind == "unit":
        return UnitCost()
    if kind == "dollar":
        return DollarCost(tuple(rng.randint(0, max_price) for _ in range(num_voters)))
    if kind == "swap":
        return SwapCost(
            tuple(
                {(x, y): rng.randint(0, max_price) for x in parties for y in parties if x != y}
                for _ in range(num_voters)
            )
        )
    tables = []
    for _ in range(num_voters):
        table = [0]
        for _ in range(num_parties * (num_parties - 1) // 2):
            table.append(table[-1] + rng.randint(0, max_price))
        tables.append(tuple(table))
    return ShiftCost(tuple(tables))


def random_problem(rng, rule, thresholded, kind, cbp, max_voters=5, max_parties=4,
                   budget=0):
    num_parties = rng.randint(2, max_parties)
    num_voters = rng.randint(1, max_voters)
    parties = tuple(f"p{i}" for i in range(num_parties))
    election = make_election(
        parties, [rng.sample(parties, num_parties) for _ in range(num_voters)]
    )
    model = random_model(rng, kind, num_voters, num_parties, parties)
    coalition = tuple(rng.sample(parties, rng.randint(1, num_parties)))
    den = rng.randint(1, 8)
    threshold = (
        Fraction(rng.randint(1, 2 * num_voters), 2 * num_voters)
        if thresholded
        else Fraction(0)
    )
    return ProblemInstance(
        election=election,
        rule=rule,
        threshold=threshold,
        coalition=coalition,
        preferred=coalition[0] if cbp else None,
        phi=Fraction(rng.randint(0, den), den),
        rho=Fraction(rng.randint(0, den), den) if cbp else Fraction(0),
        budget=budget,
        cost_model=model,
    )


def naive_optimum(instance):
    """Unpruned product search over full per-voter option lists."""
    election = instance.election
    per_voter = [
        enumerate_voter_options(instance, i) for i in range(election.num_voters)
    ]
    best = None
    for combo in itertools.product(*per_voter):
        orders = tuple(order for order, _ in combo)
        cost = sum(c for _, c in combo)
        if check_goals(orders, instance):
            best = cost if best is None else min(best, cost)
    return best


def assert_verifies(instance, plan):
    """A feasible answer must re-verify independently of its solver."""
    cost = plan_cost(instance.cost_model, instance.coalition, instance.election, plan)
    assert cost is not None, "plan contains an inadmissible replacement"
    assert cost == plan.cost
    assert cost <= instance.budget
    assert check_goals(apply_plan(instance.election, plan), instance)


def solve_at_budget(name, instance):
    """The named solver's verified plan within the instance's own budget
    (dispatch's zero-cost exit and witness check included), or None."""
    return solver_for(name, SearchBudget())(instance, instance.budget)


@pytest.fixture
def rng():
    return random.Random(20240811)
