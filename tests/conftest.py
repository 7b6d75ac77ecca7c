"""Shared builders and reference implementations for the test suite."""

import functools
import importlib.util
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from coalition_bribery.core import (
    Election,
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    check_goals,
)
from coalition_bribery.costs import BribePlan, apply_plan, lift_to_top, plan_cost
from coalition_bribery.dispatch import solver_for
from coalition_bribery.generators import _random_cost_model
from coalition_bribery.oracle import SearchBudget, _Meter, enumerate_voter_options
from coalition_bribery.reductions import _subset_party
from coalition_bribery.sample_instances import (
    _plurality_election,
    _three_party_dollar_model,
    three_party_dollar_cbp,
    unanimous_four_party_borda_cb,
)


def make_election(parties, rankings):
    orders = tuple(PreferenceOrder(tuple(r)) for r in rankings)
    voters = tuple(f"v{i}" for i in range(1, len(orders) + 1))
    return Election(tuple(parties), voters, orders)


random_model = functools.partial(_random_cost_model, max_price=3)


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


@functools.cache
def bench_workloads():
    """perfbench's `workloads` module, loaded once from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py",
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def unmet_case(variant, n, m, k, slot=0):
    """The benchmark's `random_case` (every price at least 1) with seed 1 at
    `slot`, at its first attempt whose goals are unmet at zero cost."""
    workloads = bench_workloads()
    return next(
        case for case in (workloads.random_case(variant, n, m, k, 1, slot, attempt)
                          for attempt in itertools.count())
        if workloads.unmet_at_zero(case)
    )


def naive_optimum(instance):
    """Unpruned product search over full per-voter option lists."""
    election = instance.election
    per_voter = [
        enumerate_voter_options(instance, i, _Meter(SearchBudget()))
        for i in range(election.num_voters)
    ]
    best = None
    for combo in itertools.product(*per_voter):
        orders = tuple(order for order, _ in combo)
        cost = sum(c for _, c in combo)
        if check_goals(orders, instance):
            best = cost if best is None else min(best, cost)
    return best


def min_plus(cells, steps, cap=None):
    """Plain unpruned min-plus combine: the cheapest cell-plus-step cost per
    summed key, within `cap` (None: no limit).  Keys are int tuples of any
    length; this is the reference the table kernel is checked against."""
    out = {}
    for key, cost in cells.items():
        for step, c in steps.items():
            total = cost + c
            if cap is not None and total > cap:
                continue
            summed = tuple(a + b for a, b in zip(key, step))
            if total < out.get(summed, total + 1):
                out[summed] = total
    return out


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


def validate_flow(network, flow):
    """Capacity, conservation and demand checks for an explicit flow."""
    if len(flow.values) != len(network.edges):
        return False
    balance = [0] * network.num_nodes
    for f, e in zip(flow.values, network.edges):
        if not 0 <= f <= e.capacity:
            return False
        balance[e.tail] -= f
        balance[e.head] += f
    ends = {network.source: -network.demand, network.sink: network.demand}
    if any(b != ends.get(v, 0) for v, b in enumerate(balance)):
        return False
    return flow.cost == sum(f * e.cost for f, e in zip(flow.values, network.edges))


def exact_covers(x):
    """Brute-force enumeration of an X3C source's exact covers, as tuples of
    subset indices; desk scale only."""
    for chosen in itertools.combinations(range(len(x.subsets)), x.universe_size // 4):
        if len({z for j in chosen for z in x.subsets[j]}) == x.universe_size:
            yield chosen


def has_bisection(x):
    """Brute-force check for an equal split with at most `bound` crossings."""
    for side in itertools.combinations(range(1, x.num_vertices + 1), x.num_vertices // 2):
        inside = set(side)
        if sum((u in inside) != (v in inside) for u, v in x.edges) <= x.bound:
            return True
    return False


def map_cover_to_bribe(cover, instance, which, x):
    """The plan a cover induces on a reduced instance, unverified: a
    non-cover simply yields a plan that fails verification.

    "plurality-shift" bribes each element voter to top the covering subset's
    party; "borda-unit" moves the whole coalition block ahead of the subset
    block for each covering subset's first voter.
    """
    election = instance.election
    coalition = set(instance.coalition)
    replacements = {}
    if which == "plurality-shift":
        for z in range(1, x.universe_size + 1):
            j = next((j for j in cover if z in x.subsets[j]), None)
            if j is not None:
                voter = election.voter_index(f"e{z}")
                replacements[voter] = lift_to_top(election.orders[voter], _subset_party(j))
    else:
        assert which == "borda-unit", which
        for j in cover:
            voter = election.voter_index(f"v{j + 1}")
            ranking = election.orders[voter].ranking
            mine, rest = ranking[:4], ranking[4:]
            replacements[voter] = PreferenceOrder(
                tuple(p for p in rest if p in coalition) + mine
                + tuple(p for p in rest if p not in coalition)
            )
    cost = plan_cost(instance.cost_model, instance.coalition, election,
                     BribePlan(replacements, 0))
    return BribePlan(replacements, -1 if cost is None else cost)


def three_party_dollar_cbp_replica(budget):
    """One-fifth scale replica of the dollar CBP fixture: 7/3/10 voters."""
    election = _plurality_election([("X", 7), ("Y", 3), ("Z", 10)], ("X", "Y", "Z"))
    return replace(three_party_dollar_cbp(budget), election=election,
                   cost_model=_three_party_dollar_model(election))


def unanimous_four_party_plurality_cb(budget):
    """Same profile as the Borda fixture but scored by plurality."""
    return replace(unanimous_four_party_borda_cb(budget), rule=ScoringRule.PLURALITY)


@pytest.fixture
def rng():
    return random.Random(20240811)
