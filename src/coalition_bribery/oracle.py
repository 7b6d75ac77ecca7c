"""Exact bounded search over all admissible bribes.

Ground truth for the polynomial solvers on small instances and the exact
engine for the NP-hard variants at desk scale.  The search is organized as a
layered sweep: voters with identical orders and identical price data are
interchangeable, so the sweep branches over per-class option multisets, and
partial bribes are merged by their accumulated score table (the goal test
depends on nothing else).  Option lists themselves are deduplicated by score
effect, which for plurality collapses them to one cheapest replacement per
achievable top.

The search refuses instances whose option spaces or sweep states outgrow the
configured expansion budget instead of running unboundedly; the refusal
carries the expansion count that would have been needed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    DomainError,
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    check_goals,
    check_goals_from_scores,
    score,
)
from .costs import (
    BribePlan,
    DollarCost,
    ShiftCost,
    SolveOutcome,
    SwapCost,
    UnitCost,
    WitnessError,
    apply_plan,
    bribe_cost,
    iter_shift_orders,
    lift_to_top,
    plan_cost,
)

INF = float("inf")


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits for the exact search."""

    max_expansions: int = 10_000_000
    max_voters: Optional[int] = None
    max_parties: Optional[int] = None
    prune: bool = True


class OracleRefusal(RuntimeError):
    """The instance needs more expansions than the search budget allows."""

    def __init__(self, required: int, limit: int):
        super().__init__(
            f"exact search needs about {required} expansions, limit is {limit}"
        )
        self.required = required
        self.limit = limit


class _Meter:
    def __init__(self, budget: SearchBudget):
        self.limit = budget.max_expansions
        self.count = 0

    def charge(self, amount: int = 1):
        self.count += amount
        if self.count > self.limit:
            raise OracleRefusal(self.count, self.limit)


def enumerate_voter_options(
    instance: ProblemInstance, voter: int, budget: SearchBudget = SearchBudget()
) -> list[tuple[PreferenceOrder, int]]:
    """All admissible replacement orders for one voter, with exact costs.

    Unit/dollar and swap bribery admit every permutation; shift bribery only
    the orders in which nothing but coalition members rise.  Refuses when the
    permutation space alone exceeds the expansion budget.
    """
    election = instance.election
    order = election.orders[voter]
    model = instance.cost_model
    meter = _Meter(budget)
    options: dict[PreferenceOrder, int] = {}
    if isinstance(model, ShiftCost):
        for candidate, inversions in iter_shift_orders(order, instance.coalition):
            meter.charge()
            cost = model.tables[voter][inversions]
            if cost < options.get(candidate, INF):
                options[candidate] = cost
    else:
        space = math.factorial(election.num_parties)
        if space > budget.max_expansions:
            raise OracleRefusal(space, budget.max_expansions)
        for perm in itertools.permutations(election.parties):
            meter.charge()
            candidate = PreferenceOrder(perm)
            cost = bribe_cost(model, voter, order, candidate, instance.coalition)
            if cost is not None and cost < options.get(candidate, INF):
                options[candidate] = cost
    return sorted(options.items(), key=lambda item: (item[1], item[0].ranking))


def _score_delta(
    order: PreferenceOrder, new: PreferenceOrder, parties, rule: ScoringRule
) -> tuple[int, ...]:
    return tuple(
        score(new, p, rule) - score(order, p, rule) for p in parties
    )


def _plurality_top_options(
    instance: ProblemInstance, voter: int
) -> list[tuple[PreferenceOrder, int]]:
    """One cheapest replacement per achievable top; exact for plurality goals."""
    election = instance.election
    order = election.orders[voter]
    model = instance.cost_model
    options = [(order, 0)]
    if isinstance(model, (UnitCost, DollarCost)):
        price = 1 if isinstance(model, UnitCost) else model.prices[voter]
        for party in election.parties:
            if party != order.top():
                options.append((lift_to_top(order, party), price))
    else:
        for party in election.parties:
            if party == order.top():
                continue
            lifted = lift_to_top(order, party)
            cost = bribe_cost(model, voter, order, lifted, instance.coalition)
            if cost is not None:
                options.append((lifted, cost))
    return options


def _voter_effect_options(
    instance: ProblemInstance, voter: int, budget: SearchBudget,
    cost_cap: Optional[int],
) -> list[tuple[tuple[int, ...], int, PreferenceOrder]]:
    """(score delta, cost, representative order), deduplicated by delta."""
    election = instance.election
    model = instance.cost_model
    if instance.rule is ScoringRule.PLURALITY:
        raw = _plurality_top_options(instance, voter)
    elif isinstance(model, ShiftCost):
        meter = _Meter(budget)
        raw = []
        max_inv = None
        if cost_cap is not None:
            table = model.tables[voter]
            max_inv = max(
                (k for k in range(len(table)) if table[k] <= cost_cap), default=0
            )
        for candidate, inversions in iter_shift_orders(
            election.orders[voter], instance.coalition, max_inversions=max_inv
        ):
            meter.charge()
            raw.append((candidate, model.tables[voter][inversions]))
    else:
        raw = enumerate_voter_options(instance, voter, budget)
    order = election.orders[voter]
    best: dict[tuple[int, ...], tuple[int, PreferenceOrder]] = {}
    for candidate, cost in raw:
        if cost_cap is not None and cost > cost_cap:
            continue
        delta = _score_delta(order, candidate, election.parties, instance.rule)
        if cost < best.get(delta, (INF, None))[0]:
            best[delta] = (cost, candidate)
    return [
        (delta, cost, rep)
        for delta, (cost, rep) in sorted(
            best.items(), key=lambda kv: (kv[1][0], kv[0])
        )
    ]


def _voter_classes(instance: ProblemInstance) -> list[list[int]]:
    """Groups of voters with identical orders and identical price data."""
    model = instance.cost_model
    groups: dict[tuple, list[int]] = {}
    for i, order in enumerate(instance.election.orders):
        if isinstance(model, UnitCost):
            fingerprint = ()
        elif isinstance(model, DollarCost):
            fingerprint = (model.prices[i],)
        elif isinstance(model, SwapCost):
            fingerprint = tuple(sorted(model.pair_prices[i].items()))
        elif isinstance(model, ShiftCost):
            fingerprint = tuple(model.tables[i])
        else:
            raise DomainError(f"unknown cost model {model!r}")
        groups.setdefault((order.ranking, fingerprint), []).append(i)
    return list(groups.values())


def _search(
    instance: ProblemInstance,
    budget: SearchBudget,
    cost_cap: Optional[int],
) -> tuple[Optional[int], Optional[BribePlan]]:
    """Minimum goal-reaching bribe cost (and plan), or (None, None)."""
    election = instance.election
    if budget.max_voters is not None and election.num_voters > budget.max_voters:
        raise OracleRefusal(election.num_voters, budget.max_voters)
    if budget.max_parties is not None and election.num_parties > budget.max_parties:
        raise OracleRefusal(election.num_parties, budget.max_parties)
    classes = _voter_classes(instance)
    meter = _Meter(budget)

    parties = election.parties
    base = tuple(
        sum(score(o, p, instance.rule) for o in election.orders) for p in parties
    )
    zero = tuple(0 for _ in parties)
    states: dict[tuple[int, ...], int] = {zero: 0}
    trail: list[dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]] = []
    class_options = []
    for members in classes:
        options = _voter_effect_options(instance, members[0], budget, cost_cap)
        class_options.append(options)
        nxt: dict[tuple[int, ...], int] = {}
        bp: dict[tuple[int, ...], tuple] = {}
        # one multiset of options per class: members are interchangeable
        for combo in itertools.combinations_with_replacement(
            range(len(options)), len(members)
        ):
            delta = zero
            cost = 0
            for idx in combo:
                d, c, _rep = options[idx]
                delta = tuple(a + b for a, b in zip(delta, d))
                cost += c
            if cost_cap is not None and budget.prune and cost > cost_cap:
                continue
            for state, state_cost in states.items():
                meter.charge()
                total = state_cost + cost
                if cost_cap is not None and budget.prune and total > cost_cap:
                    continue
                key = tuple(a + b for a, b in zip(state, delta))
                if total < nxt.get(key, INF):
                    nxt[key] = total
                    bp[key] = (state, combo)
        states = nxt
        trail.append(bp)

    best_key, best_cost = None, INF
    for state, cost in states.items():
        scores = dict(zip(parties, (a + b for a, b in zip(base, state))))
        if check_goals_from_scores(scores, instance) and cost < best_cost:
            best_key, best_cost = state, cost
    if best_key is None:
        return None, None

    replacements: dict[int, PreferenceOrder] = {}
    key = best_key
    for members, options, bp in zip(
        reversed(classes), reversed(class_options), reversed(trail)
    ):
        prev, combo = bp[key]
        for voter, idx in zip(members, combo):
            rep = options[idx][2]
            if rep != election.orders[voter]:
                replacements[voter] = rep
        key = prev
    plan = BribePlan(replacements, best_cost)
    verified = plan_cost(
        instance.cost_model, instance.coalition, election, plan
    )
    if verified != best_cost:
        raise WitnessError("search plan cost disagrees with the table")
    if not check_goals(apply_plan(election, plan), instance):
        raise WitnessError("search plan misses the goals")
    return best_cost, plan


def oracle_solve(
    instance: ProblemInstance, budget: SearchBudget = SearchBudget()
) -> tuple[Optional[int], Optional[BribePlan]]:
    """Cheapest cost of any goal-reaching bribe, with witness.

    Returns (None, None) when no bribe of any cost reaches the goals.  The
    instance's own budget field is ignored here; use `solve_np_hard` for the
    decision problem.
    """
    if check_goals(instance.election.orders, instance):
        return 0, BribePlan.empty()
    return _search(instance, budget, cost_cap=None)


def solve_np_hard(
    instance: ProblemInstance, budget: SearchBudget = SearchBudget()
) -> SolveOutcome:
    """Exact decision for any variant, pruned at the instance's budget."""
    if check_goals(instance.election.orders, instance):
        return SolveOutcome.yes(BribePlan.empty())
    cap = instance.budget if budget.prune else None
    cost, plan = _search(instance, budget, cost_cap=cap)
    if cost is None or cost > instance.budget:
        return SolveOutcome.no()
    return SolveOutcome.yes(plan)
