"""Exact bounded search over all admissible bribes.

Ground truth for the polynomial solvers on small instances and the exact
engine for the NP-hard variants at desk scale.  The search is organized as a
layered sweep: voters with identical orders and identical price data are
interchangeable, so the sweep branches over per-class option multisets, and
partial bribes are merged by their accumulated score table (the goal test
depends on nothing else).  Option lists themselves are deduplicated by score
effect, which for plurality collapses them to one cheapest replacement per
achievable top.

A state's key is its score vector packed into one integer, sum(s_p * R**p)
with R = n * top + 1, where top is the points of a first place (1 for
plurality, m - 1 for Borda).  Every state is the score vector of a partly
bribed profile, so each s_p lies in [0, n * top] and the packing is
injective: no digit carries.  Each option's score delta is packed once, so a
sweep step is one integer addition; only the final states are unpacked for
the goal test.  Packed deltas are signed and not unique, so options are
deduplicated by their delta tuples, never by packed deltas.

Every voter's orders come from `enumerate_voter_options`.  With a cost cap,
options and partial bribes above it are dropped, and the search returns the
cheapest bribe under the cap.

The search refuses instances whose option spaces and sweep states together
outgrow the configured expansion budget instead of running unboundedly: one
meter per solve counts option enumeration and sweep steps alike, and the
refusal carries the expansion count reached.  The sweep charges once per
option multiset within the cap, one expansion per state it is combined with,
before combining them.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from math import inf
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
    SwapCost,
    UnitCost,
    bribe_cost,
    iter_orders,
    lift_to_top,
)


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits for the exact search."""

    max_expansions: int = 10_000_000


class OracleRefusal(RuntimeError):
    """The instance needs more expansions than the search budget allows."""

    def __init__(self, required: int, limit: int):
        super().__init__(
            f"exact search needs more than {limit} expansions "
            f"(stopped at {required})"
        )
        self.required = required
        self.limit = limit


class _Meter:
    """Work of one solve: expansions charged against the budget's limit, and
    the sweep states kept, summed over the class layers."""

    def __init__(self, budget: SearchBudget):
        self.limit = budget.max_expansions
        self.count = 0
        self.states = 0

    def charge(self, amount: int = 1):
        self.count += amount
        if self.count > self.limit:
            raise OracleRefusal(self.count, self.limit)


def enumerate_voter_options(
    instance: ProblemInstance, voter: int, meter: Optional[_Meter] = None,
    cost_cap: Optional[int] = None,
) -> list[tuple[PreferenceOrder, int]]:
    """Admissible replacement orders for one voter costing at most `cost_cap`
    (None: no limit), with exact costs, cheapest first.

    Unit/dollar bribery prices every change alike, so it lists all m!
    permutations.  Swap and shift orders come from `iter_orders`, cut at the
    cap; shift admits only orders in which nothing but coalition members rise.
    Expansions go to `meter` (a fresh default-budget one when None) before
    the orders are built: all m! up front for unit/dollar and uncapped swap,
    so a space that does not fit is refused unbuilt, else one per order
    yielded, which bounds the work because every prefix the generator keeps
    completes to an order within the cap.
    """
    order = instance.election.orders[voter]
    model = instance.cost_model
    if meter is None:
        meter = _Meter(SearchBudget())
    if isinstance(model, SwapCost):
        prices = model.pair_prices[voter]
        orders = iter_orders(order, order.ranking, lambda x, y: prices[x, y], cost_cap)
        up_front = cost_cap is None
    elif isinstance(model, ShiftCost):
        table = model.tables[voter]
        most = None if cost_cap is None else bisect_right(table, cost_cap) - 1
        shifts = iter_orders(order, instance.coalition, lambda x, y: 1, most)
        orders = ((candidate, table[inversions]) for candidate, inversions in shifts)
        up_front = False
    else:
        price = model.voter_price(voter)
        orders = (
            (candidate, 0 if candidate == order else price)
            for candidate in map(PreferenceOrder, itertools.permutations(order.ranking))
        )
        up_front = True
    if up_front:
        meter.charge(math.factorial(len(order)))
    options = []
    for candidate, cost in orders:
        if not up_front:
            meter.charge()
        if cost_cap is None or cost <= cost_cap:
            options.append((candidate, cost))
    return sorted(options, key=lambda item: (item[1], item[0].ranking))


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
    for party in election.parties:
        if party == order.top():
            continue
        lifted = lift_to_top(order, party)
        cost = bribe_cost(model, voter, order, lifted, instance.coalition)
        if cost is not None:
            options.append((lifted, cost))
    return options


def _voter_effect_options(
    instance: ProblemInstance, voter: int, meter: _Meter,
    cost_cap: Optional[int],
) -> list[tuple[tuple[int, ...], int, PreferenceOrder]]:
    """(score delta, cost, representative order), deduplicated by delta."""
    election = instance.election
    if instance.rule is ScoringRule.PLURALITY:
        raw = _plurality_top_options(instance, voter)
    else:
        raw = enumerate_voter_options(instance, voter, meter, cost_cap)
    order = election.orders[voter]
    best: dict[tuple[int, ...], tuple[int, PreferenceOrder]] = {}
    for candidate, cost in raw:
        if cost_cap is not None and cost > cost_cap:
            continue
        delta = _score_delta(order, candidate, election.parties, instance.rule)
        if cost < best.get(delta, (inf, None))[0]:
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


def _score_radix(instance: ProblemInstance) -> int:
    """One more than the most points any party can hold: n times the points
    of a top place."""
    election = instance.election
    top = 1 if instance.rule is ScoringRule.PLURALITY else election.num_parties - 1
    return election.num_voters * top + 1


def _pack(vector, radix: int) -> int:
    """sum(vector[p] * radix**p); for signed deltas too, though only vectors
    with every entry in [0, radix) pack injectively."""
    key = 0
    for value in reversed(vector):
        key = key * radix + value
    return key


def _unpack(key: int, radix: int, length: int) -> tuple[int, ...]:
    """The vector of `length` entries in [0, radix) that `_pack` maps to `key`."""
    digits = []
    for _ in range(length):
        key, digit = divmod(key, radix)
        digits.append(digit)
    return tuple(digits)


def _search(
    instance: ProblemInstance, meter: _Meter, cost_cap: Optional[int]
) -> Optional[BribePlan]:
    """Cheapest goal-reaching bribe costing at most `cost_cap`, or None."""
    election = instance.election
    classes = _voter_classes(instance)
    limit = inf if cost_cap is None else cost_cap

    parties = election.parties
    radix = _score_radix(instance)
    base = _pack(
        [sum(score(o, p, instance.rule) for o in election.orders) for p in parties],
        radix,
    )
    states: dict[int, int] = {base: 0}
    trail: list[dict[int, tuple[int, tuple[int, ...]]]] = []
    class_options = []
    for members in classes:
        options = _voter_effect_options(instance, members[0], meter, cost_cap)
        class_options.append(options)
        deltas = [_pack(delta, radix) for delta, _, _ in options]
        costs = [cost for _, cost, _ in options]
        nxt: dict[int, int] = {}
        bp: dict[int, tuple[int, tuple[int, ...]]] = {}
        # one multiset of options per class: members are interchangeable
        for combo in itertools.combinations_with_replacement(
            range(len(options)), len(members)
        ):
            cost = sum(costs[idx] for idx in combo)
            if cost > limit:
                continue
            meter.charge(len(states))
            delta = sum(deltas[idx] for idx in combo)
            for state, state_cost in states.items():
                total = state_cost + cost
                if total > limit:
                    continue
                key = state + delta
                if total < nxt.get(key, inf):
                    nxt[key] = total
                    bp[key] = (state, combo)
        states = nxt
        meter.states += len(states)
        trail.append(bp)

    best_key, best_cost = None, inf
    for state, cost in states.items():
        if cost >= best_cost:
            continue
        scores = dict(zip(parties, _unpack(state, radix, len(parties))))
        if check_goals_from_scores(scores, instance):
            best_key, best_cost = state, cost
    if best_key is None:
        return None

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
    return BribePlan(replacements, best_cost)


def oracle_solve(
    instance: ProblemInstance, budget: SearchBudget = SearchBudget()
) -> tuple[Optional[int], Optional[BribePlan]]:
    """Cheapest cost of any goal-reaching bribe, with witness.

    Returns (None, None) when no bribe of any cost reaches the goals.  The
    instance's own budget field is ignored here.
    """
    if check_goals(instance.election.orders, instance):
        return 0, BribePlan.empty()
    plan = _search(instance, _Meter(budget), cost_cap=None)
    return (None, None) if plan is None else (plan.cost, plan)


def solve_np_hard(
    instance: ProblemInstance,
    cap: Optional[int],
    budget: SearchBudget = SearchBudget(),
    stats: Optional[dict] = None,
) -> Optional[BribePlan]:
    """Cheapest bribe costing at most `cap` (None: no limit) for any
    variant, by the exact search, or None."""
    meter = _Meter(budget)
    plan = _search(instance, meter, cap)
    if stats is not None:
        stats["expansions"] = meter.count
        stats["states"] = meter.states
    return plan
