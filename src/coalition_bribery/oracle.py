"""Exact bounded search over all admissible bribes.

Ground truth for the polynomial solvers on small instances and the exact
engine for the NP-hard variants at desk scale.  The search is organized as a
layered sweep: voters with identical orders and identical price data are
interchangeable, so the sweep branches over per-class option multisets, and
partial bribes are merged by their accumulated score table (the goal test
depends on nothing else).  A plurality voter's options are one cheapest
replacement per achievable top; a Borda voter's are its admissible orders.
Either way no two options share a score effect.

A state's key is its score vector packed into one integer, sum(s_p * R**p)
with R = n * top + 1, where top is the points of a first place (1 for
plurality, m - 1 for Borda).  Every state is the score vector of a partly
bribed profile, so each s_p lies in [0, n * top] and the packing is
injective: no digit carries.  Each option's score delta is the difference
of two orders' packed score vectors, each packed once per solve, so a sweep
step is one integer addition.  A class layer is held in cost buckets,
{total cost: keys first reached at that cost}.  The final buckets are
scanned cheapest first, each key tested on its two halves' seated points
(`_packed_goal`), and the witness is rebuilt by walking back from the first
key that meets the goals; so among plans of equal cost, the one reported
follows from the bucket order.

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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from math import inf
from typing import Optional

from .core import (
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    check_goals,
    goals_met,
    seated_points,
    tally,
)
from .costs import (
    BribePlan,
    ShiftCost,
    SwapCost,
    bribe_cost,
    count_orders,
    iter_orders,
    lift_to_top,
)


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits for the exact search."""

    max_expansions: int = 10_000_000


class OracleRefusal(RuntimeError):
    """The instance needs more expansions than the search budget allows;
    `what` names the work that ran out."""

    def __init__(self, required: int, limit: int, what: str):
        super().__init__(
            f"{what} needs more than {limit} expansions "
            f"(stopped at {required})"
        )
        self.required = required
        self.limit = limit


class _Meter:
    """Work of one solve, named by `what`: expansions charged against the
    budget's limit, and the sweep states kept, summed over the class layers."""

    def __init__(self, budget: SearchBudget, what: str = "exact search"):
        self.limit = budget.max_expansions
        self.what = what
        self.count = 0
        self.states = 0

    def charge(self, amount: int = 1):
        self.count += amount
        if self.count > self.limit:
            raise OracleRefusal(self.count, self.limit, self.what)


def enumerate_voter_options(
    instance: ProblemInstance, voter: int, meter: _Meter,
    cost_cap: Optional[int] = None,
) -> list[tuple[PreferenceOrder, int]]:
    """Admissible replacement orders for one voter costing at most `cost_cap`
    (None: no limit), with exact costs, cheapest first.

    Unit/dollar bribery prices every change alike, so it lists all m!
    permutations (under a cap below the price, only the current order).  Swap
    and shift orders come from `iter_orders`, cut at the cap; shift admits
    only orders in which nothing but coalition members rise.

    One work rule serves all four kinds.  When the cap admits every order (no
    cap, or one of at least `max_voter_cost`), `count_orders` of them go to
    `meter` before any is built, so a space that does not fit is refused
    unbuilt.  Otherwise each order built costs one expansion; only orders
    within the cap are built, as every prefix `iter_orders` keeps completes.
    """
    order = instance.election.orders[voter]
    model = instance.cost_model
    may_rise = order.ranking
    if isinstance(model, SwapCost):
        prices = model.pair_prices[voter]
        orders = iter_orders(order, may_rise, lambda x, y: prices[x, y], cost_cap)
    elif isinstance(model, ShiftCost):
        may_rise = instance.coalition
        table = model.tables[voter]
        most = None if cost_cap is None else bisect_right(table, cost_cap) - 1
        shifts = iter_orders(order, may_rise, lambda x, y: 1, most)
        orders = ((candidate, table[inversions]) for candidate, inversions in shifts)
    else:
        price = model.voter_price(voter)
        candidates = (
            [order] if cost_cap is not None and cost_cap < price
            else map(PreferenceOrder, itertools.permutations(order.ranking))
        )
        orders = ((candidate, 0 if candidate == order else price) for candidate in candidates)
    up_front = cost_cap is None or cost_cap >= model.max_voter_cost(voter, len(order))
    if up_front:
        meter.charge(count_orders(order, may_rise))
    options = []
    for candidate, cost in orders:
        if not up_front:
            meter.charge()
        if cost_cap is None or cost <= cost_cap:
            options.append((candidate, cost))
    return sorted(options, key=lambda item: (item[1], item[0].ranking))


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
    cost_cap: Optional[int], packed,
) -> list[tuple[int, int, PreferenceOrder]]:
    """(cost, packed score delta, order) per option within the cap, by cost
    then delta; `packed(order)` is the order's packed score vector.  Deltas
    are distinct: plurality options differ in their top, and distinct orders
    have distinct Borda score vectors."""
    if instance.rule is ScoringRule.PLURALITY:
        raw = _plurality_top_options(instance, voter)
    else:
        raw = enumerate_voter_options(instance, voter, meter, cost_cap)
    old = packed(instance.election.orders[voter])
    options = [
        (cost, packed(candidate) - old, candidate)
        for candidate, cost in raw
        if cost_cap is None or cost <= cost_cap
    ]
    return sorted(options, key=lambda option: option[:2])


def _voter_classes(instance: ProblemInstance) -> list[list[int]]:
    """Groups of voters with identical orders and identical price data."""
    model = instance.cost_model
    groups: dict[tuple, list[int]] = {}
    for i, order in enumerate(instance.election.orders):
        if isinstance(model, SwapCost):
            fingerprint = tuple(sorted(model.pair_prices[i].items()))
        elif isinstance(model, ShiftCost):
            fingerprint = tuple(model.tables[i])
        else:
            fingerprint = model.voter_price(i)
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


def _packed_scores(instance: ProblemInstance, radix: int):
    """`packed(order)`: the order's score vector packed, once per order."""
    parties, rule = instance.election.parties, instance.rule
    return cache(lambda order: _pack(tally((order,), parties, rule).values(), radix))


def _packed_goal(instance: ProblemInstance, radix: int):
    """The goal test on a packed key, without unpacking it: the key splits at
    radix**(m // 2) into a low and a high half, each half's seated points
    (`core.seated_points`) are found once per distinct half, and their sums
    go to `core.goals_met`."""
    parties = instance.election.parties
    cut = len(parties) // 2
    split = radix ** cut

    def half(part):
        points = seated_points(instance, part)
        return cache(lambda key: points(_unpack(key, radix, len(part))))

    low_points, high_points = half(parties[:cut]), half(parties[cut:])

    def met(key: int) -> bool:
        high, low = divmod(key, split)
        lo, hi = low_points(low), high_points(high)
        return goals_met(lo[0] + hi[0], lo[1] + hi[1], lo[2] + hi[2], instance)

    return met


def _next_layer(layer: dict, moves: list, limit: float) -> dict:
    """The class layer after `layer`: each pair of a bucket and a (cost,
    delta, multiset) move, cheapest total first, adds the keys that no cheaper
    pair reached, as one set comprehension."""
    pairs = sorted((cost + move[0], cost, move[1])
                   for cost in layer for move in moves if cost + move[0] <= limit)
    nxt, seen = {}, set()
    for total, cost, delta in pairs:
        # `-` probes `seen` once per new key; `-=` would walk `seen` itself.
        fresh = {key + delta for key in layer[cost]} - seen
        if fresh:
            seen |= fresh
            nxt.setdefault(total, set()).update(fresh)
    return nxt


def _search(
    instance: ProblemInstance, meter: _Meter, cost_cap: Optional[int]
) -> Optional[BribePlan]:
    """Cheapest goal-reaching bribe costing at most `cost_cap`, or None."""
    election = instance.election
    classes = _voter_classes(instance)
    limit = inf if cost_cap is None else cost_cap

    parties = election.parties
    radix = _score_radix(instance)
    packed = _packed_scores(instance, radix)
    base = _pack(tally(election.orders, parties, instance.rule).values(), radix)
    layers, width = [{0: {base}}], 1
    class_moves = []
    for members in classes:
        options = _voter_effect_options(instance, members[0], meter, cost_cap, packed)
        moves = []
        # one multiset of options per class: members are interchangeable
        for combo in itertools.combinations_with_replacement(options, len(members)):
            cost = sum(option[0] for option in combo)
            if cost <= limit:
                meter.charge(width)
                moves.append((cost, sum(option[1] for option in combo), combo))
        class_moves.append(moves)
        layers.append(_next_layer(layers[-1], moves, limit))
        width = sum(map(len, layers[-1].values()))
        meter.states += width

    met = _packed_goal(instance, radix)
    final = layers.pop()
    found = next(((total, key) for total in sorted(final) for key in final[total]
                  if met(key)), None)
    if found is None:
        return None

    total, key = found
    replacements: dict[int, PreferenceOrder] = {}
    for members, moves, layer in zip(
            reversed(classes), reversed(class_moves), reversed(layers)):
        # the first move whose source key sits in the bucket at the remaining cost
        cost, delta, combo = next(
            move for move in moves if key - move[1] in layer.get(total - move[0], ()))
        for voter, (_, _, rep) in zip(members, combo):
            if rep != election.orders[voter]:
                replacements[voter] = rep
        total, key = total - cost, key - delta
    return BribePlan(replacements, found[0])


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
