"""Exact bounded search over all admissible bribes.

Ground truth for the polynomial solvers on small instances and the exact
engine for the NP-hard variants at desk scale.  The search is organized as a
layered sweep: voters with identical orders and identical price data are
interchangeable, so the sweep branches over per-class option multisets, and
partial bribes are merged by what the goal test reads of their accumulated
scores.  A plurality voter's options are one cheapest replacement per
achievable top; a Borda voter's are its admissible orders.  Options with the
same effect on that key are merged into the cheapest of them.

A state's key packs the coordinates the goal reads off its score vector
into one integer, sum(c_i * R**i); `_keys` decides once per solve what they
are, their radix R and the goal test on a key.  Under a threshold they are
the whole vector, with R = n * top + 1, where top is the points of a first
place (1 for plurality, m - 1 for Borda).  At threshold 0 every party is
seated, so the goals read only the coalition's points and the leader's (the
coalition's alone when rho = 0), with R = T + 1 for the grand total T.
Every state is a partly bribed profile, so each coordinate lies in [0, R)
and the packing is injective: no digit carries.  Each option's delta is the
difference of two orders' keys, each packed once per solve, so a sweep step
is one integer addition.  A class layer is held in cost buckets, {total
cost: keys first reached at that cost}.  The last layer is never stored: its
keys are tested as they are built, cheapest first, and the witness is
rebuilt by walking back from the first key that meets the goals; so among
plans of equal cost, the one reported follows from the build order.

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
    grand_total,
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
    budget's limit, and the sweep states built, summed over the class layers
    (the last one only up to the first key that meets the goals)."""

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
    cost_cap: float = inf,
) -> list[tuple[PreferenceOrder, int]]:
    """Admissible replacement orders for one voter costing at most `cost_cap`
    (inf: no limit), with exact costs, cheapest first.

    Unit/dollar bribery prices every change alike, so it lists all m!
    permutations (under a cap below the price, only the current order).  Swap
    and shift orders come from `iter_orders`, cut at the cap; shift admits
    only orders in which nothing but coalition members rise.

    One work rule serves all four kinds.  When the cap admits every order
    (inf, or at least `max_voter_cost`), `count_orders` of them go to
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
        most = bisect_right(table, cost_cap) - 1
        shifts = iter_orders(order, may_rise, lambda x, y: 1, most)
        orders = ((candidate, table[inversions]) for candidate, inversions in shifts)
    else:
        price = model.voter_price(voter)
        candidates = (
            [order] if cost_cap < price
            else map(PreferenceOrder, itertools.permutations(order.ranking))
        )
        orders = ((candidate, 0 if candidate == order else price) for candidate in candidates)
    up_front = cost_cap >= model.max_voter_cost(voter, len(order))
    if up_front:
        meter.charge(count_orders(order, may_rise))
    options = []
    for candidate, cost in orders:
        if not up_front:
            meter.charge()
        if cost <= cost_cap:
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
    cost_cap: float, packed,
) -> list[tuple[int, int, PreferenceOrder]]:
    """(cost, packed delta, order) per option costing at most `cost_cap`
    (inf: no limit), by cost then delta; `packed(order)` is the order's
    packed key.  Options that share a delta move every key alike, so only
    the cheapest of them is kept.  Under a threshold no two share one
    (plurality options differ in their top, and distinct orders have
    distinct Borda score vectors); at threshold 0 many do, as the key reads
    only the coalition's and the leader's points."""
    if instance.rule is ScoringRule.PLURALITY:
        raw = _plurality_top_options(instance, voter)
    else:
        raw = enumerate_voter_options(instance, voter, meter, cost_cap)
    old = packed(instance.election.orders[voter])
    cheapest = {}
    for option in sorted(
        ((cost, packed(candidate) - old, candidate)
         for candidate, cost in raw if cost <= cost_cap),
        key=lambda option: option[:2],
    ):
        cheapest.setdefault(option[1], option)
    return list(cheapest.values())


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


def _keys(instance: ProblemInstance):
    """What a state's key holds: `coordinates(scores)`, the numbers the goal
    reads off a score vector in party order; `radix`, one more than the most
    any of them can hold; and `met(key)`, the goal test on a packed key,
    without unpacking it.  The coordinates are linear, so deltas add.

    At threshold 0 every party is seated, so the goal reads the coalition's
    points and the leader's (the coalition's alone when rho = 0), against
    the grand total T, and R = T + 1; the key is coalition + leader * R.
    Under a threshold every party's points decide who is seated, so the
    coordinates are the whole vector, and R = n * top + 1, with top the
    points of a first place.  The key then splits at R**(m // 2) into a low
    and a high half, each half's seated points (`core.seated_points`) are
    found once per distinct half, and their sums go to `core.goals_met`."""
    election = instance.election
    parties = election.parties
    if not instance.threshold:
        total = grand_total(election.num_voters, election.num_parties, instance.rule)
        radix = total + 1
        members = [parties.index(p) for p in instance.coalition]
        # the parties each coordinate sums: the coalition, then the leader
        groups = [members] if instance.rho == 0 else [members, [parties.index(instance.leader)]]

        def coordinates(scores):
            return tuple(sum([scores[i] for i in group]) for group in groups)

        def met(key: int) -> bool:
            leader, coalition = divmod(key, radix)
            return goals_met(coalition, leader, total, instance)

        return coordinates, radix, met

    top = 1 if instance.rule is ScoringRule.PLURALITY else election.num_parties - 1
    radix = election.num_voters * top + 1
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

    return tuple, radix, met


def _next_layer(layer: dict, moves: list, limit: float):
    """The class layer after `layer`, as (total, fresh keys) pairs, cheapest
    total first: each pair of a bucket and a (cost, delta, multiset) move
    yields the keys that no cheaper pair reached, as one set comprehension."""
    pairs = sorted((cost + move[0], cost, move[1])
                   for cost in layer for move in moves if cost + move[0] <= limit)
    seen = set()
    for total, cost, delta in pairs:
        # `-` probes `seen` once per new key; `-=` would walk `seen` itself.
        fresh = {key + delta for key in layer[cost]} - seen
        if fresh:
            seen |= fresh
            yield total, fresh


def _search(
    instance: ProblemInstance, meter: _Meter, cost_cap: Optional[int]
) -> Optional[BribePlan]:
    """Cheapest goal-reaching bribe costing at most `cost_cap`, or None."""
    election = instance.election
    classes = _voter_classes(instance)
    limit = inf if cost_cap is None else cost_cap

    # each order's key, packed once per solve; a profile's key is their sum
    coordinates, radix, met = _keys(instance)
    parties, rule = election.parties, instance.rule
    packed = cache(lambda order: _pack(
        coordinates(tuple(tally((order,), parties, rule).values())), radix))
    layers, width = [{0: {sum(map(packed, election.orders))}}], 1
    class_moves = []
    for members in classes:
        if class_moves:
            # the layer after the previous class, whose width the next charges read
            layer = {}
            for total, fresh in _next_layer(layers[-1], class_moves[-1], limit):
                layer.setdefault(total, set()).update(fresh)
            layers.append(layer)
            width = sum(map(len, layer.values()))
            meter.states += width
        options = _voter_effect_options(instance, members[0], meter, limit, packed)
        moves = []
        # one multiset of options per class: members are interchangeable
        for combo in itertools.combinations_with_replacement(options, len(members)):
            cost = sum(option[0] for option in combo)
            if cost <= limit:
                meter.charge(width)
                moves.append((cost, sum(option[1] for option in combo), combo))
        class_moves.append(moves)

    # the last layer is never stored: its keys are tested as they are built
    for total, fresh in _next_layer(layers[-1], class_moves[-1], limit):
        meter.states += len(fresh)
        key = next(filter(met, fresh), None)
        if key is not None:
            break
    else:
        return None

    cheapest = total
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
    return BribePlan(replacements, cheapest)


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
