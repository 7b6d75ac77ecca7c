"""Exact bounded search over all admissible bribes.

Ground truth for the polynomial solvers on small instances and the exact
engine for the NP-hard variants at desk scale.  The search is organized as a
layered sweep: voters with identical orders and identical price data are
interchangeable, so the sweep branches over per-class option multisets, and
partial bribes are merged by what the goal test reads of their accumulated
scores.  A plurality voter's options are one cheapest replacement per
achievable top; a Borda voter's are its admissible orders.  Options with the
same effect on that key are merged into the cheapest of them.

A state's key is its score vector weighted per party, sum(s_p * weight[p]),
with the coalition's summed points as its top digit, at place value `high`;
`_keys` decides once per solve the weights, `high` and the goal test on a
key.  Under a threshold the key holds the whole vector in fields of
`width` bits: the i-th party weighs 2**(width * i), and a member high =
2**(width * m) more, with width = max(bits(n * top) + 1, bits(T + 1)) for
top the first place's points (`ScoringRule.points`) and T the grand total.
At threshold 0 every party is seated, so the goals read only the leader's
points and the coalition's: a member weighs high = T + 1, and the leader 1
more (when rho = 0 the leader is not read, and a member weighs high = 1).
Every state is a partly bribed profile, so each digit below the top lies
in [0, 2**(width - 1)), or at threshold 0 in [0, T], and keys are
injective: no digit carries, and the top digit, which nothing sits above,
may pass a field.  Each order's key is its places' points times its
parties' weights, cached per solve by its ranking; each option's delta is
the difference of two orders' keys, so a sweep step is one integer
addition.  A class layer is held in cost buckets, {total cost: keys first
reached at that cost}.  The last layer is never stored: its keys are tested
as they are built, cheapest first, and the witness is rebuilt by walking
back from the first key that meets the goals; so among plans of equal cost,
the one reported follows from the build order.

Every profile that meets the goals gives the coalition at least `_floor`
points.  Before the sweep, every class's options are listed, and going back
over the classes, `reach` holds for each suffix of them the front of (cost,
the most coalition points they add within it).  A key at total cost t after
a class is kept only if it is at least (floor - reach(cap - t)) * high, the
points the later classes can still add within the cap: one comparison per
key.  This prunes at every cap, none included.

Every voter's orders come from `enumerate_voter_options`.  With a cost cap,
options and partial bribes above it are dropped, and the search returns the
cheapest bribe under the cap.

The search refuses instances whose option spaces and sweep states together
outgrow the configured expansion budget instead of running unboundedly: one
meter per solve counts option enumeration and sweep steps alike, and the
refusal carries the expansion count reached.  Every class's enumeration is
charged before any sweep step.  Each option multiset within the cap is then
charged, before any is combined, the number of states in the buckets it is
combined with within the cap: the summed sizes of the (bucket, multiset)
pairs its layer keeps.
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
    seat_cut,
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
        self.what = what


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
    cost_cap: float, packed, high: int,
) -> list[tuple[int, int, int, PreferenceOrder]]:
    """(cost, packed delta, coalition gain, order) per option costing at most
    `cost_cap` (inf: no limit), by cost then delta; `packed(ranking)` is an
    order's packed key, whose top digit, key // `high`, is the coalition's
    points.  Options that share a delta move every key alike, so only the
    cheapest of them is kept.  Under a threshold no two share one (plurality
    options differ in their top, and distinct orders have distinct Borda
    score vectors); at threshold 0 many do, as the key reads only the
    coalition's and the leader's points."""
    if instance.rule is ScoringRule.PLURALITY:
        raw = _plurality_top_options(instance, voter)
    else:
        raw = enumerate_voter_options(instance, voter, meter, cost_cap)
    old = packed(instance.election.orders[voter].ranking)
    cheapest = {}
    for option in sorted(
        ((cost, packed(candidate.ranking) - old, candidate)
         for candidate, cost in raw if cost <= cost_cap),
        key=lambda option: option[:2],
    ):
        cheapest.setdefault(option[1], option)
    return [(cost, delta, (old + delta) // high - old // high, candidate)
            for cost, delta, candidate in cheapest.values()]


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


def _keys(instance: ProblemInstance):
    """The key scheme of one solve, laid out in the module docstring:
    `weight[party]`, the key of one point held by that party alone, so a
    score vector's key is sum(s_p * weight[p]) and deltas add; `high`, the
    coalition's place value; and `met(key)`, the goal test on a key.

    At threshold 0 every party is seated, so the goal reads the leader's
    points and the coalition's, against the grand total, and `met` splits
    the key at `high` into them.  Under a threshold every party's points
    decide who is seated, so the key holds the whole vector.  Every digit
    leaves its field's top bit, the guard, clear, and no sum of digits
    passes T < 2**width - 1.  `met` strips the top digit and subtracts the
    seat cut from every field at once with its guard set: a guard survives
    where its digit reaches the cut, and masks that digit in.  The seated
    points of all parties, of the coalition and of the leader are then each
    one remainder modulo 2**width - 1, and go to `core.goals_met`."""
    election = instance.election
    parties = election.parties
    total = instance.total
    if not instance.threshold:
        high = total + 1 if instance.rho else 1
        weight = {party: high * (party in instance.coalition) for party in parties}
        if instance.rho:
            weight[instance.leader] += 1

        def met(key: int) -> bool:
            coalition, leader = divmod(key, high)
            return goals_met(coalition, leader, total, instance)

        return weight, high, met

    most = election.num_voters * instance.rule.points(len(parties))[0]
    width = max(most.bit_length() + 1, (total + 1).bit_length())
    field = (1 << width) - 1
    high = 1 << width * len(parties)
    weight = {party: (1 << width * i) + high * (party in instance.coalition)
              for i, party in enumerate(parties)}
    ones = (high - 1) // field  # a 1 at the bottom of every field
    guards = ones << width - 1
    # the seat cut on every field at once; past 2**(width - 1) it seats no
    # digit, and clamped there it never borrows from the next field
    cut = min(seat_cut(total, instance.threshold), 1 << width - 1) * ones
    members = sum(field << width * parties.index(party) for party in instance.coalition)
    lead = width * parties.index(instance.leader)

    def met(key: int) -> bool:
        digits = key & high - 1
        seated = ((digits | guards) - cut) & guards
        digits &= seated - (seated >> width - 1)
        return goals_met((digits & members) % field, digits >> lead & field,
                         digits % field, instance)

    return weight, high, met


def _order_keys(instance: ProblemInstance, weight: dict):
    """`packed(ranking)`, the key of one order, cached per solve by its
    ranking: the sum of each place's points times its party's weight."""
    points = instance.rule.points(instance.election.num_parties)
    return cache(lambda ranking: sum([p * weight[party] for p, party in zip(points, ranking)]))


def _floor(instance: ProblemInstance) -> int:
    """The fewest points the whole coalition, seated or not, holds in any
    profile that meets the goals: max(0, ceil(phi * (T - k_out * max(0, need
    - 1)))), for the grand total T, the seat cut need = `core.seat_cut(T,
    threshold)` and the number of outsiders k_out.

    Each unseated outsider holds at most need - 1 points, so the seated
    outsiders hold O_s >= T - C - k_out * (need - 1), where C is the
    coalition's points.  The goal gives C_s * (phi_d - phi_n) >= phi_n * O_s
    for the seated coalition points C_s (or nobody is seated and phi = 0).
    Since C >= C_s, it follows that C * phi_d >= phi_n * (T - k_out * (need
    - 1)).  At threshold 0 the floor is ceil(phi * T), the CB goal itself."""
    need = seat_cut(instance.total, instance.threshold)
    rest = instance.total - len(instance.outsiders) * max(0, need - 1)
    phi = instance.phi
    return max(0, -(-phi.numerator * rest // phi.denominator))


def _front(pairs) -> tuple[list, list]:
    """The (cost, gain) pairs that no pair at most as dear matches, as the
    list of their costs and the list of their gains, by cost."""
    costs, gains = [], []
    for cost, gain in sorted(pairs, key=lambda pair: (pair[0], -pair[1])):
        if not gains or gain > gains[-1]:
            costs.append(cost)
            gains.append(gain)
    return costs, gains


def _next_layer(layer: dict, moves: list, limit: float, least):
    """The class layer after `layer`, as (total, fresh keys) pairs, cheapest
    total first: each pair of a bucket and a (cost, delta, multiset) move
    within the cap yields, as one set comprehension, the keys no cheaper
    pair reached among those at least `least(total)`."""
    pairs = sorted((cost + move[0], cost, move[1])
                   for cost in layer for move in moves if cost + move[0] <= limit)
    seen, last = set(), None
    for total, cost, delta in pairs:
        if total != last:
            last, bound = total, least(total)
        lowest = bound - delta
        # `-` probes `seen` once per new key; `-=` would walk `seen` itself.
        fresh = {key + delta for key in layer[cost] if key >= lowest} - seen
        if fresh:
            seen |= fresh
            yield total, fresh


def _search(
    instance: ProblemInstance, meter: _Meter, limit: float
) -> Optional[BribePlan]:
    """Cheapest goal-reaching bribe costing at most `limit` (inf: no limit),
    or None."""
    election = instance.election
    classes = _voter_classes(instance)
    weight, high, met = _keys(instance)
    packed = _order_keys(instance, weight)
    class_options = [
        _voter_effect_options(instance, members[0], meter, limit, packed, high)
        for members in classes]

    # reach[c]: the front of (cost, the most coalition points classes c,
    # c + 1, ... add within it); each starts at cost 0, as every class can
    # keep its orders
    reach = [([0], [0])]
    for members, options in zip(reversed(classes), reversed(class_options)):
        one = _front((option[0], option[2]) for option in options)
        front = reach[-1]
        for _ in members:
            front = _front((cost + c, gain + g) for cost, gain in zip(*one)
                           for c, g in zip(*front) if cost + c <= limit)
        reach.append(front)
    reach.reverse()
    floor = _floor(instance)

    def least(costs, gains):
        # the least key from which the classes `costs` and `gains` describe
        # can still lift the coalition's points to the floor within the cap
        return lambda total: max(
            0, floor - gains[bisect_right(costs, limit - total) - 1]) * high

    layers = [{0: {sum([packed(order.ranking) for order in election.orders])}}]
    class_moves = []
    for members, options, later in zip(classes, class_options, reach[1:]):
        layer = layers[-1]
        if not layer:
            return None
        totals = sorted(layer)
        below = list(itertools.accumulate((len(layer[total]) for total in totals), initial=0))
        moves = []
        # one multiset of options per class: members are interchangeable
        for combo in itertools.combinations_with_replacement(options, len(members)):
            cost = sum(option[0] for option in combo)
            if cost <= limit:
                # the states of the buckets it is combined with within the cap
                meter.charge(below[bisect_right(totals, limit - cost)])
                moves.append((cost, sum(option[1] for option in combo), combo))
        class_moves.append(moves)
        built = _next_layer(layer, moves, limit, least(*later))
        if len(class_moves) < len(classes):
            layer = {}
            for total, fresh in built:
                layer.setdefault(total, set()).update(fresh)
            layers.append(layer)
            meter.states += sum(map(len, layer.values()))

    # the last layer is never stored: its keys are tested as they are built
    for total, fresh in built:
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
        for voter, (*_, rep) in zip(members, combo):
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
    plan = _search(instance, _Meter(budget), inf)
    return (None, None) if plan is None else (plan.cost, plan)


def solve_np_hard(
    instance: ProblemInstance,
    cap: float,
    budget: SearchBudget = SearchBudget(),
    stats: Optional[dict] = None,
) -> Optional[BribePlan]:
    """Cheapest bribe costing at most `cap` (inf: no limit) for any
    variant, by the exact search, or None."""
    meter = _Meter(budget)
    plan = _search(instance, meter, cap)
    if stats is not None:
        stats["expansions"] = meter.count
        stats["states"] = meter.states
    return plan
