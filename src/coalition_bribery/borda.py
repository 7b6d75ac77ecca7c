"""Zero-threshold Borda under unit, dollar and shift bribery.

Per voter we tabulate the cheapest replacement realizing each pair
(points for the coalition minus its leader, points for the leader).  Under
unit/dollar pricing any permutation is available, so a pair is priced 0
(already realized), p_i (attainable) or infinity; attainability reduces to
slot-counting around the leader's forced rank.  Under shift bribery the
coalition members split into a group kept below the leader and a group moved
above it; both groups trade exactly one inversion per extra point, so the
reachable pairs per split form an interval whose cheapest realizations we
read off three explicitly constructed extreme orders.

A voter-by-voter table then accumulates the cheapest bribes per total
(coalition points ka, leader points k1), and the final scan picks the
cheapest total meeting the support and ratio targets: with a zero threshold
every party is seated, so the test is `core.goals_met(ka, k1, total)`.
Cells above the cost cap are dropped, as costs only grow.  Per ka a layer
keeps only its Pareto front of (lower cost, more leader points); this is
exact because every later voter adds the same gain to any cell and the ratio
test k1 >= rho * ka is monotone in k1.  When rho = 0 the front is the single
cheapest cell per ka.
"""

from __future__ import annotations

from math import inf
from typing import Optional

from .core import (
    DomainError,
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    goals_met,
    grand_total,
    score,
)
from .costs import (
    BribePlan,
    DollarCost,
    ShiftCost,
    UnitCost,
    WitnessError,
    inverted_pairs,
)


def _side_ranges(m: int, k1: int, l_down: int, l_up: int):
    """Point intervals for the below/above groups, or None if they don't fit."""
    if l_down > k1 or l_up > m - k1 - 1:
        return None
    down_lo = l_down * (l_down - 1) // 2
    down_hi = l_down * k1 - l_down * (l_down + 1) // 2
    up_lo = l_up * k1 + l_up * (l_up + 1) // 2
    up_hi = l_up * m - l_up * (l_up + 1) // 2
    return (down_lo, down_hi), (up_lo, up_hi)


def attainable(k_rest: int, k1: int, m: int, rest_size: int) -> bool:
    """Whether any order gives the leader k1 points and the rest k_rest."""
    if not 0 <= k1 <= m - 1:
        return False
    for l_down in range(rest_size + 1):
        l_up = rest_size - l_down
        ranges = _side_ranges(m, k1, l_down, l_up)
        if ranges is None:
            continue
        (dlo, dhi), (ulo, uhi) = ranges
        if dlo + ulo <= k_rest <= dhi + uhi:
            return True
    return False


def _distinct_values_with_sum(lo: int, hi: int, count: int, total: int) -> list[int]:
    """`count` distinct integers in [lo, hi] summing to `total` (greedy)."""
    values = list(range(lo, lo + count))
    surplus = total - sum(values)
    assert surplus >= 0
    for j in range(count - 1, -1, -1):
        ceiling = hi - (count - 1 - j)
        bump = min(surplus, ceiling - values[j])
        values[j] += bump
        surplus -= bump
    assert surplus == 0, "target sum out of range"
    return values


def realize_pair(
    m: int,
    leader: str,
    rest: tuple[str, ...],
    outsiders: tuple[str, ...],
    k_rest: int,
    k1: int,
) -> PreferenceOrder:
    """Some order realizing (k_rest, k1); caller guarantees attainability."""
    for l_down in range(len(rest) + 1):
        l_up = len(rest) - l_down
        ranges = _side_ranges(m, k1, l_down, l_up)
        if ranges is None:
            continue
        (dlo, dhi), (ulo, uhi) = ranges
        if not dlo + ulo <= k_rest <= dhi + uhi:
            continue
        down_sum = min(dhi, max(dlo, k_rest - uhi))
        up_sum = k_rest - down_sum
        down_values = _distinct_values_with_sum(0, k1 - 1, l_down, down_sum)
        up_values = _distinct_values_with_sum(k1 + 1, m - 1, l_up, up_sum)
        value_of = {leader: k1}
        for party, v in zip(rest, up_values + down_values):
            value_of[party] = v
        taken = set(value_of.values())
        free = [v for v in range(m - 1, -1, -1) if v not in taken]
        for party, v in zip(outsiders, free):
            value_of[party] = v
        ranking = sorted(value_of, key=lambda p: -value_of[p])
        return PreferenceOrder(tuple(ranking))
    raise DomainError(f"pair ({k_rest}, {k1}) is not attainable")


def price_menu(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    outsiders: tuple[str, ...],
    price: int,
) -> dict[tuple[int, int], int]:
    """Unit/dollar menu: cost per attainable (k_rest, k1) pair for one voter."""
    m = len(order)
    current = (
        sum(m - order.position(p) for p in rest),
        m - order.position(leader),
    )
    menu = {}
    for k1 in range(m):
        for k_rest in range(len(rest) * (m - 1) + 1):
            if attainable(k_rest, k1, m, len(rest)):
                menu[(k_rest, k1)] = price
    menu[current] = 0
    return menu


class _ShiftGeometry:
    """Extreme placements for one (split, leader rank) under shift bribery."""

    def __init__(self, order: PreferenceOrder, leader: str, rest: tuple[str, ...],
                 k1: int, l_up: int):
        self.order = order
        self.leader = leader
        m = len(order)
        self.m = m
        self.q = m - k1
        self.rest_sorted = sorted(rest, key=order.position)
        self.up = self.rest_sorted[:l_up]
        self.down = self.rest_sorted[l_up:]
        self.feasible = self._check()

    def _check(self) -> bool:
        order, q = self.order, self.q
        if order.position(self.leader) < q:
            # The leader never sinks on its own; pairs demanding that are
            # dominated by pairs where it keeps its rank.
            return False
        if len(self.up) > q - 1 or len(self.down) > self.m - q:
            return False
        self.up_slots = self._up_slots()
        base = self._build(self.up_slots, self._baseline_down_slots(self.up_slots))
        if base is None:
            return False
        self.base_order = base
        return True

    def _up_slots(self) -> list[int]:
        """Lowest admissible slots above the leader, one per upper member."""
        slots = []
        next_slot = self.q - 1
        for party in reversed(self.up):
            s = min(next_slot, self.order.position(party))
            slots.append(s)
            next_slot = s - 1
        slots.reverse()
        return slots

    def _baseline_down_slots(self, up_slots: list[int]) -> Optional[list[int]]:
        """Slots of the lower members when nothing below the leader moves."""
        taken = set(up_slots) | {self.q}
        remainder = [
            p for p in self.order.ranking
            if p != self.leader and p not in self.up
        ]
        free = [s for s in range(1, self.m + 1) if s not in taken]
        slot_of = dict(zip(remainder, free))
        slots = [slot_of[p] for p in self.down]
        if any(s <= self.q for s in slots):
            return None
        return slots

    def _build(self, up_slots: list[int], down_slots: Optional[list[int]]):
        if down_slots is None:
            return None
        slot_of = {self.leader: self.q}
        for party, s in zip(self.up, up_slots):
            slot_of[party] = s
        for party, s in zip(self.down, down_slots):
            slot_of[party] = s
        taken = set(slot_of.values())
        free = iter(s for s in range(1, self.m + 1) if s not in taken)
        for party in self.order.ranking:
            if party not in slot_of:
                slot_of[party] = next(free)
        ranking = sorted(slot_of, key=slot_of.get)
        return PreferenceOrder(tuple(ranking))

    def order_for(self, lift_down: int, lift_up: int) -> PreferenceOrder:
        """Spend the given number of inversions raising each group."""
        down_slots = [self.base_order.position(p) for p in self.down]
        remaining = lift_down
        for j in range(len(down_slots)):
            floor = self.q + j + 1 if j == 0 else max(self.q + j + 1, down_slots[j - 1] + 1)
            new = max(floor, down_slots[j] - remaining)
            remaining -= down_slots[j] - new
            down_slots[j] = new
        assert remaining == 0, "lower lift exceeds its headroom"
        up_slots = [self.base_order.position(p) for p in self.up]
        remaining = lift_up
        for j in range(len(up_slots)):
            floor = 1 + j if j == 0 else max(1 + j, up_slots[j - 1] + 1)
            new = max(floor, up_slots[j] - remaining)
            remaining -= up_slots[j] - new
            up_slots[j] = new
        assert remaining == 0, "upper lift exceeds its headroom"
        built = self._build(up_slots, down_slots)
        assert built is not None
        return built

    def points(self, order: PreferenceOrder, parties) -> int:
        return sum(self.m - order.position(p) for p in parties)


def shift_bounds(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    k1: int,
    l_down: int,
    l_up: int,
):
    """Cost/point envelope of one split: (base inversions, low points of each
    side, inversion headroom of each side), or None when the split cannot be
    realized."""
    if l_down + l_up != len(rest):
        raise DomainError("split sizes must partition the coalition remainder")
    geo = _ShiftGeometry(order, leader, rest, k1, l_up)
    if not geo.feasible:
        return None
    base_cost = len(inverted_pairs(order, geo.base_order))
    down_min = geo.points(geo.base_order, geo.down)
    up_min = geo.points(geo.base_order, geo.up)
    packed_down = geo.order_for(_down_headroom(geo), 0)
    packed_up = geo.order_for(0, _up_headroom(geo))
    down_room = geo.points(packed_down, geo.down) - down_min
    up_room = geo.points(packed_up, geo.up) - up_min
    # One extra inversion buys exactly one extra point on either side.
    assert len(inverted_pairs(order, packed_down)) - base_cost == down_room
    assert len(inverted_pairs(order, packed_up)) - base_cost == up_room
    return geo, base_cost, down_min, down_room, up_min, up_room


def _down_headroom(geo: _ShiftGeometry) -> int:
    slots = [geo.base_order.position(p) for p in geo.down]
    return sum(s - (geo.q + j + 1) for j, s in enumerate(slots))


def _up_headroom(geo: _ShiftGeometry) -> int:
    slots = [geo.base_order.position(p) for p in geo.up]
    return sum(s - (1 + j) for j, s in enumerate(slots))


def shift_menu(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    table: tuple[int, ...],
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], PreferenceOrder]]:
    """Shift menu for one voter: price and realizing order per (k_rest, k1)."""
    m = len(order)
    menu: dict[tuple[int, int], int] = {}
    witness: dict[tuple[int, int], PreferenceOrder] = {}
    for k1 in range(m):
        for l_down in range(len(rest) + 1):
            l_up = len(rest) - l_down
            bounds = shift_bounds(order, leader, rest, k1, l_down, l_up)
            if bounds is None:
                continue
            geo, base_cost, down_min, down_room, up_min, up_room = bounds
            for extra in range(down_room + up_room + 1):
                k_rest = down_min + up_min + extra
                inversions = base_cost + extra
                cost = table[inversions]
                key = (k_rest, k1)
                if cost < menu.get(key, inf):
                    lift_down = min(extra, down_room)
                    menu[key] = cost
                    witness[key] = geo.order_for(lift_down, extra - lift_down)
    return menu, witness


class _VoterMenu:
    """Cheapest replacement and realizing order per (k_rest, k1) for one voter."""

    def __init__(self, instance: ProblemInstance, voter: int):
        election = instance.election
        order = election.orders[voter]
        self.order = order
        self.leader = instance.leader
        self.rest = instance.coalition_rest
        model = instance.cost_model
        if isinstance(model, (UnitCost, DollarCost)):
            self.costs = price_menu(
                order, self.leader, self.rest, instance.outsiders,
                model.voter_price(voter),
            )
            self._witness = None
            self._outsiders = instance.outsiders
            self._current = leader_and_rest_scores(order, self.leader, self.rest)
        elif isinstance(model, ShiftCost):
            self.costs, self._witness = shift_menu(
                order, self.leader, self.rest, model.tables[voter]
            )
        else:
            raise DomainError(
                "this solver handles unit, dollar and shift bribery only"
            )

    def realize(self, k_rest: int, k1: int) -> PreferenceOrder:
        if self._witness is not None:
            return self._witness[(k_rest, k1)]
        if (k_rest, k1) == self._current:
            return self.order
        return realize_pair(
            len(self.order), self.leader, self.rest, self._outsiders, k_rest, k1
        )


def _pareto(cells: dict, track_leader: bool) -> dict:
    """Per coalition-points value, the cells that no cheaper cell beats on
    leader points; only the cheapest one when leader points don't count."""
    front: dict[tuple[int, int], int] = {}
    ka = best = kept = None
    # Descending order visits each ka's cells from the most leader points.
    for key in sorted(cells, reverse=True):
        cost = cells[key]
        if key[0] == ka:
            if cost >= best:
                continue
            if not track_leader:
                del front[kept]
        ka, best, kept = key[0], cost, key
        front[key] = cost
    return front


def accumulate_voter_tables(
    menus: list[_VoterMenu], budget: float, track_leader: bool
) -> tuple[list[dict], list[dict]]:
    """Cheapest bribes per running (coalition points, leader points) total,
    within the budget (`math.inf` for none); layers and menu gains are cut
    to their `_pareto`."""
    layers = [{(0, 0): 0}]
    backpointers: list[dict] = [{}]
    for menu in menus:
        gains = _pareto(
            {
                (d_rest + d1, d1): c
                for (d_rest, d1), c in menu.costs.items()
                if c <= budget
            },
            track_leader,
        )
        steps = sorted((c, d_ka, d1) for (d_ka, d1), c in gains.items())
        nxt: dict[tuple[int, int], int] = {}
        bp: dict[tuple[int, int], tuple[int, int]] = {}
        for (ka, k1), cost in layers[-1].items():
            for c, d_ka, d1 in steps:
                total = cost + c
                if total > budget:
                    break
                key = (ka + d_ka, k1 + d1)
                if total < nxt.get(key, inf):
                    nxt[key] = total
                    bp[key] = (d_ka, d1)
        front = _pareto(nxt, track_leader)
        layers.append(front)
        backpointers.append({key: bp[key] for key in front})
    return layers, backpointers


def solve_borda_zero(
    instance: ProblemInstance, cap: Optional[int], stats: Optional[dict] = None
) -> Optional[BribePlan]:
    """Cheapest bribe costing at most `cap` (None: no limit) for a
    zero-threshold Borda instance under unit/dollar/shift bribery, or None."""
    if instance.rule is not ScoringRule.BORDA:
        raise DomainError("Borda instances only")
    if instance.threshold != 0:
        raise DomainError("this solver requires a zero threshold")
    election = instance.election
    menus = [_VoterMenu(instance, i) for i in range(election.num_voters)]
    layers, backpointers = accumulate_voter_tables(
        menus, inf if cap is None else cap, instance.rho != 0
    )
    if stats is not None:
        stats["table_cells"] = sum(len(layer) for layer in layers)

    total = grand_total(election.num_voters, election.num_parties, ScoringRule.BORDA)
    best_key, best_cost = None, inf
    final = layers[-1]
    for key in sorted(final, reverse=True):
        ka, k1 = key
        cost = final[key]
        if cost < best_cost and goals_met(ka, k1, total, instance):
            best_key, best_cost = key, cost
    if best_key is None:
        return None
    return _reconstruct(instance, menus, backpointers, best_key, best_cost)


def _reconstruct(instance, menus, backpointers, key, cost) -> BribePlan:
    election = instance.election
    replacements = {}
    for voter in range(election.num_voters - 1, -1, -1):
        d_ka, d1 = backpointers[voter + 1][key]
        new_order = menus[voter].realize(d_ka - d1, d1)
        if new_order != election.orders[voter]:
            replacements[voter] = new_order
        key = (key[0] - d_ka, key[1] - d1)
    if key != (0, 0):
        raise WitnessError("table trace did not return to the origin")
    return BribePlan(replacements, cost)


def leader_and_rest_scores(
    order: PreferenceOrder, leader: str, rest: tuple[str, ...]
) -> tuple[int, int]:
    """The (k_rest, k1) pair an order currently realizes."""
    return (
        sum(score(order, p, ScoringRule.BORDA) for p in rest),
        score(order, leader, ScoringRule.BORDA),
    )
