"""Zero-threshold Borda under unit, dollar, swap and shift bribery.

Per voter we tabulate the cheapest replacement realizing each pair (points
for the coalition minus its leader, points for the leader).  A placement DP
builds every menu.  It fills an order's slots front to back, each slot worth
one point less than the one before, and keeps per state the least price of
a partial order and a backpointer that rebuilds an order attaining it.

For unit, dollar and shift bribery the state is (coalition members placed,
outsiders placed, k_rest, k1) and the price is the number of inversions of
the voter's order.  Placing a party inverts it with every unplaced party it
used to be below.  Outsiders are placed in their original order, as points
do not tell them apart; under shift bribery an outsider is placed only when
that inverts nothing, so no outsider rises.  Unit/dollar pricing allows any
permutation, so every pair the DP reaches from one canonical order costs the
voter's price, and the voter's current pair 0.  Under shift bribery a pair
costs the voter's table at its fewest inversions, which is exact because
shift tables never decrease.

Swap prices tell every party apart, so `swap_menu`'s state is (every party
placed, k_rest, k1), and placing y pays the price of y rising over each
unplaced party that was above it.  Its 2**m masks are charged to the solve's
`SearchBudget`, one expansion per (state, unplaced party) before each slot
is filled, so a menu too large for the limit raises `OracleRefusal` unbuilt.

The table kernel (`table.combine`) then runs one layer per voter over
cells (coalition points ka, leader points k1), or (ka, 0) when rho = 0, and
the final scan picks the cheapest cell meeting the support and ratio
targets: with a zero threshold every party is seated, so the test is
`core.goals_met(ka, k1, total)`.  The kernel's front per ka is exact because
every later voter adds the same gain to any cell and the ratio test
k1 >= rho * ka is monotone in k1.  Each step keeps the menu pair it came
from, so the plan rebuild can ask the voter's menu for a realizing order.

Those goals are two linear constraints on the chosen steps,
sum ka >= ceil(phi * total) and sum (rho.den * k1 - rho.num * ka) >= 0, so a
capped solve first bounds every plan from below by their Lagrangian
relaxation (`table.Relaxation`).  When the bound exceeds the cap the answer
is "no" and no layer is built; otherwise each layer drops the cells whose
bound, with the later voters' least reduced costs, exceeds the cap.  The
kept cells, and so the optimum and its witness, are those of the unpruned
table.  Uncapped, the cap is the dearest plan, which no plan exceeds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import inf
from typing import Mapping, Optional

from .core import (
    PreferenceOrder, ProblemInstance, ScoringRule, goals_met, grand_total, score,
)
from .costs import BribePlan, ShiftCost, SwapCost
from .oracle import SearchBudget, _Meter
from .table import Relaxation, combine, trace


def _placements(
    order: PreferenceOrder, leader: str, rest: tuple[str, ...], outsiders_rise: bool
):
    """Fewest inversions of `order` per (k_rest, k1) pair that a reordering
    realizes, and `realize(pair)`, a reordering attaining it.  Without
    `outsiders_rise`, no outsider may move above a party it was below."""
    m = len(order)
    bit = {p: 1 << i for i, p in enumerate((leader, *rest))}
    outsiders = [p for p in order.ranking if p not in bit]
    # Per party: the coalition members (a mask) and the number of outsiders
    # ranked above it in `order`.
    members_above, outsiders_above = {}, {}
    mask = count = 0
    for p in order.ranking:
        members_above[p], outsiders_above[p] = mask, count
        if p in bit:
            mask |= bit[p]
        else:
            count += 1
    # layers[t]: (members placed, outsiders placed, k_rest, k1) after t slots
    # -> (fewest inversions, previous state, party placed last).
    layers = [{(0, 0, 0, 0): (0, None, None)}]
    for t in range(m):
        points = m - 1 - t
        nxt: dict = {}
        for state, (inv, _, _) in layers[-1].items():
            placed, j, k_rest, k1 = state
            steps = []
            for p, b in bit.items():
                if not placed & b:
                    added = (members_above[p] & ~placed).bit_count() + max(
                        0, outsiders_above[p] - j
                    )
                    if p == leader:
                        steps.append((p, (placed | b, j, k_rest, k1 + points), added))
                    else:
                        steps.append((p, (placed | b, j, k_rest + points, k1), added))
            if j < len(outsiders):
                p = outsiders[j]
                added = (members_above[p] & ~placed).bit_count()
                if outsiders_rise or not added:
                    steps.append((p, (placed, j + 1, k_rest, k1), added))
            for p, key, added in steps:
                if key not in nxt or inv + added < nxt[key][0]:
                    nxt[key] = (inv + added, state, p)
        layers.append(nxt)
    return _walk_back(layers)


def _walk_back(layers: list[dict]):
    """The menu of a placement DP whose states end in (k_rest, k1) and map to
    (value, previous state, party placed last): per pair of a complete
    order, its value; and `realize(pair)`, the order the walk back from it
    spells."""
    final = {key[-2:]: key for key in layers[-1]}

    def realize(pair: tuple[int, int]) -> PreferenceOrder:
        ranking = []
        state = final[pair]
        for layer in reversed(layers[1:]):
            _, state, party = layer[state]
            ranking.append(party)
        return PreferenceOrder(tuple(reversed(ranking)))

    return {pair: layers[-1][key][0] for pair, key in final.items()}, realize


def swap_menu(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    prices: Mapping[tuple[str, str], int],
    meter: _Meter,
):
    """Swap menu for one voter: the least price of a reordering per (k_rest,
    k1) pair it realizes, and `realize(pair)`, a reordering attaining it.

    A state is (every party placed, as a mask over `order`, k_rest, k1).
    Placing y pays `prices[x, y]` for each unplaced x that `order` ranked
    above y, which is exactly once per inverted pair.  Each slot charges
    `meter` one expansion per (state, unplaced party) before it is filled,
    so a menu too large for the limit is refused, not built."""
    m = len(order)
    ranking = order.ranking
    # Per party of `order`: (bit, k_rest weight, k1 weight, and per party
    # ranked above it, that party's bit and the price of rising over it).
    parties = [
        (1 << j, y in rest, y == leader,
         [(1 << i, prices[x, y]) for i, x in enumerate(ranking[:j])])
        for j, y in enumerate(ranking)
    ]
    layers = [{(0, 0, 0): (0, None, None)}]
    for t in range(m):
        points = m - 1 - t
        meter.charge(len(layers[-1]) * (m - t))
        nxt: dict = {}
        for state, (price, _, _) in layers[-1].items():
            placed, k_rest, k1 = state
            for y, (bit, in_rest, is_leader, above) in zip(ranking, parties):
                if placed & bit:
                    continue
                total = price + sum([c for b, c in above if not placed & b])
                key = (placed | bit, k_rest + in_rest * points, k1 + is_leader * points)
                if key not in nxt or total < nxt[key][0]:
                    nxt[key] = (total, state, y)
        layers.append(nxt)
    return _walk_back(layers)


def price_menu(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    outsiders: tuple[str, ...],
    price: int,
    placements=_placements,
):
    """Unit/dollar menu for one voter: `price` for every pair some order
    realizes, 0 for the current pair; and `realize(pair)`, an order realizing
    it."""
    canonical = PreferenceOrder((leader, *rest, *outsiders))
    reachable, realize_any = placements(canonical, leader, rest, True)
    current = leader_and_rest_scores(order, leader, rest)
    costs = dict.fromkeys(reachable, price)
    costs[current] = 0

    def realize(pair: tuple[int, int]) -> PreferenceOrder:
        return order if pair == current else realize_any(pair)

    return costs, realize


def shift_menu(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    table: tuple[int, ...],
    placements=_placements,
):
    """Shift menu for one voter: per pair some admissible order realizes,
    the table price of its fewest inversions; and `realize(pair)`, an order
    attaining that price."""
    fewest, realize = placements(order, leader, rest, False)
    return {pair: table[inv] for pair, inv in fewest.items()}, realize


class _VoterMenu:
    """Cheapest replacement and realizing order per (k_rest, k1) for one
    voter, and the kernel steps they offer."""

    def __init__(
        self, instance: ProblemInstance, voter: int, placements=_placements,
        meter: Optional[_Meter] = None,
    ):
        order = instance.election.orders[voter]
        leader, rest = instance.leader, instance.coalition_rest
        model = instance.cost_model
        if isinstance(model, ShiftCost):
            self.costs, self.realize = shift_menu(
                order, leader, rest, model.tables[voter], placements
            )
        elif isinstance(model, SwapCost):
            self.costs, self.realize = swap_menu(
                order, leader, rest, model.pair_prices[voter],
                meter or _Meter(SearchBudget()),
            )
        else:
            self.costs, self.realize = price_menu(
                order, leader, rest, instance.outsiders, model.voter_price(voter),
                placements,
            )
        # Per kernel step (ka gain, k1 gain or 0 when rho = 0), the cheapest
        # menu pair taking it, and its cost.
        self.pairs = {}
        for (k_rest, k1), _ in sorted(self.costs.items(), key=lambda kv: kv[1]):
            self.pairs.setdefault((k_rest + k1, k1 if instance.rho else 0), (k_rest, k1))
        self.steps = {step: self.costs[pair] for step, pair in self.pairs.items()}


def accumulate_voter_tables(
    gains: list[dict], budget: int, share: Fraction, total: int, ratio: Fraction
) -> tuple[list, list]:
    """One `table.combine` layer per voter's steps within the budget, and per
    layer the step each kept cell took.

    Every layer is pruned by the Lagrangian bound (`table.Relaxation`) of the
    goals ka >= share * total and k1 >= ratio * ka; when the bound alone
    exceeds the budget, no layer is built and both lists are empty."""
    pruning = Relaxation(gains, share, total, ratio).prune(budget)
    if pruning is None:
        return [], []
    weights, limits = pruning
    layers = [{(0, 0): 0}]
    backpointers = []
    for steps, limit in zip(gains, limits):
        layer, reached = combine(layers[-1], steps, budget, weights, limit)
        layers.append(layer)
        backpointers.append(reached)
    return layers, backpointers


def solve_borda_zero(
    instance: ProblemInstance,
    cap: Optional[int],
    stats: Optional[dict] = None,
    budget: SearchBudget = SearchBudget(),
) -> Optional[BribePlan]:
    """Cheapest bribe costing at most `cap` (None: no limit) for a
    zero-threshold Borda instance under any bribery kind, or None.  Raises
    OracleRefusal when the swap menus need more expansions than `budget`
    allows."""
    election = instance.election
    # One memo per solve: voters sharing an order share one placement DP.
    placements = cache(_placements)
    meter = _Meter(budget)
    menus = [
        _VoterMenu(instance, i, placements, meter) for i in range(election.num_voters)
    ]
    total = grand_total(election.num_voters, election.num_parties, ScoringRule.BORDA)
    gains = [menu.steps for menu in menus]
    layers, backpointers = accumulate_voter_tables(
        gains, sum(max(steps.values()) for steps in gains) if cap is None else cap,
        instance.phi, total, instance.rho,
    )
    if stats is not None:
        stats["table_cells"] = sum(len(layer) for layer in layers[1:])
    if not layers:
        return None

    best_key, best_cost = None, inf
    for (ka, k1), cost in layers[-1].items():
        if cost < best_cost and goals_met(ka, k1, total, instance):
            best_key, best_cost = (ka, k1), cost
    if best_key is None:
        return None
    replacements = {}
    for voter, step in enumerate(trace(backpointers, best_key)):
        new_order = menus[voter].realize(menus[voter].pairs[step])
        if new_order != election.orders[voter]:
            replacements[voter] = new_order
    return BribePlan(replacements, best_cost)


def leader_and_rest_scores(
    order: PreferenceOrder, leader: str, rest: tuple[str, ...]
) -> tuple[int, int]:
    """The (k_rest, k1) pair an order currently realizes."""
    return (
        sum(score(order, p, ScoringRule.BORDA) for p in rest),
        score(order, leader, ScoringRule.BORDA),
    )
