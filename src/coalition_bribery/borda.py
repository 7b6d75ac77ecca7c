"""Zero-threshold Borda under unit, dollar, swap and shift bribery.

Per voter we tabulate the cheapest replacement realizing each pair (points
for the coalition minus its leader, points for the leader).  One placement
DP, `_placements`, builds every menu from the description `costs.iter_orders`
takes: the parties that may rise and a price per inverted pair.  It fills an
order's slots front to back, each slot worth one point less than the one
before; a state is (every party placed, as a mask over the order, k_rest,
k1) and keeps the least price of a partial order and a backpointer.  Placing
y pays `pair_price(x, y)` for each unplaced x that was above y, and a party
that may not rise waits until nothing above it is left.  Swap menus let
every party rise at the voter's pair prices.  Shift menus let only coalition
members rise, at 1 per pair, and price a pair's fewest inversions by the
voter's shift table (exact, as shift tables never decrease).  Unit/dollar
menus run that rule on the canonical order (*outsiders, leader, *rest), so
every pair some order realizes is reached; it costs the voter's price, and
the current pair 0.

Every menu is charged to the solve's `SearchBudget`, one expansion per
(state, unplaced party) before each slot.  Every subset of the r parties
that may rise is a reachable mask, so a menu needs at least
2**(r - 1) * (2m - r) expansions; when that floor passes the limit,
`OracleRefusal` is raised before any slot is built.

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
from typing import Callable, Collection, Mapping, Optional

from .core import (
    PreferenceOrder, ProblemInstance, ScoringRule, goals_met, grand_total, score,
)
from .costs import BribePlan, ShiftCost, SwapCost
from .oracle import OracleRefusal, SearchBudget, _Meter
from .table import Relaxation, combine, trace

MENUS = "Borda menu placement"  # what a refusal names as out of expansions


def _placements(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    may_rise: Collection[str],
    pair_price: Callable[[str, str], int],
    meter: Optional[_Meter] = None,
):
    """Least summed `pair_price` of a reordering of `order` in which only
    parties in `may_rise` rise, per (k_rest, k1) pair it realizes, and
    `realize(pair)`, a reordering attaining it.  Raises `OracleRefusal` past
    the limit of `meter` (None: a fresh default budget)."""
    meter = meter or _Meter(SearchBudget(), MENUS)
    ranking = order.ranking
    m = len(ranking)
    # Per party of `order`: its bit, whether it may rise, its k_rest and k1
    # weights, and the price of its passing each party ranked above it.
    parties = [
        (1 << j, y in may_rise, y in rest, y == leader,
         [pair_price(x, y) for x in ranking[:j]])
        for j, y in enumerate(ranking)
    ]
    r = sum(y in may_rise for y in ranking)
    floor = (2 * m - r) << r >> 1
    if meter.count + floor > meter.limit:
        raise OracleRefusal(meter.count + floor, meter.limit, meter.what)
    # layers[t]: (mask of the t parties placed, k_rest, k1) -> (least price,
    # previous state, index of the party placed last).
    layers = [{(0, 0, 0): (0, None, None)}]
    for t in range(m):
        points = m - 1 - t
        meter.charge(len(layers[-1]) * (m - t))
        nxt: dict = {}
        moves_of: dict = {}  # mask -> [(next mask, k_rest gain, k1 gain, price, j)]
        for state, (price, _, _) in layers[-1].items():
            mask, k_rest, k1 = state
            moves = moves_of.get(mask)
            if moves is None:
                moves = moves_of[mask] = []
                passed: list[int] = []  # unplaced parties ranked above the j-th
                for j, (bit, rises, in_rest, is_leader, row) in enumerate(parties):
                    if mask & bit:
                        continue
                    if rises or not passed:
                        moves.append((mask | bit, in_rest * points, is_leader * points,
                                      sum([row[i] for i in passed]), j))
                    passed.append(j)
            for next_mask, d_rest, d1, added, j in moves:
                key = (next_mask, k_rest + d_rest, k1 + d1)
                old = nxt.get(key)
                if old is None or price + added < old[0]:
                    nxt[key] = (price + added, state, j)
        layers.append(nxt)

    def realize(pair: tuple[int, int]) -> PreferenceOrder:
        placed = []
        state = ((1 << m) - 1, *pair)
        for layer in reversed(layers[1:]):
            _, state, j = layer[state]
            placed.append(ranking[j])
        return PreferenceOrder(tuple(reversed(placed)))

    return {key[1:]: price for key, (price, _, _) in layers[-1].items()}, realize


def _unit_price(x: str, y: str) -> int:
    """One inversion; a single function, so a per-solve memo of the DP hits."""
    return 1


def swap_menu(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    prices: Mapping[tuple[str, str], int],
    meter: Optional[_Meter] = None,
):
    """Swap menu for one voter: the least price of a reordering per (k_rest,
    k1) pair it realizes, and `realize(pair)`, a reordering attaining it."""
    return _placements(
        order, leader, rest, order.ranking, lambda x, y: prices[x, y], meter
    )


def price_menu(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    outsiders: tuple[str, ...],
    price: int,
    placements=_placements,
    meter: Optional[_Meter] = None,
):
    """Unit/dollar menu for one voter: `price` for every pair some order
    realizes, 0 for the current pair; and `realize(pair)`, an order realizing
    it."""
    canonical = PreferenceOrder((*outsiders, leader, *rest))
    reachable, realize_any = placements(
        canonical, leader, rest, (leader, *rest), _unit_price, meter
    )
    current = leader_and_rest_scores(order, leader, rest)
    costs = dict.fromkeys(reachable, price)
    costs[current] = 0
    return costs, lambda pair: order if pair == current else realize_any(pair)


def shift_menu(
    order: PreferenceOrder,
    leader: str,
    rest: tuple[str, ...],
    table: tuple[int, ...],
    placements=_placements,
    meter: Optional[_Meter] = None,
):
    """Shift menu for one voter: per pair some admissible order realizes,
    the table price of its fewest inversions; and `realize(pair)`, an order
    attaining that price."""
    fewest, realize = placements(
        order, leader, rest, (leader, *rest), _unit_price, meter
    )
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
                order, leader, rest, model.tables[voter], placements, meter
            )
        elif isinstance(model, SwapCost):
            self.costs, self.realize = swap_menu(
                order, leader, rest, model.pair_prices[voter], meter
            )
        else:
            self.costs, self.realize = price_menu(
                order, leader, rest, instance.outsiders, model.voter_price(voter),
                placements, meter,
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
    OracleRefusal when the menus need more expansions than `budget` allows."""
    election = instance.election
    # One memo per solve: voters sharing an order share one DP, charged once.
    placements = cache(_placements)
    meter = _Meter(budget, MENUS)
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
