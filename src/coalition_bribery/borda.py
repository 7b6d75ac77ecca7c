"""Zero-threshold Borda under unit, dollar, swap and shift bribery.

Per voter we tabulate the cheapest replacement realizing each step of the
table kernel: (points for the coalition, points for the leader), or
(coalition points, 0) when rho = 0 and the goal never reads the leader.  One
placement DP, `_placements`, builds every menu from the description
`costs.iter_orders` takes: the parties that may rise and a price per
inverted pair.  It fills an order's slots front to back, each worth its
entry of the Borda score vector, `ScoringRule.points`; a state is (every party placed, as a mask
over the order, ka, k1) and keeps the least price of a partial order and a
backpointer.  Placing y pays `pair_price(x, y)` for each unplaced x that was
above y, and a party that may not rise waits until nothing above it is left.
Swap menus let every party rise at the voter's pair prices.  Shift menus let
only coalition members rise, at 1 per pair, and price a step's fewest
inversions by the voter's shift table (exact, as shift tables never
decrease).  Unit/dollar menus run that rule on the canonical order
(*outsiders, *coalition), so every step some order realizes is reached; it
costs the voter's price, and the current step 0.

A solve builds its menus through one memo with its meter bound in
(`metered_placements`): voters sharing an order share one DP, each charged
to the solve's `SearchBudget`, one expansion per (state, unplaced party)
before each slot.  Every subset of the r parties that may rise is a
reachable mask, so a menu needs at least 2**(r - 1) * (2m - r) expansions;
past the limit, `OracleRefusal` is raised before any slot is built.

The table kernel (`table.combine`) then runs one layer per voter over the
cells (ka, k1) its steps reach, and the final scan picks the cheapest cell
meeting the support and ratio targets: with a zero threshold every party is
seated, so the test is `core.goals_met(ka, k1, total)`.  The kernel's front
per ka is exact because every later voter adds the same gain to any cell and
the ratio test k1 >= rho * ka is monotone in k1.  The plan rebuild asks each
voter's menu for an order realizing the step its cell took.

Those goals are two linear constraints on the chosen steps,
sum ka >= ceil(phi * total) and sum (rho.den * k1 - rho.num * ka) >= 0, so a
capped solve first bounds every plan from below by their Lagrangian
relaxation (`table.Relaxation`).  When the bound exceeds the cap the answer
is "no" and no layer is built; otherwise each layer drops the cells whose
bound, with the later voters' least reduced costs, exceeds the cap.  The
kept cells, and so the optimum and its witness, are those of the unpruned
table.  A cap above the dearest plan, none included, is lowered to it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import inf
from typing import Callable, Collection, Optional

from .core import (
    PreferenceOrder, ProblemInstance, ScoringRule, goals_met, score,
)
from .costs import BribePlan, ShiftCost, SwapCost
from .oracle import OracleRefusal, SearchBudget, _Meter
from .table import Relaxation, combine, trace

MENUS = "Borda menu placement"  # what a refusal names as out of expansions


def _placements(
    order: PreferenceOrder,
    coalition: tuple[str, ...],
    leader: Optional[str],
    may_rise: Collection[str],
    pair_price: Callable[[str, str], int],
    meter: _Meter,
):
    """Least summed `pair_price` of a reordering of `order` in which only
    parties in `may_rise` rise, per step it realizes, and `realize(step)`, a
    reordering attaining it.  A step is (ka, k1), the points of `coalition`
    and of `leader` (None: k1 stays 0).  Raises `OracleRefusal` past the
    limit of `meter`."""
    ranking = order.ranking
    m = len(ranking)
    # Per party of `order`: its bit, whether it may rise, its ka and k1
    # weights, and the price of its passing each party ranked above it.
    parties = [
        (1 << j, y in may_rise, y in coalition, y == leader,
         [pair_price(x, y) for x in ranking[:j]])
        for j, y in enumerate(ranking)
    ]
    r = sum(y in may_rise for y in ranking)
    floor = (2 * m - r) << r >> 1
    if meter.count + floor > meter.limit:
        raise OracleRefusal(meter.count + floor, meter.limit, meter.what)
    # layers[t]: (mask of the t parties placed, ka, k1) -> (least price,
    # previous state, index of the party placed last).
    layers = [{(0, 0, 0): (0, None, None)}]
    for t, points in enumerate(ScoringRule.BORDA.points(m)):
        meter.charge(len(layers[-1]) * (m - t))
        nxt: dict = {}
        moves_of: dict = {}  # mask -> [(next mask, ka gain, k1 gain, price, j)]
        for state, (price, _, _) in layers[-1].items():
            mask, ka, k1 = state
            moves = moves_of.get(mask)
            if moves is None:
                moves = moves_of[mask] = []
                passed: list[int] = []  # unplaced parties ranked above the j-th
                for j, (bit, rises, member, is_leader, row) in enumerate(parties):
                    if mask & bit:
                        continue
                    if rises or not passed:
                        moves.append((mask | bit, member * points, is_leader * points,
                                      sum([row[i] for i in passed]), j))
                    passed.append(j)
            for next_mask, da, d1, added, j in moves:
                key = (next_mask, ka + da, k1 + d1)
                old = nxt.get(key)
                if old is None or price + added < old[0]:
                    nxt[key] = (price + added, state, j)
        layers.append(nxt)

    def realize(step: tuple[int, int]) -> PreferenceOrder:
        placed = []
        state = ((1 << m) - 1, *step)
        for layer in reversed(layers[1:]):
            _, state, j = layer[state]
            placed.append(ranking[j])
        return PreferenceOrder(tuple(reversed(placed)))

    return {key[1:]: price for key, (price, _, _) in layers[-1].items()}, realize


def metered_placements(budget: SearchBudget) -> Callable:
    """One solve's `_placements`: memoized, and charged to one meter of `budget`."""
    return cache(partial(_placements, meter=_Meter(budget, MENUS)))


def _unit_price(x: str, y: str) -> int:
    """One inversion; a single function, so a per-solve memo of the DP hits."""
    return 1


def step_of(
    order: PreferenceOrder, coalition: tuple[str, ...], leader: Optional[str]
) -> tuple[int, int]:
    """The step (ka, k1) an order realizes (k1 = 0 when `leader` is None)."""
    return (
        sum(score(order, p, ScoringRule.BORDA) for p in coalition),
        0 if leader is None else score(order, leader, ScoringRule.BORDA),
    )


def price_menu(
    order: PreferenceOrder,
    coalition: tuple[str, ...],
    leader: Optional[str],
    outsiders: tuple[str, ...],
    price: int,
    placements: Callable,
):
    """Unit/dollar menu for one voter: `price` for every step some order
    realizes, 0 for the current step; and `realize(step)`, an order realizing
    it."""
    canonical = PreferenceOrder((*outsiders, *coalition))
    reachable, realize_any = placements(canonical, coalition, leader, coalition, _unit_price)
    current = step_of(order, coalition, leader)
    costs = dict.fromkeys(reachable, price)
    costs[current] = 0
    return costs, lambda step: order if step == current else realize_any(step)


def shift_menu(
    order: PreferenceOrder,
    coalition: tuple[str, ...],
    leader: Optional[str],
    table: tuple[int, ...],
    placements: Callable,
):
    """Shift menu for one voter: per step some admissible order realizes,
    the table price of its fewest inversions; and `realize(step)`, an order
    attaining that price."""
    fewest, realize = placements(order, coalition, leader, coalition, _unit_price)
    return {step: table[inv] for step, inv in fewest.items()}, realize


def _voter_menu(instance: ProblemInstance, voter: int, placements: Callable):
    """One voter's cheapest replacement per kernel step, and `realize(step)`;
    the leader's points are tracked only when the ratio goal reads them."""
    order = instance.election.orders[voter]
    coalition = instance.coalition
    leader = instance.leader if instance.rho else None
    model = instance.cost_model
    if isinstance(model, ShiftCost):
        return shift_menu(order, coalition, leader, model.tables[voter], placements)
    if isinstance(model, SwapCost):
        # every party may rise; each voter's price function is new, so a memo misses
        prices = model.pair_prices[voter]
        return placements(order, coalition, leader, order.ranking, lambda x, y: prices[x, y])
    return price_menu(
        order, coalition, leader, instance.outsiders, model.voter_price(voter), placements
    )


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
    cap: float,
    stats: Optional[dict] = None,
    budget: SearchBudget = SearchBudget(),
) -> Optional[BribePlan]:
    """Cheapest bribe costing at most `cap` (inf: no limit) for a
    zero-threshold Borda instance under any bribery kind, or None.  Raises
    OracleRefusal when the menus need more expansions than `budget` allows."""
    election = instance.election
    placements = metered_placements(budget)
    menus = [_voter_menu(instance, i, placements) for i in range(election.num_voters)]
    total = instance.total
    gains = [steps for steps, _ in menus]
    layers, backpointers = accumulate_voter_tables(
        gains, min(cap, sum(max(steps.values()) for steps in gains)),
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
        _, realize = menus[voter]
        new_order = realize(step)
        if new_order != election.orders[voter]:
            replacements[voter] = new_order
    return BribePlan(replacements, best_cost)

