"""The min-cost table kernel shared by the plurality DP and the Borda table.

A table maps cells ``(group, level)`` to their least known cost: `group` is
what the goal test reads exactly, `level` the one coordinate where more is
never worse.  Each layer adds one step to every cell, keeps the cheapest cost
per key within the cap and cuts the result to its `front`, which is exact
because later steps add the same gain to every cell of a group.

`Relaxation` bounds a capped table from below when the goals imply two
linear constraints on the final cell, ``group * share.den >= share.num *
total`` and ``s = ratio.den * level - ratio.num * group >= 0``.  With
``need = ceil(share * total)`` and multipliers ``lam, mu >= 0``, every plan
meeting them costs at least

    L = lam * need + sum over layers of min over steps (c - lam * group - mu * s),

the Lagrangian relaxation of a multiple-choice knapsack (Sinha and Zoltners,
1979).  A cell of cost c after layer j costs at least
``c + lam * (need - group) - mu * s`` plus that sum over the later layers, so
`combine` may drop every cell whose bound exceeds the cap: the cells it keeps,
and the cheapest cell meeting the goals, are those of the unpruned table.
The multipliers are ``p / DENOMINATOR`` and ``q / DENOMINATOR`` for integers
p, q >= 0, so every test is an integer comparison of reduced costs
``DENOMINATOR * c - wg * group - wl * level`` with
``(wg, wl) = (p - q * ratio.num, q * ratio.den)``; floats only propose p, q.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import inf
from typing import Optional

# The multipliers' common denominator.
DENOMINATOR = 1024
# Most bound evaluations of the search over (lam, mu) when the ratio binds.
POLYAK_STEPS = 8


def front(cells: dict) -> dict:
    """Per group, the cells that no cell at most as costly beats on level."""
    kept = {}
    group = best = None
    # Descending order visits each group's cells from the highest level.
    for key in sorted(cells, reverse=True):
        cost = cells[key]
        if key[0] == group and cost >= best:
            continue
        group, best = key[0], cost
        kept[key] = cost
    return kept


def combine(
    cells: dict, steps: dict, cap: float, weights: tuple[int, int] = (0, 0),
    limit: Optional[int] = None,
) -> tuple[dict, dict]:
    """The next layer: the cheapest cell-plus-step cost per key within `cap`
    (`math.inf` for none), cut to its front; and per kept key, the step that
    reached it.  With a `limit`, a cell whose reduced cost under `weights`
    exceeds it is dropped too."""
    wg, wl = weights
    if limit is None:
        limit = DENOMINATOR * cap
    ordered = sorted(
        ((DENOMINATOR * c - wg * step[0] - wl * step[1], step, c)
         for step, c in front(steps).items()),
        key=lambda entry: entry[0],
    )
    merged, reached = {}, {}
    for (group, level), cost in cells.items():
        spare = cap - cost
        room = limit - (DENOMINATOR * cost - wg * group - wl * level)
        for reduced, step, c in ordered:
            if reduced > room:
                break
            if c > spare:
                continue
            total = cost + c
            key = (group + step[0], level + step[1])
            if total < merged.get(key, inf):
                merged[key] = total
                reached[key] = step
    layer = front(merged)
    return layer, {key: reached[key] for key in layer}


def trace(backpointers: list[dict], key: tuple[int, int]) -> list:
    """The step each layer added on the way from the origin to `key`, first
    layer first: each step leads back into the layer `combine` was given."""
    steps = []
    for reached in reversed(backpointers):
        step = reached[key]
        steps.append(step)
        key = (key[0] - step[0], key[1] - step[1])
    return steps[::-1]


class Relaxation:
    """The Lagrangian bound of the goals ``group >= ceil(share * total)`` and
    ``ratio.den * level >= ratio.num * group`` over layers of steps (each a
    dict ``(group, level) -> cost``), in units of 1 / DENOMINATOR.  Layers
    with equal steps are evaluated once."""

    def __init__(self, layers: list[dict], share: Fraction, total: int, ratio: Fraction):
        self.need = -(-share.numerator * total // share.denominator)
        self.ratio = ratio
        self.keys = [frozenset(steps.items()) for steps in layers]
        self.menus = Counter(self.keys)
        self.evaluated: dict = {}  # (p, q) -> `_minima` there

    def weights(self, p: int, q: int) -> tuple[int, int]:
        """(wg, wl): a step's reduced cost is DENOMINATOR*c - wg*group - wl*level."""
        return p - q * self.ratio.numerator, q * self.ratio.denominator

    def _minima(self, p: int, q: int) -> dict:
        """Per distinct menu, its least reduced cost and a step attaining it."""
        if (p, q) not in self.evaluated:
            wg, wl = self.weights(p, q)
            self.evaluated[p, q] = {
                menu: min((DENOMINATOR * c - wg * g - wl * lv, g, lv)
                          for (g, lv), c in menu)
                for menu in self.menus
            }
        return self.evaluated[p, q]

    def value(self, p: int, q: int) -> tuple[int, tuple[int, int]]:
        """DENOMINATOR * L at (p, q), and a subgradient of L there: the slack
        ``need - sum group`` and ``-sum s`` of the minimizing steps."""
        num, den = self.ratio.numerator, self.ratio.denominator
        bound, slack_g, slack_s = p * self.need, self.need, 0
        for menu, (reduced, g, lv) in self._minima(p, q).items():
            count = self.menus[menu]
            bound += count * reduced
            slack_g -= count * g
            slack_s -= count * (den * lv - num * g)
        return bound, (slack_g, slack_s)

    def search(self, cap: int) -> Optional[tuple[int, int]]:
        """Multipliers (p, q) that bound well, or None when no steps reach
        `need` at all.  The best p at q = 0 is exact: one sorted pass over
        each menu's lower-hull slopes in (group, cost).  Only a binding ratio
        adds a few Polyak subgradient steps toward cap + 1, stopping once
        the bound exceeds `cap` or the steps stall; the best point wins."""
        p = self._best_lambda()
        if p is None or not self.ratio:
            return p if p is None else (p, 0)
        best, best_pq = -inf, (p, 0)
        q, target, seen = 0, DENOMINATOR * (cap + 1), set()
        for _ in range(POLYAK_STEPS):
            if (p, q) in seen:
                break  # a revisited point would repeat its steps
            seen.add((p, q))
            bound, (slack_g, slack_s) = self.value(p, q)
            if bound > best:
                best, best_pq = bound, (p, q)
            norm = slack_g * slack_g + slack_s * slack_s
            # At q = 0 with the ratio slack, a step would only move p off
            # its exact best.
            if bound > DENOMINATOR * cap or not norm or (q == 0 and slack_s <= 0):
                break
            step = (target - bound) / norm
            p, q = max(0, round(p + step * slack_g)), max(0, round(q + step * slack_s))
        return best_pq

    def _best_lambda(self) -> Optional[int]:
        """DENOMINATOR times the lam maximizing L at mu = 0 (the multiple-
        choice knapsack's LP greedy), rounded; None when `need` is out of
        reach."""
        reach, edges = 0, []
        for menu, count in self.menus.items():
            cheapest = {}
            for (g, _), c in menu:
                if c < cheapest.get(g, inf):
                    cheapest[g] = c
            # The lower hull rightwards from the last of the cheapest points.
            hull = [(-inf, inf)]
            for g, c in sorted(cheapest.items()):
                if c <= hull[0][1]:
                    hull = [(g, c)]
                    continue
                while len(hull) > 1 and (
                    (hull[-1][0] - hull[-2][0]) * (c - hull[-2][1])
                    <= (hull[-1][1] - hull[-2][1]) * (g - hull[-2][0])
                ):
                    hull.pop()
                hull.append((g, c))
            reach += count * hull[0][0]
            edges.extend(
                ((c2 - c1) / (g2 - g1), count * (g2 - g1))
                for (g1, c1), (g2, c2) in zip(hull, hull[1:])
            )
        if reach >= self.need:
            return 0
        for slope, gain in sorted(edges):
            reach += gain
            if reach >= self.need:
                return round(slope * DENOMINATOR)
        return None

    def limits(self, p: int, q: int, cap: int) -> Optional[list[int]]:
        """Per layer, the largest reduced cost a cell after it may have and
        still complete within `cap`; None when the bound itself exceeds it."""
        minima = self._minima(p, q)
        suffix, limits = p * self.need, []
        for key in reversed(self.keys):
            limits.append(DENOMINATOR * cap - suffix)
            suffix += minima[key][0]
        return None if suffix > DENOMINATOR * cap else limits[::-1]

    def prune(self, cap: int) -> Optional[tuple[tuple[int, int], list[int]]]:
        """`combine`'s weights and per-layer limits at `cap` from searched
        multipliers; None when the bound proves no plan within `cap` meets
        the goals."""
        multipliers = self.search(cap)
        limits = None if multipliers is None else self.limits(*multipliers, cap)
        return None if limits is None else (self.weights(*multipliers), limits)
