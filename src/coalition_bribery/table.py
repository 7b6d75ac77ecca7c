"""The min-cost table kernel shared by the plurality DP and the Borda table.

A table maps cells ``(group, level)`` to their least known cost: `group` is
what the goal test reads exactly, `level` the one coordinate where more is
never worse.  Each layer adds one step to every cell, keeps the cheapest cost
per key within the cap and cuts the result to its `front`, which is exact
because later steps add the same gain to every cell of a group.
"""

from __future__ import annotations

from math import inf

from .costs import WitnessError


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


def combine(cells: dict, steps: dict, cap: float) -> tuple[dict, dict]:
    """The next layer: the cheapest cell-plus-step cost per key within `cap`
    (`math.inf` for none), cut to its front; and per kept key, the step that
    reached it."""
    ordered = sorted(front(steps).items(), key=lambda kv: kv[1])
    merged, reached = {}, {}
    for (group, level), cost in cells.items():
        for step, c in ordered:
            total = cost + c
            if total > cap:
                break
            key = (group + step[0], level + step[1])
            if total < merged.get(key, inf):
                merged[key] = total
                reached[key] = step
    layer = front(merged)
    return layer, {key: reached[key] for key in layer}


def trace(backpointers: list[dict], key: tuple[int, int]) -> list:
    """The step each layer added on the way from the origin to `key`, first
    layer first.  Raises WitnessError when the walk misses the origin."""
    steps = []
    for reached in reversed(backpointers):
        step = reached[key]
        steps.append(step)
        key = (key[0] - step[0], key[1] - step[1])
    if key != (0, 0):
        raise WitnessError("table trace did not return to the origin")
    return steps[::-1]
