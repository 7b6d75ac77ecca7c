"""Threshold plurality under 1- and $-bribery, by one dynamic program.

A bribe buys voters (their old votes leave the pool) and redirects the freed
votes into the coalition.  For a non-leader party p only its net loss
``g_p = bought - added`` matters: its count becomes ``S_p - g_p``.  Outsiders
never receive votes, so there ``g_p`` is the number bought; for a member of
the coalition rest, ``g_p`` fixes the count, and its cheapest realization
buys ``max(0, g_p)`` supporters (the cheapest ones) and adds the rest.

The table kernel (`table.combine`) runs one layer per non-leader party over
cells ``(g * R + a_rest, -a_out)``: the leader's net gain ``g = sum g_p``,
and the active (threshold-cleared) vote totals of the coalition rest and of
the outsiders.  ``R = n * |rest| + 1`` exceeds every partial ``a_rest``, so
the packing never carries into g.  The leader's count is ``base + g``; when
``g < 0`` more votes went to the rest than were freed, and the difference is
topped up by buying the leader's own cheapest ``-g`` supporters.

The goal test (`core.goals_met`) reads only the leader's count and the two
active totals, and costs add across parties.  With g and a_rest fixed, fewer
outsider votes never hurt the support target and the ratio target ignores
them, so the kernel's front is exact.  Between layers the DP drops cells
whose gain can no longer reach ``-base``.  The scan picks the cheapest cell
plus top-up that meets the targets under the cap, and reads its plan off the
table: the movers are each party's ``max(0, g_p)`` cheapest supporters, in
layer order, then the leader's ``max(0, -g)`` cheapest (the top-ups); the
targets are ``-g_p`` copies of each rest party with ``g_p < 0``, then the
leader; each mover is lifted to its target.  A party with ``g_p > 0`` gives
up supporters and receives nothing, a rest party with ``g_p < 0`` receives
votes and gives up none, and top-ups exist only when ``g < 0``, when the
additions use up every freed vote: every target is then a rest party.  So
no mover's target is its own top, and the two lists are equally long.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional

from .core import ProblemInstance, goals_met, seat_cut
from .costs import BribePlan, lift_to_top
from .table import combine, trace


class _Table:
    """Kernel layers over the non-leader parties, with backpointers."""

    def __init__(self, instance: ProblemInstance, cap: float):
        election = instance.election
        self.n = election.num_voters
        self.threshold_count = seat_cut(instance.total, instance.threshold)
        self.parties = list(instance.outsiders) + list(instance.coalition_rest)
        self.is_rest = set(instance.coalition_rest)
        self.radix = self.n * len(self.is_rest) + 1
        model = instance.cost_model
        # Each party's (price, voter) supporters, cheapest first.
        self.supporters: dict[str, list[tuple[int, int]]] = {p: [] for p in election.parties}
        for price, i in sorted((model.voter_price(i), i) for i in range(self.n)):
            self.supporters[election.orders[i].top()].append((price, i))
        self.prefix = {
            p: list(accumulate((price for price, _ in lst), initial=0))
            for p, lst in self.supporters.items()
        }
        # The parties after the current one can still raise g by at most
        # their supporter count, and the final g must reach -base.
        floor = -self.n
        cells = {(0, 0): 0}
        self.backpointers = []
        self.kept = 0
        for party in self.parties:
            floor += len(self.supporters[party])
            steps = {self.pack(*key): c for key, c in self.single(party).items()}
            cells, reached = combine(cells, steps, cap)
            cells = {key: c for key, c in cells.items() if key[0] >= floor * self.radix}
            self.backpointers.append(reached)
            self.kept += len(cells)
        self.cells = cells

    def pack(self, g: int, a_out: int, a_rest: int) -> tuple[int, int]:
        return g * self.radix + a_rest, -a_out

    def unpack(self, key: tuple[int, int]) -> tuple[int, int, int]:
        """The (g, a_out, a_rest) signature of a packed cell."""
        g, a_rest = divmod(key[0], self.radix)
        return g, -key[1], a_rest

    def mincost(self, party: str, count: int) -> int:
        """Sum of the `count` smallest prices among the party's supporters."""
        return self.prefix[party][count]

    def single(self, party: str) -> dict[tuple[int, int, int], int]:
        """One party's cells: (g_p, active outsider votes, active rest votes)."""
        size = len(self.supporters[party])
        rest = party in self.is_rest
        table = {}
        for g in range(size - self.n if rest else 0, size + 1):
            active = size - g if size - g >= self.threshold_count else 0
            key = (g, 0, active) if rest else (g, active, 0)
            table[key] = self.mincost(party, max(0, g))
        return table


def solve_plurality_t_dollar(
    instance: ProblemInstance, cap: float, stats: Optional[dict] = None
) -> Optional[BribePlan]:
    """Cheapest bribe costing at most `cap` (inf: no limit), or None.

    Works for any threshold, including zero, under unit or dollar pricing.
    """
    table = _Table(instance, cap)
    if stats is not None:
        stats["table_cells"] = table.kept
        stats["signatures"] = len(table.cells)

    base_leader = len(table.supporters[instance.leader])
    t_count = table.threshold_count
    best_key, best_cost = None, cap + 1
    for key, cell in table.cells.items():
        g, a_out, a_rest = table.unpack(key)
        cost = cell + table.mincost(instance.leader, max(0, -g))
        if cost >= best_cost:
            continue
        leader = base_leader + g if base_leader + g >= t_count else 0
        if goals_met(a_rest + leader, leader, a_rest + leader + a_out, instance):
            best_key, best_cost = key, cost
    if best_key is None:
        return None
    return _reconstruct(instance, table, best_key, best_cost)


def _reconstruct(instance: ProblemInstance, table: _Table, key, cost: int) -> BribePlan:
    gains = [table.unpack(step)[0] for step in trace(table.backpointers, key)]
    movers: list[int] = []
    targets: list[str] = []
    for party, g in zip([*table.parties, instance.leader], [*gains, max(0, -sum(gains))]):
        movers.extend(i for _, i in table.supporters[party][:max(0, g)])
        targets.extend([party] * -g)
    targets.extend([instance.leader] * (len(movers) - len(targets)))
    orders = instance.election.orders
    return BribePlan({i: lift_to_top(orders[i], t) for i, t in zip(movers, targets)}, cost)
