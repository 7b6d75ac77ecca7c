"""Threshold plurality under 1- and $-bribery, by one dynamic program.

A bribe buys voters (their old votes leave the pool) and redirects the freed
votes into the coalition.  For a non-leader party p only its net loss
``g_p = bought - added`` matters: its count becomes ``S_p - g_p``.  Outsiders
never receive votes, so there ``g_p`` is the number bought; for a member of
the coalition rest, ``g_p`` fixes the count, and its cheapest realization
buys ``max(0, g_p)`` supporters (the cheapest ones) and adds the rest.

One left-to-right combine over the non-leader parties keeps the least cost
per signature ``(g, a_out, a_rest)``: the leader's net gain ``g = sum g_p``,
and the active (threshold-cleared) vote totals of the outsiders and of the
coalition rest.  The leader's count is ``base + g``; when ``g < 0`` more
votes went to the rest than were freed, and the difference is topped up by
buying the leader's own cheapest ``-g`` supporters.

The goal test (`core.goals_met` on the seated coalition, leader and total
vote counts) reads nothing but the leader's count and the two active totals,
which a signature fixes, and costs add across parties; so the cheapest cell
per signature is the cheapest bribe realizing it.  Cells above the cost cap
are dropped as they appear (costs only grow), and so are cells whose gain
can no longer reach ``-base`` (the leader's count must stay non-negative).
The scan picks, among the signatures that meet the targets, the one whose
cell plus leader top-up is cheapest under the cap, and reconstructs its plan.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf
from typing import Optional

from .core import DomainError, ProblemInstance, ScoringRule, goals_met
from .costs import BribePlan, DollarCost, UnitCost, WitnessError, lift_to_top


class _Table:
    """Least cost per (g, a_out, a_rest) signature, with backpointers."""

    def __init__(self, instance: ProblemInstance, cap: Optional[int]):
        election = instance.election
        self.n = election.num_voters
        self.threshold_count = instance.plurality_activity_count()
        self.leader = instance.leader
        self.parties = list(instance.outsiders) + list(instance.coalition_rest)
        self.is_rest = set(instance.coalition_rest)
        model = instance.cost_model
        if not isinstance(model, (UnitCost, DollarCost)):
            raise DomainError("this solver handles unit and dollar bribery only")
        self.supporters: dict[str, list[tuple[int, int]]] = {
            p: [] for p in election.parties
        }
        for i, order in enumerate(election.orders):
            self.supporters[order.top()].append((model.voter_price(i), i))
        for lst in self.supporters.values():
            lst.sort()
        self.prefix = {
            p: list(accumulate((price for price, _ in lst), initial=0))
            for p, lst in self.supporters.items()
        }
        self.cells_built = 0
        self._combine(inf if cap is None else cap)

    def mincost(self, party: str, count: int) -> int:
        """Sum of the `count` smallest prices among the party's supporters."""
        return self.prefix[party][count]

    def single(self, party: str) -> dict[tuple[int, int, int], int]:
        """One party's cells: (g_p, active outsider votes, active rest votes)."""
        size = len(self.supporters[party])
        t = self.threshold_count
        rest = party in self.is_rest
        table = {}
        for g in range(size - self.n if rest else 0, size + 1):
            count = size - g
            active = count if count >= t else 0
            key = (g, 0, active) if rest else (g, active, 0)
            table[key] = self.mincost(party, max(0, g))
        return table

    def _combine(self, cap: float) -> None:
        # The parties after the current one can still raise g by at most
        # their supporter count, and the final g must reach -base.
        floor = -len(self.supporters[self.leader]) - sum(
            len(self.supporters[p]) for p in self.parties
        )
        cells = {(0, 0, 0): 0}
        self.backpointers = []
        for party in self.parties:
            floor += len(self.supporters[party])
            single = sorted(self.single(party).items(), key=lambda kv: kv[1])
            self.cells_built += len(single)
            merged: dict[tuple[int, int, int], int] = {}
            bp: dict[tuple[int, int, int], tuple[int, int, int]] = {}
            for (g, a_out, a_rest), cost in cells.items():
                for step, c in single:
                    total = cost + c
                    if total > cap:
                        break
                    key = (g + step[0], a_out + step[1], a_rest + step[2])
                    if key[0] < floor:
                        continue
                    if total < merged.get(key, inf):
                        merged[key] = total
                        bp[key] = step
            self.cells_built += len(merged)
            cells = merged
            self.backpointers.append(bp)
        self.cells = cells


def solve_plurality_t_dollar(
    instance: ProblemInstance, cap: Optional[int], stats: Optional[dict] = None
) -> Optional[BribePlan]:
    """Cheapest bribe costing at most `cap` (None: no limit), or None.

    Works for any threshold, including zero, under unit or dollar pricing.
    """
    if instance.rule is not ScoringRule.PLURALITY:
        raise DomainError("plurality instances only")
    table = _Table(instance, cap)
    if stats is not None:
        stats["table_cells"] = table.cells_built
        stats["signatures"] = len(table.cells)

    base_leader = len(table.supporters[instance.leader])
    t_count = table.threshold_count
    best_key, best_cost = None, inf if cap is None else cap + 1
    for key in sorted(table.cells, reverse=True):
        g, a_out, a_rest = key
        cell = table.cells[key]
        cost = cell + table.mincost(instance.leader, -g) if g < 0 else cell
        if cost >= best_cost:
            continue
        leader_count = base_leader + g
        leader_active = leader_count if leader_count >= t_count else 0
        total_active = a_rest + leader_active + a_out
        if goals_met(a_rest + leader_active, leader_active, total_active, instance):
            best_key, best_cost = key, cost
    if best_key is None:
        return None
    return _reconstruct(instance, table, best_key, best_cost)


def _reconstruct(instance: ProblemInstance, table: _Table, key, cost: int) -> BribePlan:
    election = instance.election
    leader = instance.leader

    topups = [idx for _, idx in table.supporters[leader][:max(0, -key[0])]]
    bought: list[int] = []
    additions: list[tuple[str, int]] = []
    for party, bp in zip(reversed(table.parties), reversed(table.backpointers)):
        step = bp[key]
        key = tuple(a - b for a, b in zip(key, step))
        count = max(0, step[0])
        bought.extend(idx for _, idx in table.supporters[party][:count])
        if count > step[0]:
            additions.append((party, count - step[0]))

    # Redirect the added votes into the coalition remainder, the rest to the
    # leader.  Prefer cross-party targets so replacements are real.
    pool = bought + topups
    targets: list[str] = []
    for party, count in additions:
        targets.extend([party] * count)
    targets.extend([leader] * (len(pool) - len(targets)))
    replacements = {}
    remaining = list(pool)
    for target in targets:
        pick = next(
            (i for i in remaining if election.orders[i].top() != target),
            remaining[0] if remaining else None,
        )
        if pick is None:
            raise WitnessError("vote reassignment ran out of bought voters")
        remaining.remove(pick)
        new_order = lift_to_top(election.orders[pick], target)
        if new_order != election.orders[pick]:
            replacements[pick] = new_order
    return BribePlan(replacements, cost)
