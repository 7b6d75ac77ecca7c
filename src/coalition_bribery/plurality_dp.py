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

The goal test reads nothing but the leader's count and the two active
totals, which a signature fixes, and costs add across parties; so the
cheapest cell per signature decides the instance exactly.  Cells above the
budget are dropped as they appear (costs only grow), and so are cells whose
gain can no longer reach ``-base`` (the leader's count must stay
non-negative).  The scan runs over the signatures in descending
lexicographic order and reconstructs a plan for the first one that meets
the targets within the budget.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf
from typing import Optional

from .core import DomainError, ProblemInstance, ScoringRule, check_goals
from .costs import (
    BribePlan,
    DollarCost,
    SolveOutcome,
    UnitCost,
    WitnessError,
    apply_plan,
    lift_to_top,
    plan_cost,
)


def _voter_prices(instance: ProblemInstance) -> list[int]:
    model = instance.cost_model
    n = instance.election.num_voters
    if isinstance(model, UnitCost):
        return [1] * n
    if isinstance(model, DollarCost):
        return list(model.prices)
    raise DomainError("this solver handles unit and dollar bribery only")


class _Table:
    """Least cost per (g, a_out, a_rest) signature, with backpointers."""

    def __init__(self, instance: ProblemInstance):
        election = instance.election
        self.n = election.num_voters
        self.threshold_count = instance.plurality_activity_count()
        self.leader = instance.leader
        self.parties = list(instance.outsiders) + list(instance.coalition_rest)
        self.is_rest = set(instance.coalition_rest)
        prices = _voter_prices(instance)
        self.supporters: dict[str, list[tuple[int, int]]] = {
            p: [] for p in election.parties
        }
        for i, order in enumerate(election.orders):
            self.supporters[order.top()].append((prices[i], i))
        for lst in self.supporters.values():
            lst.sort()
        self.prefix = {
            p: list(accumulate((price for price, _ in lst), initial=0))
            for p, lst in self.supporters.items()
        }
        self.cells_built = 0
        self._combine(instance.budget)

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

    def _combine(self, budget: int) -> None:
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
                    if total > budget:
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
    instance: ProblemInstance, stats: Optional[dict] = None
) -> SolveOutcome:
    """Decide the instance and emit a verifying plan when feasible.

    Works for any threshold, including zero, under unit or dollar pricing.
    """
    if instance.rule is not ScoringRule.PLURALITY:
        raise DomainError("plurality instances only")
    election = instance.election
    if check_goals(election.orders, instance):
        return SolveOutcome.yes(BribePlan.empty())

    table = _Table(instance)
    if stats is not None:
        stats["table_cells"] = table.cells_built
        stats["signatures"] = len(table.cells)

    base_leader = len(table.supporters[instance.leader])
    t_count = table.threshold_count
    phi_num, phi_den = instance.phi.numerator, instance.phi.denominator
    rho_num, rho_den = instance.rho.numerator, instance.rho.denominator
    for key in sorted(table.cells, reverse=True):
        g, a_out, a_rest = key
        if g < 0 and (
            table.cells[key] + table.mincost(instance.leader, -g) > instance.budget
        ):
            continue
        leader_count = base_leader + g
        leader_active = leader_count if leader_count >= t_count else 0
        coalition_active = a_rest + leader_active
        total_active = coalition_active + a_out
        if total_active == 0:
            ok = phi_num == 0
        else:
            ok = coalition_active * phi_den >= phi_num * total_active and (
                leader_active * rho_den >= rho_num * coalition_active
            )
        if ok:
            return SolveOutcome.yes(_reconstruct(instance, table, key))
    return SolveOutcome.no()


def _reconstruct(instance: ProblemInstance, table: _Table, key) -> BribePlan:
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

    cost = plan_cost(
        instance.cost_model, instance.coalition, election,
        BribePlan(replacements, 0),
    )
    if cost is None or cost > instance.budget:
        raise WitnessError("reconstructed plan exceeds the budget")
    plan = BribePlan(replacements, cost)
    if not check_goals(apply_plan(election, plan), instance):
        raise WitnessError("reconstructed plan misses the goals")
    return plan
