"""The four bribery price structures and bribe plans.

A bribe is identified with the replacement orders it produces.  Cost models
price a single voter's replacement; `plan_cost` sums them.  All prices are
integers so downstream tables and flow networks stay integral.

Shift bribery is the only model with an admissibility restriction: a pair may
invert only when the rising party belongs to the coalition.  This keeps the
relative order of non-coalition parties fixed and forbids demoting a coalition
member below an outsider it used to beat, while still allowing coalition
members to overtake each other.

`iter_orders` generates the swap and shift replacement orders of one voter,
front to back and cut at a cost cap; `count_orders` counts them uncapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence, get_args,
)

from .core import DomainError, Election, PreferenceOrder


class WitnessError(RuntimeError):
    """A solver's plan failed re-verification; indicates a solver bug."""


def inverted_pairs(
    old: PreferenceOrder, new: PreferenceOrder
) -> set[tuple[str, str]]:
    """Ordered pairs (x, y) where y is below x in `old` and above x in `new`.

    Places `new` top down, as `iter_orders` does: each y inverts with the
    parties not yet placed that `old` ranks above it."""
    if frozenset(old.ranking) != frozenset(new.ranking):
        raise DomainError("orders range over different party sets")
    unplaced = list(old.ranking)
    pairs = set()
    for y in new.ranking:
        i = unplaced.index(y)
        if i:
            pairs.update(zip(unplaced[:i], repeat(y)))
        del unplaced[i]
    return pairs


@dataclass(frozen=True)
class UnitCost:
    """Any change costs one unit; keeping the order is free."""

    kind = "unit"

    def voter_price(self, i: int) -> int:
        """What voter i charges for any change."""
        return 1

    def voter_cost(self, i: int, old: PreferenceOrder, new: PreferenceOrder,
                   coalition: Sequence[str]) -> Optional[int]:
        return 0 if new == old else 1

    def max_voter_cost(self, i: int, num_parties: int) -> int:
        return 1


@dataclass(frozen=True)
class DollarCost:
    """Any change to voter i costs prices[i]."""

    prices: tuple[int, ...]
    kind = "dollar"

    def validate_for(self, election: Election) -> None:
        if len(self.prices) != election.num_voters:
            raise DomainError("one price per voter required")
        for voter, p in zip(election.voters, self.prices):
            if p < 0:
                raise DomainError("prices must be non-negative", f"voter {voter}")

    def voter_price(self, i: int) -> int:
        """What voter i charges for any change."""
        return self.prices[i]

    def voter_cost(self, i, old, new, coalition) -> Optional[int]:
        return 0 if new == old else self.prices[i]

    def max_voter_cost(self, i: int, num_parties: int) -> int:
        return self.prices[i]


@dataclass(frozen=True)
class SwapCost:
    """Price per inverted pair: pair_prices[i][(x, y)] is what voter i charges
    for y ending up above x after starting below it."""

    pair_prices: tuple[Mapping[tuple[str, str], int], ...]
    kind = "swap"

    def validate_for(self, election: Election) -> None:
        if len(self.pair_prices) != election.num_voters:
            raise DomainError("one pair-price table per voter required")
        parties = election.parties
        for voter, table in zip(election.voters, self.pair_prices):
            key = f"voter {voter}"
            for x in parties:
                for y in parties:
                    if x == y:
                        continue
                    if (x, y) not in table:
                        raise DomainError(f"missing swap price for pair ({x}, {y})", key)
                    if table[(x, y)] < 0:
                        raise DomainError("swap prices must be non-negative", key)

    def voter_cost(self, i, old, new, coalition) -> Optional[int]:
        table = self.pair_prices[i]
        return sum(table[pair] for pair in inverted_pairs(old, new))

    def max_voter_cost(self, i: int, num_parties: int) -> int:
        return sum(self.pair_prices[i].values())


@dataclass(frozen=True)
class ShiftCost:
    """Monotone price of the number of inverted pairs; only coalition members
    may rise.  tables[i][k] is what voter i charges for k inversions."""

    tables: tuple[tuple[int, ...], ...]
    kind = "shift"

    @classmethod
    def multiplicative(cls, slopes: Iterable[int], num_parties: int) -> "ShiftCost":
        """Tables of the form price = slope * inversions."""
        max_pairs = num_parties * (num_parties - 1) // 2
        return cls(
            tuple(
                tuple(s * k for k in range(max_pairs + 1)) for s in slopes
            )
        )

    def validate_for(self, election: Election) -> None:
        if len(self.tables) != election.num_voters:
            raise DomainError("one shift table per voter required")
        m = election.num_parties
        needed = m * (m - 1) // 2 + 1
        for voter, table in zip(election.voters, self.tables):
            key = f"voter {voter}"
            if len(table) < needed:
                raise DomainError(
                    f"shift table of voter {voter} must cover 0..{needed - 1} inversions", key
                )
            if table[0] != 0:
                raise DomainError("shift tables must start at 0", key)
            if any(a > b for a, b in zip(table, table[1:])):
                raise DomainError("shift tables must be non-decreasing", key)

    def slope(self, i: int) -> Optional[int]:
        """The per-inversion price if tables[i] is multiplicative, else None."""
        table = self.tables[i]
        if len(table) < 2:
            return 0
        s = table[1]
        if all(table[k] == s * k for k in range(len(table))):
            return s
        return None

    def voter_cost(self, i, old, new, coalition) -> Optional[int]:
        pairs = inverted_pairs(old, new)
        if any(riser not in coalition for _, riser in pairs):
            return None
        return self.tables[i][len(pairs)]

    def max_voter_cost(self, i: int, num_parties: int) -> int:
        return self.tables[i][num_parties * (num_parties - 1) // 2]


CostModel = UnitCost | DollarCost | SwapCost | ShiftCost
BRIBERY_KINDS = tuple(model.kind for model in get_args(CostModel))


def bribe_cost(
    model: CostModel,
    i: int,
    old: PreferenceOrder,
    new: PreferenceOrder,
    coalition: Sequence[str],
) -> Optional[int]:
    """Price of voter i's replacement, or None when the move is inadmissible."""
    return model.voter_cost(i, old, new, set(coalition))


@dataclass(frozen=True)
class BribePlan:
    """Replacement orders keyed by voter index; untouched voters are absent."""

    replacements: Mapping[int, PreferenceOrder]
    cost: int

    @classmethod
    def empty(cls) -> "BribePlan":
        return cls({}, 0)


def plan_cost(
    model: CostModel, instance_coalition: Sequence[str], election: Election,
    plan: BribePlan,
) -> Optional[int]:
    """Summed per-voter cost of `plan`, or None if any replacement is inadmissible."""
    total = 0
    for i, new in plan.replacements.items():
        if not 0 <= i < election.num_voters:
            raise DomainError(f"plan touches unknown voter index {i}")
        c = bribe_cost(model, i, election.orders[i], new, instance_coalition)
        if c is None:
            return None
        total += c
    return total


def apply_plan(election: Election, plan: BribePlan) -> tuple[PreferenceOrder, ...]:
    """The order profile after carrying out `plan`."""
    return tuple(
        plan.replacements.get(i, order) for i, order in enumerate(election.orders)
    )


def lift_to_top(order: PreferenceOrder, party: str) -> PreferenceOrder:
    """`order` with `party` moved to rank 1 and nothing else reordered."""
    order.position(party)
    return PreferenceOrder((party,) + tuple(p for p in order.ranking if p != party))


def iter_orders(
    order: PreferenceOrder,
    may_rise: Collection[str],
    pair_price: Callable[[str, str], int],
    cap: float = math.inf,
) -> Iterator[tuple[PreferenceOrder, int]]:
    """Each reordering of `order` in which only parties in `may_rise` rise
    above a party they were below, once, with the summed `pair_price(x, y)`
    of the pairs (x, y) it inverts.

    Fills slots front to back: placing y inverts it with every unplaced party
    that was above it, so a party outside `may_rise` waits until none is
    left.  A prefix whose total passes `cap` (inf: no limit) is cut; one
    within it completes at no extra cost (the rest in their original order),
    so every branch walked yields an order.
    """
    ranking = order.ranking
    m = len(ranking)
    rises = [y in may_rise for y in ranking]
    # prices[j][i]: the price of y = ranking[j] passing x = ranking[i], i < j
    prices = [[pair_price(x, y) for x in ranking[:j]] for j, y in enumerate(ranking)]
    prefix: list[str] = []

    def rec(placed: int, total: int):
        if len(prefix) == m:
            yield PreferenceOrder(tuple(prefix)), total
            return
        passed: list[int] = []  # unplaced parties originally above ranking[j]
        for j in range(m):
            if placed >> j & 1:
                continue
            if rises[j] or not passed:
                added = total + sum(prices[j][i] for i in passed)
                if added <= cap:
                    prefix.append(ranking[j])
                    yield from rec(placed | 1 << j, added)
                    prefix.pop()
            passed.append(j)

    yield from rec(0, 0)


def count_orders(order: PreferenceOrder, may_rise: Collection[str]) -> int:
    """How many orders `iter_orders(order, may_rise, ...)` yields with no cap.

    Insert the parties top down.  A party outside `may_rise` passes nobody,
    so it has one place: below every party above it.  The i-th party from
    the top, if in `may_rise`, has i places among the i - 1 parties above
    it.  With every party in `may_rise` the product is m!.
    """
    return math.prod(
        places for places, party in enumerate(order.ranking, 1) if party in may_rise
    )
