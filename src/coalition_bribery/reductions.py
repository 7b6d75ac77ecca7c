"""Generators that embed set-cover and graph-bisection inputs as bribery
instances.

These construct the instances only; deciding them is left to the exact
search, and any plan for an image is verified by the ordinary plan machinery
rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import DomainError, Election, PreferenceOrder, ProblemInstance, ScoringRule, grand_total
from .costs import ShiftCost, SwapCost, UnitCost


@dataclass(frozen=True)
class ExactCover34Instance:
    """Universe of size n (divisible by 4) and 4-element subsets, each
    element occurring in exactly three of them."""

    universe_size: int
    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.universe_size
        if n <= 0 or n % 4 != 0:
            raise DomainError("universe size must be a positive multiple of 4", "universe")
        if len(self.subsets) != 3 * n // 4:
            raise DomainError("need exactly 3n/4 subsets", "universe")
        occurrences = {z: 0 for z in range(1, n + 1)}
        for j, subset in enumerate(self.subsets):
            if len(set(subset)) != 4:
                raise DomainError(
                    "every subset must have exactly 4 distinct elements", f"subset {j}"
                )
            for z in subset:
                if z not in occurrences:
                    raise DomainError(f"element {z} outside the universe", f"subset {j}")
                occurrences[z] += 1
        if any(c != 3 for c in occurrences.values()):
            raise DomainError("every element must occur in exactly 3 subsets", "universe")


@dataclass(frozen=True)
class MinBisectionInstance:
    """Graph on an even number of vertices and a crossing-edge bound."""

    num_vertices: int
    edges: frozenset[tuple[int, int]]
    bound: int

    def __post_init__(self):
        if self.num_vertices <= 0 or self.num_vertices % 2 != 0:
            raise DomainError("vertex count must be positive and even", "vertices")
        if self.bound < 0:
            raise DomainError("crossing bound must be non-negative", "bound")
        for u, v in self.edges:
            if u == v or not (1 <= u <= self.num_vertices and 1 <= v <= self.num_vertices):
                raise DomainError(f"bad edge ({u}, {v})", f"edge {u} {v}")

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges


def _subset_party(j: int) -> str:
    return f"set{j + 1}"


def reduce_x3c_to_plurality_shift_cb(x: ExactCover34Instance) -> ProblemInstance:
    """Threshold plurality with shift bribery; feasible iff a cover exists.

    Element voters start behind a filler favourite and can only afford to
    promote parties of subsets containing their element; a second bank of
    voters keeps the filler alive and is priced out of helping the coalition.
    """
    n = x.universe_size
    m = len(x.subsets)
    set_parties = tuple(_subset_party(j) for j in range(m))
    pads = tuple(f"pad{j}" for j in range(3 * n + 1))
    parties = set_parties + pads
    containing = {
        z: tuple(j for j, subset in enumerate(x.subsets) if z in subset)
        for z in range(1, n + 1)
    }
    voters = []
    orders = []
    for z in range(1, n + 1):
        voters.append(f"e{z}")
        mine = tuple(_subset_party(j) for j in containing[z])
        rest = tuple(p for p in set_parties if p not in mine)
        orders.append(PreferenceOrder((pads[0],) + mine + pads[1:] + rest))
    for z in range(1, n + 1):
        voters.append(f"w{z}")
        orders.append(PreferenceOrder(pads + set_parties))
    election = Election(parties, tuple(voters), tuple(orders))
    return ProblemInstance(
        election=election,
        rule=ScoringRule.PLURALITY,
        threshold=Fraction(4, 2 * n),
        coalition=set_parties,
        phi=Fraction(1, 2),
        rho=Fraction(0),
        budget=3 * n,
        cost_model=ShiftCost.multiplicative([1] * (2 * n), len(parties)),
    )


def reduce_x3c_to_borda_unit_cb(x: ExactCover34Instance) -> ProblemInstance:
    """Threshold Borda with unit bribery; feasible iff a cover exists.

    The coalition must take every seat, which forces each element party below
    the activity bar; only bribes that push a whole subset block past the
    coalition shave off enough points.
    """
    n = x.universe_size
    m = len(x.subsets)
    coalition = tuple(f"a{i}" for i in range(1, m * n + 2))
    element_parties = tuple(f"u{z}" for z in range(1, n + 1))
    parties = coalition + element_parties
    num_parties = len(parties)

    def block(subset: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(f"u{z}" for z in sorted(subset))

    voters = []
    orders = []
    for j, subset in enumerate(x.subsets):
        voters.append(f"v{j + 1}")
        mine = block(subset)
        others = tuple(p for p in element_parties if p not in mine)
        orders.append(PreferenceOrder(mine + coalition + others))
    for j, subset in enumerate(x.subsets):
        voters.append(f"w{j + 1}")
        mine = block(subset)
        others = tuple(p for p in element_parties if p not in mine)
        orders.append(
            PreferenceOrder(coalition[::-1] + others[::-1] + mine[::-1])
        )
    election = Election(parties, tuple(voters), tuple(orders))
    activity_points = n * n + 2 * m * n + 2
    total = grand_total(2 * m, num_parties, ScoringRule.BORDA)
    return ProblemInstance(
        election=election,
        rule=ScoringRule.BORDA,
        threshold=Fraction(activity_points, total),
        coalition=coalition,
        phi=Fraction(1),
        rho=Fraction(0),
        budget=n // 4,
        cost_model=UnitCost(),
    )


def reduce_minbisection_to_borda_swap_cb(x: MinBisectionInstance) -> ProblemInstance:
    """Zero-threshold Borda with swap bribery; feasible iff a bisection exists.

    A single voter ranks a lone outsider first.  Promoting a first-copy party
    past the outsider is expensive, promoting the matching second copy is
    cheaper but pays one unit per graph edge crossing the implied vertex
    split, and jumping a second copy over its own first copy is priced out.
    """
    half = x.num_vertices // 2
    k = x.bound
    first = tuple(f"a{i}" for i in range(1, x.num_vertices + 1))
    second = tuple(f"b{i}" for i in range(1, x.num_vertices + 1))
    outsider = "x"
    parties = (outsider,) + first + second
    order = PreferenceOrder(parties)
    election = Election(parties, ("v1",), (order,))
    budget = half * (k + half) ** 2 + half * k * half + k

    prices: dict[tuple[str, str], int] = {}
    for p in parties:
        for q in parties:
            if p != q:
                prices[(p, q)] = 0
    for i in range(1, x.num_vertices + 1):
        prices[(f"a{i}", f"b{i}")] = budget + 1
        prices[(f"b{i}", f"a{i}")] = budget + 1
        prices[(outsider, f"a{i}")] = (k + half) ** 2
        prices[(f"a{i}", outsider)] = (k + half) ** 2
        prices[(outsider, f"b{i}")] = k * half
        prices[(f"b{i}", outsider)] = k * half
        for j in range(1, x.num_vertices + 1):
            if i != j:
                cross = 1 if x.has_edge(i, j) else 0
                prices[(f"a{j}", f"b{i}")] = cross
                prices[(f"b{i}", f"a{j}")] = cross
    model = SwapCost((prices,))
    coalition = first + second
    return ProblemInstance(
        election=election,
        rule=ScoringRule.BORDA,
        threshold=Fraction(0),
        coalition=coalition,
        phi=Fraction(4 * half, 4 * half + 1),
        rho=Fraction(0),
        budget=budget,
        cost_model=model,
    )


def shift_to_swap(instance: ProblemInstance) -> ProblemInstance:
    """Rewrite a multiplicative shift instance as a swap instance.

    Raising a coalition member past anyone costs the voter's slope; raising
    anything else is priced at budget + 1, so the swap plans within the
    budget are exactly the admissible shift plans within it, at identical
    cost.  The equivalence holds only within the budget: uncapped, the image
    admits plans that use the pairs priced at budget + 1.
    """
    model = instance.cost_model
    if not isinstance(model, ShiftCost):
        raise DomainError("expected a shift cost model")
    election = instance.election
    coalition = set(instance.coalition)
    blocked = instance.budget + 1
    tables = []
    for i in range(election.num_voters):
        slope = model.slope(i)
        if slope is None:
            raise DomainError(
                f"shift table of voter {election.voters[i]} is not multiplicative"
            )
        prices = {}
        for x in election.parties:
            for y in election.parties:
                if x != y:
                    prices[(x, y)] = slope if y in coalition else blocked
        tables.append(prices)
    return replace(instance, cost_model=SwapCost(tuple(tables)))
