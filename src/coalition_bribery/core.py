"""Election model: parties, preference orders, positional scoring, seats.

A scoring rule is its score vector, `ScoringRule.points(m)`, which `score`,
`tally` and `grand_total` read; an instance's grand total is its `total`.

Everything that decides feasibility is exact: the threshold and the phi/rho
targets are `fractions.Fraction`s; the threshold becomes one integer cut,
and `goals_met` compares integer point counts against phi and rho by
cross-multiplication, never through floats.  Reported seat shares are
`Fraction`s.  Elections and problem instances are immutable once built, so
all functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Callable, Mapping, Optional, Sequence


class DomainError(ValueError):
    """Raised when inputs violate the election model (unknown party, etc.).

    `key` names the offending field (e.g. "threshold") or item (e.g.
    "subset 2" or "voter v1"), if any.
    """

    def __init__(self, message: str, key: Optional[str] = None):
        super().__init__(message)
        self.key = key


class ScoringRule(Enum):
    PLURALITY = "plurality"
    BORDA = "borda"

    __hash__ = object.__hash__  # members are singletons: `points`' memo hashes in C

    @cache
    def points(self, m: int) -> tuple[int, ...]:
        """The rule's score vector over m places, first place first:
        (1, 0, ..., 0) for plurality, (m - 1, ..., 1, 0) for Borda."""
        if self is ScoringRule.PLURALITY:
            return (1,) + (0,) * (m - 1)
        return tuple(range(m - 1, -1, -1))


@dataclass(frozen=True)
class Variant:
    """One cell of the rule/threshold/bribery/goal-shape taxonomy."""

    rule: ScoringRule
    thresholded: bool
    bribery: str  # unit | dollar | swap | shift
    with_preferred: bool

    def label(self) -> str:
        """Taxonomy cell name, e.g. ``Plurality_t-CBP/dollar``."""
        sub = "t" if self.thresholded else "0"
        kind = "CBP" if self.with_preferred else "CB"
        return f"{self.rule.value.capitalize()}_{sub}-{kind}/{self.bribery}"


@dataclass(frozen=True)
class PreferenceOrder:
    """A strict ranking over all parties, best first."""

    ranking: tuple[str, ...]
    _pos: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(set(self.ranking)) != len(self.ranking):
            raise DomainError(f"duplicate party in order {self.ranking}")
        object.__setattr__(
            self, "_pos", {p: i + 1 for i, p in enumerate(self.ranking)}
        )

    def position(self, party: str) -> int:
        """1-based rank of `party`; 1 is the most preferred."""
        try:
            return self._pos[party]
        except KeyError:
            raise DomainError(f"party {party!r} not in order") from None

    def top(self) -> str:
        return self.ranking[0]

    def __len__(self) -> int:
        return len(self.ranking)

    def __iter__(self):
        return iter(self.ranking)


@dataclass(frozen=True)
class Election:
    """An immutable election: m parties, n voters, one full order per voter."""

    parties: tuple[str, ...]
    voters: tuple[str, ...]
    orders: tuple[PreferenceOrder, ...]

    def __post_init__(self):
        if not self.parties:
            raise DomainError("election needs at least one party")
        if not self.voters:
            raise DomainError("election needs at least one voter")
        if len(set(self.parties)) != len(self.parties):
            raise DomainError("duplicate party names")
        if len(set(self.voters)) != len(self.voters):
            raise DomainError("duplicate voter ids")
        if len(self.orders) != len(self.voters):
            raise DomainError("one preference order per voter required")
        universe = frozenset(self.parties)
        for voter, order in zip(self.voters, self.orders):
            if frozenset(order.ranking) != universe:
                raise DomainError(
                    f"order of voter {voter} is not a permutation of the parties"
                )

    @property
    def num_parties(self) -> int:
        return len(self.parties)

    @property
    def num_voters(self) -> int:
        return len(self.voters)

    def voter_index(self, voter: str) -> int:
        try:
            return self.voters.index(voter)
        except ValueError:
            raise DomainError(f"unknown voter {voter!r}") from None


def score(order: PreferenceOrder, party: str, rule: ScoringRule) -> int:
    """Points `order` awards to `party`: its place's entry of `rule.points`."""
    return rule.points(len(order))[order.position(party) - 1]


def tally(
    orders: Sequence[PreferenceOrder], parties: Sequence[str], rule: ScoringRule
) -> dict[str, int]:
    """Per-party total points under `rule`."""
    counts = dict.fromkeys(parties, 0)
    for place, points in enumerate(rule.points(len(parties))):
        if not points:
            break  # a score vector never rises, so no later place scores
        for order in orders:
            counts[order.ranking[place]] += points
    return counts


def grand_total(num_voters: int, num_parties: int, rule: ScoringRule) -> int:
    """Total points any order profile distributes; invariant under bribery."""
    return num_voters * sum(rule.points(num_parties))


def seat_cut(total: int, threshold: Fraction) -> int:
    """The least score that seats a party: ``ceil(threshold * total)``."""
    return -(-threshold.numerator * total // threshold.denominator)


def active_parties_from_scores(
    scores: Mapping[str, int], total: int, threshold: Fraction
) -> set[str]:
    """Parties whose points reach `threshold` * `total`; equality counts as active."""
    need = seat_cut(total, threshold)
    return {p for p, s in scores.items() if s >= need}


def seat_fractions_from_scores(
    scores: Mapping[str, int], total: int, threshold: Fraction
) -> dict[str, Fraction]:
    """Seat share per party: proportional among active parties, zero otherwise.

    When no party is active (or all active scores are zero) every party gets
    zero seats.
    """
    active = active_parties_from_scores(scores, total, threshold)
    active_total = sum(scores[p] for p in active)
    if active_total == 0:
        return {p: Fraction(0) for p in scores}
    return {
        p: Fraction(scores[p], active_total) if p in active else Fraction(0)
        for p in scores
    }


@dataclass(frozen=True)
class ProblemInstance:
    """A complete coalition-bribery query.

    `preferred` is None for the plain coalition problem; in that case `rho`
    must be zero (the preferred-party condition degenerates).
    """

    election: Election
    rule: ScoringRule
    threshold: Fraction
    coalition: tuple[str, ...]
    phi: Fraction
    rho: Fraction
    budget: int
    cost_model: object
    preferred: Optional[str] = None

    def __post_init__(self):
        universe = set(self.election.parties)
        if not self.coalition:
            raise DomainError("coalition must be nonempty", "coalition")
        if len(set(self.coalition)) != len(self.coalition):
            raise DomainError("duplicate parties in coalition", "coalition")
        for party in self.coalition:
            if party not in universe:
                raise DomainError(f"unknown coalition party {party!r}", "coalition")
        if self.preferred is not None and self.preferred not in self.coalition:
            raise DomainError(f"preferred party {self.preferred!r} not in coalition", "preferred")
        for name, value in (
            ("threshold", self.threshold),
            ("phi", self.phi),
            ("rho", self.rho),
        ):
            if not 0 <= value <= 1:
                raise DomainError(f"{name} must lie in [0, 1], got {value}", name)
        if self.preferred is None and self.rho != 0:
            raise DomainError("rho must be 0 when no preferred party is given", "rho")
        if self.budget < 0:
            raise DomainError("budget must be non-negative", "budget")
        # Per-voter cost data is validated against this election here, where
        # both sides are known.
        validate = getattr(self.cost_model, "validate_for", None)
        if validate is not None:
            validate(self.election)

    @property
    def leader(self) -> str:
        """The preferred party, or a designated coalition member for CB."""
        return self.preferred if self.preferred is not None else self.coalition[0]

    @property
    def coalition_rest(self) -> tuple[str, ...]:
        leader = self.leader
        return tuple(p for p in self.coalition if p != leader)

    @property
    def outsiders(self) -> tuple[str, ...]:
        inside = set(self.coalition)
        return tuple(p for p in self.election.parties if p not in inside)

    @property
    def total(self) -> int:
        """The grand total of points, `grand_total` of this election."""
        election = self.election
        return grand_total(election.num_voters, election.num_parties, self.rule)

    @property
    def variant(self) -> Variant:
        """The taxonomy cell this instance belongs to."""
        kind = self.cost_model.kind
        return Variant(self.rule, self.threshold > 0, kind, self.preferred is not None)


def goals_met(coalition: int, leader: int, seated: int, instance: ProblemInstance) -> bool:
    """The support and ratio targets on seated points.

    `coalition`, `leader` and `seated` are the points of the seated coalition
    members, of the leader (0 when not seated) and of all seated parties.
    The coalition needs ``coalition >= phi * seated`` and the leader
    ``leader >= rho * coalition`` (rho is 0 without a preferred party);
    when nobody is seated only ``phi == 0`` is met.
    """
    if seated == 0:
        return instance.phi == 0
    phi, rho = instance.phi, instance.rho
    return (
        coalition * phi.denominator >= phi.numerator * seated
        and leader * rho.denominator >= rho.numerator * coalition
    )


def seated_points(
    instance: ProblemInstance, parties: Sequence[str]
) -> Callable[[Sequence[int]], tuple[int, int, int]]:
    """The (seated coalition, seated leader, all seated) points of a score
    tuple over `parties`, compiled once: the threshold becomes one integer
    cut, `seat_cut`.  Over disjoint parts of the parties the triples add up."""
    need = seat_cut(instance.total, instance.threshold)
    leader = instance.leader
    members = [parties.index(p) for p in instance.coalition if p in parties]
    leads = [parties.index(leader)] if leader in parties else []

    def points(scores: Sequence[int]) -> tuple[int, int, int]:
        return (
            sum([scores[i] for i in members if scores[i] >= need]),
            sum([scores[i] for i in leads if scores[i] >= need]),
            sum([s for s in scores if s >= need]),
        )

    return points


def check_goals(orders: Sequence[PreferenceOrder], instance: ProblemInstance) -> bool:
    """True iff the order profile meets the instance's support and ratio
    targets: its `tally`, read by `seated_points`, decided by `goals_met`."""
    parties = instance.election.parties
    scores = tuple(tally(orders, parties, instance.rule).values())
    return goals_met(*seated_points(instance, parties)(scores), instance)
