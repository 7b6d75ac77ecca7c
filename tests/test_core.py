"""Election model: scoring, activity thresholds, seat fractions, goal checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coalition_bribery.core import (
    DomainError,
    Election,
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    active_parties_from_scores,
    check_goals,
    goals_met,
    grand_total,
    seat_fractions_from_scores,
    score,
    seated_points,
    tally,
)
from coalition_bribery.costs import UnitCost
from coalition_bribery.oracle import _keys

from conftest import make_election

REVERSED4 = PreferenceOrder(("c4", "c3", "c2", "c1"))


def active(election, rule, threshold):
    scores = tally(election.orders, election.parties, rule)
    total = grand_total(election.num_voters, election.num_parties, rule)
    return active_parties_from_scores(scores, total, threshold)


def seats(election, rule, threshold):
    scores = tally(election.orders, election.parties, rule)
    total = grand_total(election.num_voters, election.num_parties, rule)
    return seat_fractions_from_scores(scores, total, threshold)


def election_35_15_50():
    rankings = (
        [["X", "Y", "Z"]] * 35 + [["Y", "Z", "X"]] * 15 + [["Z", "X", "Y"]] * 50
    )
    return make_election(("X", "Y", "Z"), rankings)


class TestScore:
    def test_borda_bottom(self):
        assert score(REVERSED4, "c1", ScoringRule.BORDA) == 0
        for m in range(1, 9):
            assert ScoringRule.BORDA.points(m) == tuple(range(m))[::-1]

    def test_plurality_top(self):
        assert score(REVERSED4, "c4", ScoringRule.PLURALITY) == 1
        for m in range(1, 9):
            assert ScoringRule.PLURALITY.points(m) == (1,) + (0,) * (m - 1)

    def test_borda_third(self):
        assert score(REVERSED4, "c2", ScoringRule.BORDA) == 1

    def test_unknown_party(self):
        with pytest.raises(DomainError):
            score(REVERSED4, "nope", ScoringRule.BORDA)


class TestTotalScore:
    def test_four_identical_orders_coalition(self):
        scores = tally([REVERSED4] * 4, REVERSED4.ranking, ScoringRule.BORDA)
        assert scores["c1"] + scores["c2"] == 4

    def test_plurality_full_set_is_voter_count(self):
        e = election_35_15_50()
        assert sum(tally(e.orders, e.parties, ScoringRule.PLURALITY).values()) == 100
        assert grand_total(100, 3, ScoringRule.PLURALITY) == 100

    def test_empty_party_set(self):
        # a lone party is every voter's last choice and earns no Borda point
        assert grand_total(1, 1, ScoringRule.BORDA) == 0


class TestActiveParties:
    def test_threshold_knocks_out_middle_party(self):
        e = election_35_15_50()
        assert active(e, ScoringRule.PLURALITY, Fraction(1, 5)) == {
            "X",
            "Z",
        }

    def test_zero_threshold_keeps_everyone(self):
        e = election_35_15_50()
        assert active(e, ScoringRule.PLURALITY, Fraction(0)) == {
            "X",
            "Y",
            "Z",
        }

    def test_sixteen_voter_pre_bribe(self):
        rankings = (
            [["c1", "c2", "c3"]] * 5
            + [["c2", "c3", "c1"]]
            + [["c3", "c1", "c2"]] * 10
        )
        e = make_election(("c1", "c2", "c3"), rankings)
        assert active(e, ScoringRule.PLURALITY, Fraction(1, 8)) == {
            "c1",
            "c3",
        }


class TestSeatFractions:
    def test_inactive_party_gets_zero(self):
        e = election_35_15_50()
        shares = seats(e, ScoringRule.PLURALITY, Fraction(1, 5))
        assert shares == {"X": Fraction(35, 85), "Y": Fraction(0), "Z": Fraction(50, 85)}

    def test_zero_threshold_symmetric(self):
        e = make_election(("a", "b"), [["a", "b"], ["b", "a"]])
        shares = seats(e, ScoringRule.PLURALITY, Fraction(0))
        assert shares == {"a": Fraction(1, 2), "b": Fraction(1, 2)}

    def test_post_bribe_coalition_share(self):
        rankings = (
            [["X", "Y", "Z"]] * 35 + [["Y", "Z", "X"]] * 20 + [["Z", "X", "Y"]] * 45
        )
        e = make_election(("X", "Y", "Z"), rankings)
        shares = seats(e, ScoringRule.PLURALITY, Fraction(1, 5))
        assert shares["X"] + shares["Y"] == Fraction(55, 100)


class TestCheckGoals:
    def _instance(self, election, **kwargs):
        defaults = dict(
            rule=ScoringRule.PLURALITY,
            threshold=Fraction(1, 5),
            coalition=("X", "Y"),
            phi=Fraction(1, 2),
            rho=Fraction(0),
            budget=0,
            cost_model=UnitCost(),
        )
        defaults.update(kwargs)
        return ProblemInstance(election=election, **defaults)

    def test_final_tally_meets_both_targets(self):
        rankings = (
            [["X", "Y", "Z"]] * 32 + [["Y", "Z", "X"]] * 20 + [["Z", "X", "Y"]] * 48
        )
        e = make_election(("X", "Y", "Z"), rankings)
        inst = self._instance(e, preferred="X", rho=Fraction(61, 100))
        assert check_goals(e.orders, inst)

    def test_zero_targets_always_hold(self):
        e = election_35_15_50()
        inst = self._instance(e, phi=Fraction(0))
        assert check_goals(e.orders, inst)

    def test_sixteen_voter_post_bribe(self):
        rankings = (
            [["c1", "c2", "c3"]] * 6 + [["c2", "c3", "c1"]] * 2 + [["c3", "c1", "c2"]] * 8
        )
        e = make_election(("c1", "c2", "c3"), rankings)
        inst = ProblemInstance(
            election=e,
            rule=ScoringRule.PLURALITY,
            threshold=Fraction(1, 8),
            coalition=("c1", "c2"),
            preferred="c1",
            phi=Fraction(1, 2),
            rho=Fraction(3, 4),
            budget=0,
            cost_model=UnitCost(),
        )
        assert check_goals(e.orders, inst)

    def test_all_inactive_fails_positive_phi(self):
        # threshold of 1 knocks everyone out when votes are split
        e = make_election(("X", "Y", "Z"), [["X", "Y", "Z"], ["Y", "Z", "X"]])
        inst = self._instance(e, threshold=Fraction(1))
        assert not check_goals(e.orders, inst)
        assert check_goals(e.orders, self._instance(e, threshold=Fraction(1), phi=Fraction(0)))


@st.composite
def elections(draw, max_parties=5, max_voters=6):
    m = draw(st.integers(1, max_parties))
    n = draw(st.integers(1, max_voters))
    parties = tuple(f"p{i}" for i in range(m))
    rankings = [draw(st.permutations(parties)) for _ in range(n)]
    return make_election(parties, rankings)


@st.composite
def thresholds(draw):
    den = draw(st.integers(1, 10))
    num = draw(st.integers(0, den))
    return Fraction(num, den)


@given(elections())
def test_positions_are_a_permutation(election):
    m = election.num_parties
    for order in election.orders:
        positions = sorted(order.position(p) for p in election.parties)
        assert positions == list(range(1, m + 1))


@given(elections(), st.sampled_from(list(ScoringRule)))
def test_score_conservation(election, rule):
    # Each order awards a party its place's entry of the score vector; the
    # points sum to the grand total, which an instance reads as `total`.
    points = rule.points(election.num_parties)
    for order in election.orders:
        for party in election.parties:
            assert score(order, party, rule) == points[order.position(party) - 1]
    counts = tally(election.orders, election.parties, rule)
    total = grand_total(election.num_voters, election.num_parties, rule)
    assert sum(counts.values()) == total
    instance = ProblemInstance(election, rule, Fraction(0), election.parties[:1],
                               Fraction(0), Fraction(0), 0, UnitCost())
    assert instance.total == total


@given(elections(), st.sampled_from(list(ScoringRule)), thresholds())
def test_seat_normalization(election, rule, t):
    assert sum(seats(election, rule, t).values()) in (Fraction(0), Fraction(1))


@st.composite
def goal_cases(draw, profile_bound=False):
    """An instance and a score vector, favouring the predicate's edges:
    threshold, phi and rho at 0 and 1, nothing seated, and scores on, just
    under and just over the cut threshold * total.  With `profile_bound`,
    scores under a threshold are clamped to n * top, the most one party holds
    in a profile, for top the points of a first place, and then in party
    order to what the grand total leaves, as a profile's scores sum to it."""
    election = draw(elections())
    rule = draw(st.sampled_from(list(ScoringRule)))
    parties = election.parties
    total = grand_total(election.num_voters, election.num_parties, rule)
    edge = st.sampled_from([Fraction(0), Fraction(1)])
    threshold = draw(st.one_of(edge, thresholds()))
    cut = threshold * total
    near = sorted(v for v in {math.floor(cut) - 1, math.floor(cut), math.ceil(cut),
                              math.ceil(cut) + 1} if 0 <= v <= total)
    compositions = st.lists(st.integers(0, total), min_size=len(parties) - 1,
                            max_size=len(parties) - 1).map(lambda cuts: composition(cuts, total))
    # at threshold 0 only the coalition's and the leader's points are read,
    # against the grand total, so only vectors summing to it are drawn
    values = draw(compositions if not threshold else st.one_of(
        st.just([0] * len(parties)),
        st.lists(st.integers(0, total), min_size=len(parties), max_size=len(parties)),
        st.lists(st.sampled_from(near), min_size=len(parties), max_size=len(parties)),
        compositions,
    ))
    if profile_bound and threshold:
        top = 1 if rule is ScoringRule.PLURALITY else len(parties) - 1
        bounded, room = [], total
        for value in values:
            bounded.append(min(value, election.num_voters * top, room))
            room -= bounded[-1]
        values = bounded
    coalition = draw(st.one_of(
        st.just(parties),
        st.lists(st.sampled_from(parties), min_size=1, unique=True).map(tuple),
    ))
    preferred = draw(st.one_of(st.none(), st.sampled_from(coalition)))
    inst = ProblemInstance(
        election=election, rule=rule, threshold=threshold,
        coalition=coalition, preferred=preferred,
        phi=draw(st.one_of(edge, thresholds())),
        rho=Fraction(0) if preferred is None else draw(st.one_of(edge, thresholds())),
        budget=0, cost_model=UnitCost(),
    )
    return inst, dict(zip(parties, values))


def composition(cuts, total):
    """The parts `total` falls into at `cuts`: a score vector a profile can
    hold, since bribery never changes the total."""
    ends = [0, *sorted(cuts), total]
    return [b - a for a, b in zip(ends, ends[1:])]


def seated_goal(inst, vector):
    """The goal test `check_goals` applies, on a score vector in party order."""
    return goals_met(*seated_points(inst)(vector), inst)


def cut_case(num_voters, threshold, scores, phi, rule=ScoringRule.PLURALITY, size=1):
    """`rule` over p0, p1, ..., one party per score, with the first `size`
    parties as coalition and `scores` in party order."""
    parties = tuple(f"p{i}" for i in range(len(scores)))
    election = make_election(parties, [parties] * num_voters)
    inst = ProblemInstance(
        election=election, rule=rule, threshold=threshold,
        coalition=parties[:size], phi=phi, rho=Fraction(0), budget=0, cost_model=UnitCost(),
    )
    return inst, dict(zip(parties, scores))


@settings(max_examples=300, deadline=None)
@given(goal_cases())
# Both parties sit exactly on the cut 1: a strict cut seats nobody.
@example(cut_case(2, Fraction(1, 2), (1, 1), Fraction(1, 2)))
# The cut 3/2 seats p1 alone: a floored cut (1) would seat p0 too.
@example(cut_case(3, Fraction(1, 2), (1, 2), Fraction(1, 3)))
def test_seated_goal_matches_seat_shares(case):
    # The goals read off exact seat shares: a party is seated when its
    # points reach threshold * total, and seats split among seated points.
    inst, scores = case
    total = grand_total(inst.election.num_voters, inst.election.num_parties, inst.rule)
    seated = {p: s for p, s in scores.items() if s >= inst.threshold * total}
    seated_total = sum(seated.values())
    shares = {p: Fraction(seated.get(p, 0), seated_total or 1) for p in scores}
    coalition = sum(shares[p] for p in inst.coalition)
    if seated_total == 0:
        expected = inst.phi == 0
    else:
        expected = coalition >= inst.phi and shares[inst.leader] >= inst.rho * coalition
    assert seated_goal(inst, [scores[p] for p in inst.election.parties]) == expected


@settings(max_examples=200, deadline=None)
@given(goal_cases(profile_bound=True))
@example(cut_case(2, Fraction(1, 2), (1, 1), Fraction(1, 2)))
@example(cut_case(3, Fraction(1, 2), (1, 2), Fraction(1, 3)))
# At threshold 0 the key is the coalition's points alone (rho = 0).
@example(cut_case(2, Fraction(0), (1, 1), Fraction(1, 2)))
@example(cut_case(2, Fraction(0), (0, 2), Fraction(1, 2)))
# All six seated, summing to T = 15: a field too narrow for T reads the sum 0.
@example(cut_case(1, Fraction(1, 100), (5, 4, 3, 2, 1, 0), Fraction(1, 2),
                  ScoringRule.BORDA, size=6))
# The cut T = 6 passes every digit (at most 3) and half a field: unclamped,
# it borrows across fields and seats some party.
@example(cut_case(1, Fraction(1), (0, 1, 2, 3), Fraction(1, 2), ScoringRule.BORDA, size=4))
# p0 holds n * top = 2: without a guard bit above it, its field reads unseated.
@example(cut_case(2, Fraction(1, 4), (2, 0), Fraction(1, 2)))
def test_packed_goal_matches_seated_goal(case):
    # The exact search keys a state by its score vector weighted per party
    # (`_keys`): the whole vector under a threshold, one field per party,
    # tested on all fields in one pass, and at threshold 0 the leader's and
    # the coalition's points, read against the grand total; the coalition's
    # points are the top digit.  On every vector a profile can hold (under
    # a threshold each score at most n * top and all of them at most the
    # grand total; at threshold 0 summing to it), on and next to the seat
    # cut, that must agree with the whole-vector goal test.
    inst, scores = case
    weight, high, met = _keys(inst)
    key = sum(s * weight[p] for p, s in scores.items())
    assert key // high == sum(scores[p] for p in inst.coalition)
    vector = [scores[p] for p in inst.election.parties]
    assert met(key) == seated_goal(inst, vector)


@given(elections(), st.sampled_from(list(ScoringRule)), thresholds(), thresholds())
def test_threshold_monotone(election, rule, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert active(election, rule, hi) <= active(election, rule, lo)


@given(elections(), st.sampled_from(list(ScoringRule)))
def test_zero_threshold_is_pure_proportionality(election, rule):
    shares = seats(election, rule, Fraction(0))
    counts = tally(election.orders, election.parties, rule)
    total = grand_total(election.num_voters, election.num_parties, rule)
    if total == 0:
        assert all(v == 0 for v in shares.values())
    else:
        assert shares == {p: Fraction(c, total) for p, c in counts.items()}


def test_election_validation():
    with pytest.raises(DomainError):
        make_election(("a", "b"), [["a", "a"]])
    with pytest.raises(DomainError):
        make_election(("a", "b"), [["a"]])
    with pytest.raises(DomainError):
        Election((), (), ())
