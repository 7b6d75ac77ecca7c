"""Cost models: admissibility, per-voter prices, plan costs."""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from coalition_bribery.core import DomainError, PreferenceOrder
from coalition_bribery.costs import (
    BribePlan,
    DollarCost,
    ShiftCost,
    SwapCost,
    UnitCost,
    bribe_cost,
    count_orders,
    inverted_pairs,
    iter_orders,
    lift_to_top,
    plan_cost,
)
from coalition_bribery.sample_instances import (
    sixteen_voter_shift_cbp,
    three_party_dollar_cbp,
)

ABC = PreferenceOrder(("a", "b", "c"))


class TestInvertedPairs:
    def test_identity(self):
        assert inverted_pairs(ABC, ABC) == set()

    def test_bottom_to_top(self):
        assert inverted_pairs(ABC, PreferenceOrder(("c", "a", "b"))) == {
            ("a", "c"),
            ("b", "c"),
        }
        # cross-check by enumerating all nine ordered pairs by hand
        new = PreferenceOrder(("c", "a", "b"))
        expected = {
            (x, y)
            for x in ABC.ranking
            for y in ABC.ranking
            if x != y
            and ABC.position(y) > ABC.position(x)
            and new.position(y) < new.position(x)
        }
        assert inverted_pairs(ABC, new) == expected

    def test_single_swap(self):
        old = PreferenceOrder(("a", "b"))
        assert inverted_pairs(old, PreferenceOrder(("b", "a"))) == {("a", "b")}

    def test_mismatched_universe(self):
        with pytest.raises(DomainError):
            inverted_pairs(ABC, PreferenceOrder(("a", "b")))

    def test_matches_definition_on_random_orders(self):
        rng = random.Random("inverted-pairs")
        for m in range(1, 8):
            parties = tuple(f"p{i}" for i in range(m))
            for _ in range(40):
                old = PreferenceOrder(tuple(rng.sample(parties, m)))
                new = PreferenceOrder(tuple(rng.sample(parties, m)))
                expected = {
                    (x, y)
                    for x in parties
                    for y in parties
                    if x != y
                    and old.position(y) > old.position(x)
                    and new.position(y) < new.position(x)
                }
                assert inverted_pairs(old, new) == expected

    def test_matches_definition_on_every_pair_of_orders(self):
        for m in range(1, 6):
            rankings = list(itertools.permutations(f"p{i}" for i in range(m)))
            ranks = {ranking: {p: i for i, p in enumerate(ranking)} for ranking in rankings}
            for old in rankings:
                above = [(x, y) for x, y in itertools.permutations(old, 2)
                         if ranks[old][x] < ranks[old][y]]
                for new in rankings:
                    expected = {(x, y) for x, y in above if ranks[new][y] < ranks[new][x]}
                    assert inverted_pairs(
                        PreferenceOrder(old), PreferenceOrder(new)) == expected, (old, new)

    def test_lift_inverts_exactly_the_parties_above(self):
        rng = random.Random("lift-31")
        order = PreferenceOrder(tuple(rng.sample([f"p{i}" for i in range(31)], 31)))
        for i, party in enumerate(order.ranking):
            assert inverted_pairs(order, lift_to_top(order, party)) == {
                (x, party) for x in order.ranking[:i]}


def admissible(model, coalition, old, new):
    return bribe_cost(model, 0, old, new, coalition) is not None


class TestAdmissible:
    def test_shift_lift_of_member(self):
        old = PreferenceOrder(("c3", "c1", "c2"))
        new = PreferenceOrder(("c1", "c3", "c2"))
        model = ShiftCost.multiplicative([1], 3)
        assert admissible(model, ("c1",), old, new)

    def test_no_movement(self):
        model = ShiftCost.multiplicative([1], 3)
        assert admissible(model, ("a",), ABC, ABC)

    def test_member_demoted_below_outsider(self):
        old = PreferenceOrder(("a", "b"))
        new = PreferenceOrder(("b", "a"))
        model = ShiftCost.multiplicative([1], 2)
        assert not admissible(model, ("a",), old, new)

    def test_members_may_trade_places(self):
        # one coalition member overtaking another is a permitted shift
        old = PreferenceOrder(("c1", "c2", "c3"))
        new = PreferenceOrder(("c2", "c1", "c3"))
        model = ShiftCost.multiplicative([1], 3)
        assert admissible(model, ("c1", "c2"), old, new)

    def test_everything_goes_without_shift(self):
        for model in (UnitCost(), DollarCost((1,)), SwapCost(({(x, y): 1 for x in "abc" for y in "abc" if x != y},))):
            assert admissible(model, ("a",), ABC, PreferenceOrder(("c", "b", "a")))


class TestBribeCost:
    def test_shift_single_step(self):
        inst = sixteen_voter_shift_cbp(3)
        old = inst.election.orders[6]
        assert old == PreferenceOrder(("c3", "c1", "c2"))
        new = PreferenceOrder(("c1", "c3", "c2"))
        assert bribe_cost(inst.cost_model, 6, old, new, inst.coalition) == 1

    def test_identity_is_free(self):
        models = [
            UnitCost(),
            DollarCost((3,)),
            SwapCost(({(x, y): 2 for x in "abc" for y in "abc" if x != y},)),
            ShiftCost.multiplicative([2], 3),
        ]
        for model in models:
            assert bribe_cost(model, 0, ABC, ABC, ("a",)) == 0

    def test_dollar_flat_price(self):
        model = DollarCost((2,))
        assert bribe_cost(model, 0, ABC, PreferenceOrder(("b", "a", "c")), ()) == 2

    def test_inadmissible_shift_is_none(self):
        model = ShiftCost.multiplicative([1], 3)
        new = PreferenceOrder(("b", "a", "c"))
        assert bribe_cost(model, 0, ABC, new, ("a",)) is None


class TestPlanCost:
    def test_three_ones_plus_two_twos(self):
        inst = three_party_dollar_cbp(7)
        election = inst.election
        lift_y = lambda i: lift_to_top(election.orders[i], "Y")
        replacements = {i: lift_y(i) for i in (0, 1, 2, 50, 51)}
        plan = BribePlan(replacements, 7)
        assert plan_cost(inst.cost_model, inst.coalition, election, plan) == 7

    def test_empty_plan(self):
        inst = three_party_dollar_cbp(7)
        assert plan_cost(inst.cost_model, inst.coalition, inst.election, BribePlan.empty()) == 0

    def test_three_single_shifts(self):
        inst = sixteen_voter_shift_cbp(3)
        election = inst.election
        replacements = {
            0: PreferenceOrder(("c2", "c1", "c3")),
            6: PreferenceOrder(("c1", "c3", "c2")),
            7: PreferenceOrder(("c1", "c3", "c2")),
        }
        plan = BribePlan(replacements, 3)
        assert plan_cost(inst.cost_model, inst.coalition, election, plan) == 3

    def test_inadmissible_replacement_poisons_plan(self):
        inst = sixteen_voter_shift_cbp(3)
        replacements = {0: PreferenceOrder(("c3", "c2", "c1"))}
        assert (
            plan_cost(inst.cost_model, inst.coalition, inst.election, BribePlan(replacements, 0))
            is None
        )


@st.composite
def order_pairs(draw):
    m = draw(st.integers(2, 5))
    parties = tuple(f"p{i}" for i in range(m))
    old = PreferenceOrder(tuple(draw(st.permutations(parties))))
    new = PreferenceOrder(tuple(draw(st.permutations(parties))))
    return old, new


@given(order_pairs())
def test_swap_cost_decomposes_over_inverted_pairs(pair):
    old, new = pair
    rng = random.Random(hash(new.ranking) & 0xFFFF)
    prices = {
        (x, y): rng.randint(0, 3)
        for x in old.ranking
        for y in old.ranking
        if x != y
    }
    model = SwapCost((prices,))
    expected = sum(prices[p] for p in inverted_pairs(old, new))
    assert bribe_cost(model, 0, old, new, ()) == expected


@given(order_pairs())
def test_unit_equals_dollar_at_price_one(pair):
    old, new = pair
    unit = bribe_cost(UnitCost(), 0, old, new, ())
    dollar = bribe_cost(DollarCost((1,)), 0, old, new, ())
    assert unit == dollar


def test_shift_orders_match_admissibility_filter():
    """The structural generator agrees with filtering all permutations."""
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(2, 4)
        parties = tuple(f"p{i}" for i in range(m))
        order = PreferenceOrder(tuple(rng.sample(parties, m)))
        coalition = tuple(rng.sample(parties, rng.randint(1, m)))
        model = ShiftCost.multiplicative([1] * 1, m)
        generated = dict(iter_orders(order, coalition, lambda x, y: 1))
        filtered = {}
        for perm in itertools.permutations(parties):
            candidate = PreferenceOrder(perm)
            if admissible(model, coalition, order, candidate):
                filtered[candidate] = len(inverted_pairs(order, candidate))
        assert generated == filtered


def test_orders_match_brute_force_within_the_cap():
    """Swap and shift orders within a cap: exactly the admissible ones, each
    once, each at its `bribe_cost`."""
    rng = random.Random(8)
    for _ in range(300):
        m = rng.randint(1, 5)
        parties = tuple(f"p{i}" for i in range(m))
        order = PreferenceOrder(tuple(rng.sample(parties, m)))
        pairs = [(x, y) for x in parties for y in parties if x != y]
        if rng.random() < 0.5:
            prices = {pair: rng.randint(0, 4) for pair in pairs}
            model, may_rise = SwapCost((prices,)), parties
            cap = rng.choice([math.inf, rng.randint(0, 4 * m)])
        else:
            # slope 1: the shift price is the number of inverted pairs
            prices = dict.fromkeys(pairs, 1)
            model = ShiftCost.multiplicative([1], m)
            may_rise = tuple(rng.sample(parties, rng.randint(0, m)))
            cap = rng.choice([math.inf, rng.randint(0, m * (m - 1) // 2)])
        generated = list(
            iter_orders(order, may_rise, lambda x, y: prices[x, y], cap)
        )
        expected = {}
        for perm in itertools.permutations(parties):
            candidate = PreferenceOrder(perm)
            cost = bribe_cost(model, 0, order, candidate, may_rise)
            if cost is not None and cost <= cap:
                expected[candidate] = cost
        assert len(generated) == len(expected)
        assert dict(generated) == expected


def test_count_orders_counts_what_iter_orders_yields():
    """Every riser set of one six-party order, the empty and the full one
    (6! = 720) included."""
    order = PreferenceOrder(("p3", "p0", "p5", "p1", "p4", "p2"))
    for size in range(7):
        for may_rise in itertools.combinations(order.ranking, size):
            yielded = sum(1 for _ in iter_orders(order, may_rise, lambda x, y: 0))
            assert count_orders(order, may_rise) == yielded, may_rise
    assert count_orders(order, order.ranking) == 720


def test_shift_cost_monotone_in_extra_lifts():
    """Lifting a coalition member one more step never gets cheaper."""
    rng = random.Random(6)
    for _ in range(40):
        m = rng.randint(2, 4)
        parties = tuple(f"p{i}" for i in range(m))
        order = PreferenceOrder(tuple(rng.sample(parties, m)))
        coalition = tuple(rng.sample(parties, rng.randint(1, m)))
        table = [0]
        for _ in range(m * (m - 1) // 2):
            table.append(table[-1] + rng.randint(0, 3))
        model = ShiftCost((tuple(table),))
        for candidate, inv in iter_orders(order, coalition, lambda x, y: 1):
            base = bribe_cost(model, 0, order, candidate, coalition)
            for member in coalition:
                pos = candidate.position(member)
                if pos == 1:
                    continue
                passed = candidate.ranking[pos - 2]
                if order.position(passed) > order.position(member):
                    # swapping back with a party the member already crossed
                    # undoes an inversion; only genuine extra lifts count
                    continue
                ranking = list(candidate.ranking)
                ranking[pos - 2], ranking[pos - 1] = ranking[pos - 1], ranking[pos - 2]
                lifted = PreferenceOrder(tuple(ranking))
                assert len(inverted_pairs(order, lifted)) == inv + 1
                higher = bribe_cost(model, 0, order, lifted, coalition)
                assert higher is not None and higher >= base


def test_shift_table_validation():
    with pytest.raises(DomainError):
        inst = sixteen_voter_shift_cbp(3)
        ShiftCost(((0, 2, 1, 1),) * 16).validate_for(inst.election)
    with pytest.raises(DomainError):
        inst = sixteen_voter_shift_cbp(3)
        ShiftCost(((1, 2, 3, 4),) * 16).validate_for(inst.election)
