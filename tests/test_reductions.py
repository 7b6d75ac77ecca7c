"""Hardness-construction generators and their witness mappings."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from coalition_bribery.core import (
    DomainError,
    PreferenceOrder,
    ScoringRule,
    check_goals,
    grand_total,
    seat_cut,
    tally,
)
from coalition_bribery.costs import ShiftCost, apply_plan, bribe_cost, iter_orders
from coalition_bribery.dispatch import BORDA_DP, ORACLE, dispatch
from coalition_bribery.oracle import oracle_solve
from coalition_bribery.reductions import (
    ExactCover34Instance,
    MinBisectionInstance,
    reduce_minbisection_to_borda_swap_cb,
    reduce_x3c_to_borda_unit_cb,
    reduce_x3c_to_plurality_shift_cb,
    shift_to_swap,
)
from coalition_bribery.sample_instances import sixteen_voter_shift_cbp

from conftest import (
    assert_verifies,
    exact_covers,
    has_bisection,
    map_cover_to_bribe,
    random_problem,
    solve_at_budget,
)

COVERED4 = ExactCover34Instance(4, ((1, 2, 3, 4),) * 3)
COVERLESS8 = ExactCover34Instance(
    8,
    (
        (1, 2, 3, 4),
        (1, 2, 5, 6),
        (1, 3, 5, 7),
        (2, 4, 7, 8),
        (3, 5, 6, 8),
        (4, 6, 7, 8),
    ),
)


def activity_bar(inst):
    """Exact point count a party needs to stay active."""
    election = inst.election
    return inst.threshold * grand_total(
        election.num_voters, election.num_parties, inst.rule
    )


def random_x3c8(rng):
    """A random X3C source on a universe of 8: six 4-sets, each element in
    exactly three, drawn by shuffling three copies of each element into
    blocks of four until no block repeats an element."""
    slots = [z for z in range(1, 9) for _ in range(3)]
    while True:
        rng.shuffle(slots)
        subsets = tuple(tuple(sorted(slots[i:i + 4])) for i in range(0, 24, 4))
        if all(len(set(subset)) == 4 for subset in subsets):
            return ExactCover34Instance(8, subsets)


def capped_optimum(instance):
    """Cost of the routed solver's cheapest plan within the budget, or None."""
    plan = solve_at_budget(dispatch(instance), instance)
    return None if plan is None else plan.cost


class TestExactCoverInstances:
    def test_validation(self):
        with pytest.raises(DomainError):
            ExactCover34Instance(6, ((1, 2, 3, 4),) * 4)
        with pytest.raises(DomainError):
            ExactCover34Instance(4, ((1, 2, 3, 4),) * 2)
        with pytest.raises(DomainError):
            ExactCover34Instance(4, ((1, 2, 3, 3),) * 3)

    def test_cover_enumeration(self):
        assert list(exact_covers(COVERED4)) == [(0,), (1,), (2,)]
        assert list(exact_covers(COVERLESS8)) == []


class TestShiftReduction:
    def test_shape(self):
        inst = reduce_x3c_to_plurality_shift_cb(COVERED4)
        n = 4
        assert inst.election.num_parties == len(COVERED4.subsets) + 3 * n + 1
        assert inst.election.num_voters == 2 * n
        assert inst.threshold == Fraction(4, 2 * n)
        assert inst.budget == 3 * n
        assert inst.phi == Fraction(1, 2)
        assert inst.preferred is None
        # with two voters per element, four votes are needed to stay seated
        assert seat_cut(inst.election.num_voters, inst.threshold) == 4

    def test_every_voter_tops_the_filler(self):
        inst = reduce_x3c_to_plurality_shift_cb(COVERED4)
        assert all(o.top() == "pad0" for o in inst.election.orders)

    def test_locked_voters_cannot_afford_the_coalition(self):
        inst = reduce_x3c_to_plurality_shift_cb(COVERED4)
        model = inst.cost_model
        for i in range(4, 8):
            order = inst.election.orders[i]
            for party in inst.coalition:
                lifted = PreferenceOrder(
                    (party,) + tuple(p for p in order.ranking if p != party)
                )
                cost = bribe_cost(model, i, order, lifted, inst.coalition)
                assert cost is not None and cost > inst.budget

    def test_cover_maps_to_verifying_plan(self):
        inst = reduce_x3c_to_plurality_shift_cb(COVERED4)
        plan = map_cover_to_bribe((0,), inst, "plurality-shift", COVERED4)
        assert plan.cost <= inst.budget
        assert check_goals(apply_plan(inst.election, plan), inst)

    def test_feasibility_tracks_cover_existence(self):
        covered = reduce_x3c_to_plurality_shift_cb(COVERED4)
        assert solve_at_budget(ORACLE, covered) is not None
        coverless = reduce_x3c_to_plurality_shift_cb(COVERLESS8)
        assert solve_at_budget(ORACLE, coverless) is None

    def test_feasibility_tracks_cover_existence_on_random_sources(self):
        rng = random.Random("x3c-plurality-shift")
        coverable = 0
        for _ in range(20):
            x = random_x3c8(rng)
            has_cover = next(exact_covers(x), None) is not None
            image = reduce_x3c_to_plurality_shift_cb(x)
            assert (solve_at_budget(ORACLE, image) is not None) == has_cover, x
            coverable += has_cover
        assert 0 < coverable < 20


class TestBordaUnitReduction:
    def test_shape_and_tallies(self):
        inst = reduce_x3c_to_borda_unit_cb(COVERED4)
        n, m = 4, 3
        assert inst.election.num_parties == m * n + 1 + n
        assert inst.election.num_voters == 2 * m
        assert inst.budget == n // 4
        assert inst.phi == Fraction(1)
        scores = tally(inst.election.orders, inst.election.parties, ScoringRule.BORDA)
        coalition_expected = m * m * n + 2 * m * n - 4 * m
        element_expected = 3 * (m * n + n) + (m - 3) * (n - 1)
        for party in inst.coalition:
            assert scores[party] == coalition_expected
        for z in range(1, n + 1):
            assert scores[f"u{z}"] == element_expected

    def test_activity_bar_is_the_point_target(self):
        inst = reduce_x3c_to_borda_unit_cb(COVERED4)
        n, m = 4, 3
        assert activity_bar(inst) == n * n + 2 * m * n + 2

    def test_cover_bribe_shaves_exactly_the_block_bonus(self):
        inst = reduce_x3c_to_borda_unit_cb(COVERED4)
        n, m = 4, 3
        before = tally(inst.election.orders, inst.election.parties, ScoringRule.BORDA)
        plan = map_cover_to_bribe((0,), inst, "borda-unit", COVERED4)
        after = tally(
            apply_plan(inst.election, plan), inst.election.parties, ScoringRule.BORDA
        )
        for z in range(1, n + 1):
            assert before[f"u{z}"] - after[f"u{z}"] == m * n + 1
            assert after[f"u{z}"] < activity_bar(inst)
        assert plan.cost <= inst.budget
        assert check_goals(apply_plan(inst.election, plan), inst)

    def test_empty_cover_fails_verification(self):
        inst = reduce_x3c_to_borda_unit_cb(COVERED4)
        plan = map_cover_to_bribe((), inst, "borda-unit", COVERED4)
        assert not check_goals(apply_plan(inst.election, plan), inst)


class TestBisectionReduction:
    def test_structure(self):
        x = MinBisectionInstance(2, frozenset(), 0)
        inst = reduce_minbisection_to_borda_swap_cb(x)
        half = 1
        assert inst.election.num_parties == 4 * half + 1
        assert inst.election.num_voters == 1
        assert inst.budget == half * (0 + half) ** 2 + half * 0 * half + 0
        assert inst.phi == Fraction(4 * half, 4 * half + 1)
        # pairing a copy with its own twin is priced out
        prices = inst.cost_model.pair_prices[0]
        assert prices[("a1", "b1")] == inst.budget + 1
        coalition_points = sum(
            tally(inst.election.orders, inst.election.parties, ScoringRule.BORDA)[p]
            for p in inst.coalition
        )
        assert coalition_points == (4 * half) * (4 * half - 1) // 2

    def test_feasibility_tracks_bisection_existence(self):
        yes = MinBisectionInstance(2, frozenset(), 0)
        assert has_bisection(yes)
        assert solve_at_budget(ORACLE, reduce_minbisection_to_borda_swap_cb(yes)) is not None
        no = MinBisectionInstance(2, frozenset({(1, 2)}), 0)
        assert not has_bisection(no)
        assert solve_at_budget(ORACLE, reduce_minbisection_to_borda_swap_cb(no)) is None

    def test_four_vertex_cases(self):
        # a path graph splits 2|2 with one crossing edge
        path = MinBisectionInstance(4, frozenset({(1, 2), (2, 3), (3, 4)}), 1)
        assert has_bisection(path)
        image = reduce_minbisection_to_borda_swap_cb(path)
        assert solve_at_budget(ORACLE, image) is not None
        strict = MinBisectionInstance(4, frozenset({(1, 2), (2, 3), (3, 4)}), 0)
        assert not has_bisection(strict)
        image = reduce_minbisection_to_borda_swap_cb(strict)
        assert solve_at_budget(ORACLE, image) is None

    @pytest.mark.parametrize("edges, bound", [
        ({(1, 2), (2, 3), (3, 4)}, 1),
        ({(1, 2), (2, 3), (3, 4)}, 0),
        ({(1, 2), (3, 4)}, 0),
        ({(1, 2), (2, 3), (3, 4), (4, 1)}, 1),
        ({(1, 2), (1, 3), (1, 4)}, 2),
        ({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}, 3),
    ])
    def test_four_vertex_images_through_dispatch(self, edges, bound):
        # The cases above and the complete graph, routed: the Borda table,
        # with one swap menu for the image's one voter, answers as the
        # bisection does.
        x = MinBisectionInstance(4, frozenset(edges), bound)
        image = reduce_minbisection_to_borda_swap_cb(x)
        assert dispatch(image) == BORDA_DP
        plan = solve_at_budget(BORDA_DP, image)
        assert (plan is not None) == has_bisection(x)
        if plan is not None:
            assert_verifies(image, plan)

    @pytest.mark.parametrize("edges, bound, expected", [
        ({(1, 2), (3, 4)}, 0, True),  # two disjoint edges split cleanly
        ({(1, 2), (2, 3), (3, 4), (4, 1)}, 1, False),  # a 4-cycle crosses twice
        ({(1, 2), (1, 3), (1, 4)}, 2, True),  # a star's best split crosses twice
    ])
    def test_feasibility_tracks_bisection_on_more_graphs(self, edges, bound, expected):
        x = MinBisectionInstance(4, frozenset(edges), bound)
        assert has_bisection(x) == expected
        image = reduce_minbisection_to_borda_swap_cb(x)
        assert (solve_at_budget(ORACLE, image) is not None) == expected


class TestShiftToSwap:
    def test_price_structure(self):
        inst = sixteen_voter_shift_cbp(3, multiplicative=True)
        image = shift_to_swap(inst)
        prices = image.cost_model.pair_prices[0]
        assert prices[("c3", "c1")] == 1
        assert prices[("c1", "c3")] == 4  # budget + 1 blocks outsider rises

    def test_non_multiplicative_is_rejected(self):
        with pytest.raises(DomainError):
            shift_to_swap(sixteen_voter_shift_cbp(3))

    def test_admissible_plans_keep_their_cost(self):
        inst = sixteen_voter_shift_cbp(3, multiplicative=True)
        image = shift_to_swap(inst)
        for voter in range(inst.election.num_voters):
            order = inst.election.orders[voter]
            for candidate, _ in iter_orders(order, inst.coalition, lambda x, y: 1):
                shift_price = bribe_cost(
                    inst.cost_model, voter, order, candidate, inst.coalition
                )
                swap_price = bribe_cost(
                    image.cost_model, voter, order, candidate, inst.coalition
                )
                assert shift_price == swap_price

    def test_affordable_swaps_demote_no_member(self):
        inst = sixteen_voter_shift_cbp(3, multiplicative=True)
        image = shift_to_swap(inst)
        order = inst.election.orders[0]
        # demoting the leader below the outsider costs more than the budget
        demoted = PreferenceOrder(("c2", "c3", "c1"))
        cost = bribe_cost(image.cost_model, 0, order, demoted, inst.coalition)
        assert cost > image.budget

    def test_identical_optimum_on_the_multiplicative_fixture(self):
        inst = sixteen_voter_shift_cbp(3, multiplicative=True)
        image = shift_to_swap(inst)
        assert oracle_solve(inst)[0] == oracle_solve(image)[0] == 3

    def test_capped_optimum_matches_on_random_instances(self):
        # Each (rule, threshold, goal shape) cell gets 25 multiplicative
        # shift instances, goals unmet at zero cost, at a random budget;
        # within it, the source and the image have the same cheapest cost.
        rng = random.Random("shift-to-swap")
        feasible = 0
        for rule in ScoringRule:
            for thresholded in (False, True):
                for cbp in (False, True):
                    for _ in range(25):
                        inst = random_problem(rng, rule, thresholded, "unit", cbp)
                        while check_goals(inst.election.orders, inst):
                            inst = random_problem(rng, rule, thresholded, "unit", cbp)
                        election = inst.election
                        model = ShiftCost.multiplicative(
                            [rng.randint(0, 3) for _ in election.voters],
                            election.num_parties,
                        )
                        inst = replace(inst, cost_model=model, budget=rng.randint(0, 8))
                        optimum = capped_optimum(inst)
                        assert capped_optimum(shift_to_swap(inst)) == optimum, inst
                        feasible += optimum is not None
        assert 0 < feasible < 200
