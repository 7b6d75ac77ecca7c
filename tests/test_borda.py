"""Zero-threshold Borda solvers: attainability, per-voter menus, the
voter-by-voter table, and the full decision procedure."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coalition_bribery.borda import (
    accumulate_voter_tables,
    attainable,
    leader_and_rest_scores,
    price_menu,
    realize_pair,
    shift_bounds,
    shift_menu,
    _VoterMenu,
)


def test_realize_pair_hits_every_attainable_cell():
    for m in range(2, 6):
        parties = tuple(f"p{i}" for i in range(m))
        leader = parties[0]
        for rest_size in range(m):
            rest = parties[1 : 1 + rest_size]
            outsiders = parties[1 + rest_size :]
            for k1 in range(m):
                for k_rest in range(rest_size * (m - 1) + 1):
                    if not attainable(k_rest, k1, m, rest_size):
                        continue
                    order = realize_pair(m, leader, rest, outsiders, k_rest, k1)
                    assert leader_and_rest_scores(order, leader, rest) == (
                        k_rest,
                        k1,
                    )
from coalition_bribery.core import PreferenceOrder, ProblemInstance, ScoringRule
from coalition_bribery.costs import UnitCost, inverted_pairs, iter_shift_orders
from coalition_bribery.dispatch import BORDA_DP
from coalition_bribery.generators import with_budget
from coalition_bribery.oracle import oracle_solve
from coalition_bribery.sample_instances import unanimous_four_party_borda_cb

from conftest import assert_verifies, random_problem, solve_at_budget


class TestAttainable:
    def test_three_party_singleton_rest(self):
        assert attainable(1, 2, m=3, rest_size=1)
        assert not attainable(2, 2, m=3, rest_size=1)

    def test_empty_rest(self):
        for k1 in range(4):
            assert attainable(0, k1, m=4, rest_size=0)

    def test_above_maximum(self):
        assert not attainable(2 * 3 + 1, 0, m=4, rest_size=2)

    def test_exhaustive_against_enumeration(self):
        for m in range(1, 6):
            parties = tuple(f"p{i}" for i in range(m))
            leader = parties[0]
            for rest_size in range(m):
                rest = parties[1 : 1 + rest_size]
                reachable = set()
                for perm in itertools.permutations(parties):
                    reachable.add(
                        leader_and_rest_scores(PreferenceOrder(perm), leader, rest)
                    )
                for k1 in range(m):
                    for k_rest in range(rest_size * (m - 1) + 1):
                        assert attainable(k_rest, k1, m, rest_size) == (
                            (k_rest, k1) in reachable
                        ), (m, rest_size, k_rest, k1)


class TestPriceMenu:
    def test_attainable_pair_costs_price(self):
        order = PreferenceOrder(("c3", "c2", "c1"))
        menu = price_menu(order, "c1", ("c2",), ("c3",), price=4)
        assert menu[(1, 2)] == 4

    def test_current_pair_is_free(self):
        order = PreferenceOrder(("c3", "c2", "c1"))
        menu = price_menu(order, "c1", ("c2",), ("c3",), price=4)
        assert menu[(1, 0)] == 0

    def test_impossible_pair_absent(self):
        order = PreferenceOrder(("c3", "c2", "c1"))
        menu = price_menu(order, "c1", ("c2",), ("c3",), price=4)
        assert (0, 0) not in menu


class TestShiftBounds:
    def test_lower_side_envelope(self):
        order = PreferenceOrder(("c2", "c3", "c1"))
        bounds = shift_bounds(order, "c1", ("c2",), k1=2, l_down=1, l_up=0)
        assert bounds is not None
        _geo, base_cost, down_min, down_room, up_min, up_room = bounds
        assert (down_min, down_room) == (1, 0)
        assert (up_min, up_room) == (0, 0)
        assert base_cost == 2  # the leader climbs two ranks

    def test_no_room_above(self):
        order = PreferenceOrder(("c2", "c3", "c1"))
        assert shift_bounds(order, "c1", ("c2",), k1=2, l_down=0, l_up=1) is None

    def test_leader_cannot_sink(self):
        order = PreferenceOrder(("c1", "c2", "c3"))
        assert shift_bounds(order, "c1", ("c2",), k1=0, l_down=1, l_up=0) is None


class TestShiftMenu:
    def test_two_rank_lift(self):
        order = PreferenceOrder(("c2", "c3", "c1"))
        table = (0, 1, 2, 3)
        menu, witness = shift_menu(order, "c1", ("c2",), table)
        assert menu[(1, 2)] == 2
        assert leader_and_rest_scores(witness[(1, 2)], "c1", ("c2",)) == (1, 2)

    def test_current_pair_is_free(self):
        order = PreferenceOrder(("c2", "c3", "c1"))
        menu, _ = shift_menu(order, "c1", ("c2",), (0, 1, 2, 3))
        assert menu[(2, 0)] == 0

    def test_exhaustive_against_admissible_orders(self):
        rng = random.Random(23)
        for m in (2, 3, 4):
            parties = tuple(f"p{i}" for i in range(m))
            table = [0]
            for _ in range(m * (m - 1) // 2):
                table.append(table[-1] + rng.randint(0, 3))
            table = tuple(table)
            for perm in itertools.permutations(parties):
                order = PreferenceOrder(perm)
                for size in range(1, m + 1):
                    coalition = parties[:size]
                    leader, rest = coalition[0], coalition[1:]
                    brute = {}
                    for cand, inv in iter_shift_orders(order, coalition):
                        key = leader_and_rest_scores(cand, leader, rest)
                        brute[key] = min(brute.get(key, 10**9), table[inv])
                    menu, witness = shift_menu(order, leader, rest, table)
                    cur = leader_and_rest_scores(order, leader, rest)
                    for key, cost in menu.items():
                        assert brute[key] == cost, (order, coalition, key)
                        w = witness[key]
                        assert leader_and_rest_scores(w, leader, rest) == key
                        assert table[len(inverted_pairs(order, w))] == cost
                    # skipped pairs all demand the leader to sink, and are
                    # dominated: same or more coalition points, same or more
                    # leader points, at most the same cost
                    for (k_rest, k1), cost in brute.items():
                        if (k_rest, k1) in menu:
                            continue
                        assert k1 < cur[1]
                        assert any(
                            k1_kept >= k1
                            and (k_rest_kept + k1_kept) >= (k_rest + k1)
                            and (k1_kept - k1) >= (k_rest_kept + k1_kept) - (k_rest + k1)
                            and kept_cost <= cost
                            for (k_rest_kept, k1_kept), kept_cost in menu.items()
                        ), (order, coalition, (k_rest, k1))


def _covered(layer, ka, k1, cost, track_leader):
    """Whether a cell of the layer is as good as (ka, k1) at `cost`."""
    return any(
        ka_cell == ka and (k1_cell >= k1 or not track_leader) and c <= cost
        for (ka_cell, k1_cell), c in layer.items()
    )


class TestVoterTable:
    def test_single_voter_base_row(self):
        inst = unanimous_four_party_borda_cb(1)
        menus = [_VoterMenu(inst, 0)]
        menu_cells = {
            (k_rest + k1, k1): cost for (k_rest, k1), cost in menus[0].costs.items()
        }
        for track_leader in (False, True):
            layers, _ = accumulate_voter_tables(menus, 10, track_leader)
            assert set(layers[1].items()) <= set(menu_cells.items())
            for (ka, k1), cost in menu_cells.items():
                assert _covered(layers[1], ka, k1, cost, track_leader)

    def test_replicated_voters_bound(self):
        inst = unanimous_four_party_borda_cb(1)
        menus = [_VoterMenu(inst, i) for i in (0, 1)]
        for track_leader in (False, True):
            layers, _ = accumulate_voter_tables(menus, 10, track_leader)
            for (k_rest, k1), cost in menus[0].costs.items():
                assert _covered(
                    layers[2], 2 * (k_rest + k1), 2 * k1, 2 * cost, track_leader
                )

    def test_full_fixture_reaches_eight_points_for_one(self):
        inst = unanimous_four_party_borda_cb(1)
        menus = [_VoterMenu(inst, i) for i in range(4)]
        layers, _ = accumulate_voter_tables(menus, inst.budget, False)
        costs = [c for (ka, _k1), c in layers[4].items() if ka == 8]
        assert min(costs) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 8),
    st.sampled_from(["unit", "dollar", "shift"]),
)
def test_layers_stay_within_budget_and_front(seed, budget, kind):
    inst = random_problem(random.Random(seed), ScoringRule.BORDA, False, kind,
                          False, max_voters=5, max_parties=5)
    menus = [_VoterMenu(inst, i) for i in range(inst.election.num_voters)]
    for track_leader in (False, True):
        layers, _ = accumulate_voter_tables(menus, budget, track_leader)
        for layer in layers:
            assert all(cost <= budget for cost in layer.values())
            kas = [ka for ka, _k1 in layer]
            if not track_leader:
                # rho = 0: one cheapest cell per coalition-points value
                assert len(kas) == len(set(kas))
                continue
            for (ka, k1), cost in layer.items():
                assert not any(
                    other != (ka, k1) and other[0] == ka and other[1] >= k1
                    and c <= cost
                    for other, c in layer.items()
                )


class TestSolver:
    def test_budget_one_feasible(self):
        inst = unanimous_four_party_borda_cb(1)
        plan = solve_at_budget(BORDA_DP, inst)
        assert plan is not None
        assert_verifies(inst, plan)

    def test_budget_zero_infeasible(self):
        assert solve_at_budget(BORDA_DP, unanimous_four_party_borda_cb(0)) is None

    def test_zero_targets_feasible_for_free(self):
        base = unanimous_four_party_borda_cb(0)
        inst = ProblemInstance(
            election=base.election, rule=base.rule, threshold=base.threshold,
            coalition=base.coalition, phi=Fraction(0), rho=Fraction(0),
            budget=0, cost_model=UnitCost(),
        )
        plan = solve_at_budget(BORDA_DP, inst)
        assert plan is not None and len(plan) == 0


def test_cb_equals_cbp_with_zero_ratio():
    rng = random.Random("borda-cb")
    for _ in range(30):
        inst = random_problem(rng, ScoringRule.BORDA, False, "unit", False,
                              max_voters=3, max_parties=4)
        as_cbp = ProblemInstance(
            election=inst.election, rule=inst.rule, threshold=inst.threshold,
            coalition=inst.coalition, preferred=inst.coalition[0],
            phi=inst.phi, rho=Fraction(0), budget=inst.budget,
            cost_model=inst.cost_model,
        )
        for budget in range(0, inst.election.num_voters + 1):
            assert (
                (solve_at_budget(BORDA_DP, with_budget(inst, budget)) is None)
                == (solve_at_budget(BORDA_DP, with_budget(as_cbp, budget)) is None)
            )


@pytest.mark.parametrize("kind", ["unit", "dollar", "shift"])
@pytest.mark.parametrize("cbp", [False, True])
def test_oracle_equivalence_small(kind, cbp):
    rng = random.Random(f"borda-oracle:{kind}:{cbp}")
    for _ in range(30):
        inst = random_problem(
            rng, ScoringRule.BORDA, False, kind, cbp, max_voters=3, max_parties=4
        )
        optimum, _ = oracle_solve(inst)
        upper = sum(
            inst.cost_model.max_voter_cost(i, inst.election.num_parties)
            for i in range(inst.election.num_voters)
        )
        feasible = [
            b for b in range(upper + 1)
            if solve_at_budget(BORDA_DP, with_budget(inst, b)) is not None
        ]
        solver_min = feasible[0] if feasible else None
        assert solver_min == optimum
        if feasible:
            plan = solve_at_budget(BORDA_DP, with_budget(inst, solver_min))
            assert_verifies(with_budget(inst, solver_min), plan)
