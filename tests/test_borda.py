"""Zero-threshold Borda solvers: per-voter menus from the placement DP, the
voter-by-voter table, and the full decision procedure."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coalition_bribery.borda import (
    accumulate_voter_tables,
    metered_placements,
    price_menu,
    shift_menu,
    solve_borda_zero,
    step_of,
    _voter_menu,
)
from coalition_bribery.core import (
    Election, PreferenceOrder, ProblemInstance, ScoringRule, Variant,
    goals_met, grand_total,
)
from coalition_bribery.costs import (
    ShiftCost, SwapCost, UnitCost, inverted_pairs, iter_orders,
)
from coalition_bribery.dispatch import BORDA_DP, solve_capped
from coalition_bribery.generators import with_budget
from coalition_bribery.oracle import OracleRefusal, SearchBudget, oracle_solve
from coalition_bribery.reductions import (
    MinBisectionInstance, reduce_minbisection_to_borda_swap_cb,
)
from coalition_bribery.sample_instances import unanimous_four_party_borda_cb
from coalition_bribery.table import DENOMINATOR, Relaxation, front

from conftest import (
    assert_verifies, min_plus, random_problem, solve_at_budget, unmet_case,
)


def every_coalition(max_parties):
    """(order, coalition, leader, outsiders) for every order of up to
    `max_parties` parties and every coalition size, with the coalition's
    first member as the tracked leader and with none tracked."""
    for m in range(1, max_parties + 1):
        parties = tuple(f"p{i}" for i in range(m))
        for perm in itertools.permutations(parties):
            for size in range(1, m + 1):
                for leader in (parties[0], None):
                    yield (PreferenceOrder(perm), parties[:size], leader,
                           parties[size:])


def test_realize_pair_hits_every_attainable_cell():
    placements = metered_placements(SearchBudget())
    for order, coalition, leader, outsiders in every_coalition(5):
        costs, realize = price_menu(order, coalition, leader, outsiders, 1, placements)
        for step in costs:
            assert step_of(realize(step), coalition, leader) == step


def menu_steps(m, size, track_leader=True):
    """The (ka, k1) steps of a unit menu for a coalition of the first `size`
    of `m` parties, led by the first when `track_leader`."""
    parties = tuple(f"p{i}" for i in range(m))
    leader = parties[0] if track_leader else None
    costs, _ = price_menu(
        PreferenceOrder(parties), parties[:size], leader, parties[size:], 1,
        metered_placements(SearchBudget()),
    )
    return set(costs)


class TestAttainable:
    def test_three_party_singleton_rest(self):
        assert (3, 2) in menu_steps(3, 2)
        assert (4, 2) not in menu_steps(3, 2)
        assert menu_steps(3, 2, False) == {(ka, 0) for ka in (1, 2, 3)}

    def test_empty_rest(self):
        assert menu_steps(4, 1) == {(k1, k1) for k1 in range(4)}
        assert menu_steps(4, 1, False) == {(ka, 0) for ka in range(4)}

    def test_above_maximum(self):
        assert max(ka - k1 for ka, k1 in menu_steps(4, 3)) == 3 + 2
        assert max(ka for ka, _k1 in menu_steps(4, 3, False)) == 3 + 2 + 1

    def test_exhaustive_against_enumeration(self):
        placements = metered_placements(SearchBudget())
        reachable_of = {}  # the steps of every order, per coalition and leader
        for order, coalition, leader, outsiders in every_coalition(5):
            key = (len(order), coalition, leader)
            if key not in reachable_of:
                reachable_of[key] = {
                    step_of(PreferenceOrder(perm), coalition, leader)
                    for perm in itertools.permutations(order.ranking)
                }
            reachable = reachable_of[key]
            costs, _ = price_menu(order, coalition, leader, outsiders, 4, placements)
            assert set(costs) == reachable, (order, coalition, leader)
            current = step_of(order, coalition, leader)
            assert {step for step, c in costs.items() if c != 4} == {current}
            assert costs[current] == 0


class TestPriceMenu:
    def test_attainable_pair_costs_price(self):
        placements = metered_placements(SearchBudget())
        order = PreferenceOrder(("c3", "c2", "c1"))
        menu, _ = price_menu(order, ("c1", "c2"), "c1", ("c3",), 4, placements)
        assert menu[(3, 2)] == 4

    def test_current_pair_is_free(self):
        placements = metered_placements(SearchBudget())
        order = PreferenceOrder(("c3", "c2", "c1"))
        for leader in ("c1", None):
            menu, realize = price_menu(order, ("c1", "c2"), leader, ("c3",), 4, placements)
            assert menu[(1, 0)] == 0
            assert realize((1, 0)) == order

    def test_impossible_pair_absent(self):
        placements = metered_placements(SearchBudget())
        order = PreferenceOrder(("c3", "c2", "c1"))
        for leader in ("c1", None):
            menu, _ = price_menu(order, ("c1", "c2"), leader, ("c3",), 4, placements)
            assert (0, 0) not in menu


class TestShiftBounds:
    def test_lower_side_envelope(self):
        placements = metered_placements(SearchBudget())
        order = PreferenceOrder(("c2", "c3", "c1"))
        menu, realize = shift_menu(order, ("c1", "c2"), "c1", (0, 1, 2, 3), placements)
        # The leader climbs two ranks and c2 keeps the point of rank 2.
        assert menu[(3, 2)] == 2
        assert realize((3, 2)) == PreferenceOrder(("c1", "c2", "c3"))

    def test_no_room_above(self):
        placements = metered_placements(SearchBudget())
        order = PreferenceOrder(("c2", "c3", "c1"))
        menu, _ = shift_menu(order, ("c1", "c2"), "c1", (0, 1, 2, 3), placements)
        # With the leader on top no slot is left above it for c2, and c3
        # may not rise over c2.
        assert [step for step in menu if step[1] == 2] == [(3, 2)]

    def test_leader_sinking_pair_is_offered(self):
        placements = metered_placements(SearchBudget())
        order = PreferenceOrder(("c1", "c2", "c3"))
        menu, realize = shift_menu(order, ("c1", "c2"), "c1", (0, 5, 9, 9), placements)
        # c2 overtakes the leader: one inversion, and c3 stays last.
        assert menu[(3, 1)] == 5
        assert realize((3, 1)) == PreferenceOrder(("c2", "c1", "c3"))
        assert (2, 0) not in menu


class TestShiftMenu:
    def test_two_rank_lift(self):
        placements = metered_placements(SearchBudget())
        order = PreferenceOrder(("c2", "c3", "c1"))
        table = (0, 1, 2, 3)
        menu, realize = shift_menu(order, ("c1", "c2"), "c1", table, placements)
        assert menu[(3, 2)] == 2
        assert step_of(realize((3, 2)), ("c1", "c2"), "c1") == (3, 2)

    def test_current_pair_is_free(self):
        placements = metered_placements(SearchBudget())
        order = PreferenceOrder(("c2", "c3", "c1"))
        for leader in ("c1", None):
            menu, _ = shift_menu(order, ("c1", "c2"), leader, (0, 1, 2, 3), placements)
            assert menu[(2, 0)] == 0

    def test_exhaustive_against_admissible_orders(self):
        placements = metered_placements(SearchBudget())
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
                    admissible = dict(iter_orders(order, coalition, lambda x, y: 1))
                    for leader in (coalition[0], None):
                        brute = {}
                        for cand, inv in admissible.items():
                            key = step_of(cand, coalition, leader)
                            brute[key] = min(brute.get(key, 10**9), table[inv])
                        menu, realize = shift_menu(order, coalition, leader, table, placements)
                        assert menu == brute, (order, coalition, leader)
                        for key, cost in menu.items():
                            w = realize(key)
                            assert w in admissible
                            assert step_of(w, coalition, leader) == key
                            assert table[len(inverted_pairs(order, w))] == cost


def test_swap_menu_against_every_order():
    # Each entry is the least swap price over the orders realizing its step,
    # with the leader's points tracked or not; every step some order
    # realizes is there, and `realize` attains both.
    rng = random.Random(29)
    for m in range(1, 6):
        parties = tuple(f"p{i}" for i in range(m))
        for _ in range(4):
            order = PreferenceOrder(tuple(rng.sample(parties, m)))
            prices = {(x, y): rng.randint(0, 3) for x in parties for y in parties if x != y}
            model = SwapCost((prices,))
            for size in range(1, m + 1):
                coalition = tuple(rng.sample(parties, size))
                for leader in (coalition[0], None):
                    brute = {}
                    for perm in itertools.permutations(parties):
                        candidate = PreferenceOrder(perm)
                        step = step_of(candidate, coalition, leader)
                        cost = model.voter_cost(0, order, candidate, coalition)
                        brute[step] = min(brute.get(step, cost), cost)
                    menu, realize = metered_placements(SearchBudget())(
                        order, coalition, leader, order.ranking, lambda x, y: prices[x, y],
                    )
                    assert menu == brute, (order, coalition, leader)
                    for step, cost in menu.items():
                        witness = realize(step)
                        assert step_of(witness, coalition, leader) == step
                        assert model.voter_cost(0, order, witness, coalition) == cost


def test_swap_menus_are_refused_past_the_expansion_limit():
    # The 2-vertex bisection image has one 5-party swap voter and rho = 0,
    # so its states are (mask, ka).  Its menu charges one expansion per
    # (state, unplaced party) before each slot: 1*5 + 5*4 + 14*3 + 22*2 +
    # 17*1 = 128.  Every one of the 2**5 masks is reachable, so the menu
    # needs at least 2**4 * (2*5 - 5) = 80 and a limit below that is refused
    # before any slot is built; one above it is refused slot by slot, at the
    # first running total past it (5 + 20 + 42 + 44 = 111).
    image = reduce_minbisection_to_borda_swap_cb(MinBisectionInstance(2, frozenset(), 0))
    assert solve_capped(BORDA_DP, image, None, SearchBudget(max_expansions=128)) is not None
    for limit, required in ((75, 80), (100, 111)):
        with pytest.raises(OracleRefusal) as err:
            solve_capped(BORDA_DP, image, None, SearchBudget(max_expansions=limit))
        assert (err.value.required, err.value.limit) == (required, limit)


def test_a_refused_borda_menu_names_the_menus_not_the_exact_search():
    image = reduce_minbisection_to_borda_swap_cb(MinBisectionInstance(2, frozenset(), 0))
    for limit, required in ((75, 80), (100, 111)):
        with pytest.raises(OracleRefusal) as err:
            solve_capped(BORDA_DP, image, None, SearchBudget(max_expansions=limit))
        assert str(err.value) == (
            f"Borda menu placement needs more than {limit} expansions "
            f"(stopped at {required})"
        )


def _solves_at_exactly(instance, expansions):
    """Whether the Borda solve fits `expansions` and is refused one below."""
    assert solve_capped(BORDA_DP, instance, None, SearchBudget(expansions)) is not None
    with pytest.raises(OracleRefusal) as err:
        solve_capped(BORDA_DP, instance, None, SearchBudget(expansions - 1))
    assert (err.value.required, err.value.limit) == (expansions, expansions - 1)


def test_unit_menus_are_charged_to_the_search_budget():
    # All four voters share one menu, the DP on the canonical order
    # c3 > c4 > c1 > c2 in which only c1 and c2 may rise.  The instance is
    # CB (rho = 0), so its states are (mask, ka): 1*4 + 3*3 + 6*2 + 9*1 = 34
    # expansions.
    _solves_at_exactly(unanimous_four_party_borda_cb(1), 34)


def test_shift_menus_are_charged_to_the_search_budget():
    # Two voters per order, one DP per order, each 34 expansions as above.
    unit = unanimous_four_party_borda_cb(1)
    second = PreferenceOrder(("c3", "c4", "c1", "c2"))
    orders = (unit.election.orders[0],) * 2 + (second,) * 2
    shift = replace(
        unit, election=replace(unit.election, orders=orders),
        cost_model=ShiftCost(((0, 1, 3, 6, 10, 15, 21),) * 4),
    )
    _solves_at_exactly(shift, 68)


def test_cb_swap_menus_drop_the_leader_coordinate():
    # A CB swap voter at m = 12 with 6 coalition members: with rho = 0 the
    # goal never reads the leader's points, so the states are (mask, ka)
    # over all 2**12 masks.  Keyed by (mask, k_rest, k1) the same menu took
    # 694,624 expansions.
    rng = random.Random(12)
    parties = tuple(f"p{i}" for i in range(12))
    prices = {(x, y): rng.randint(0, 3) for x in parties for y in parties if x != y}
    order = PreferenceOrder(tuple(rng.sample(parties, 12)))
    instance = ProblemInstance(
        election=Election(parties, ("v1",), (order,)),
        rule=ScoringRule.BORDA, threshold=Fraction(0),
        coalition=tuple(rng.sample(parties, 6)), phi=Fraction(3, 4), rho=Fraction(0),
        budget=0, cost_model=SwapCost((prices,)),
    )
    _solves_at_exactly(instance, 208_896)


def _covered(layer, ka, k1, cost, track_leader):
    """Whether a cell of the layer is as good as (ka, k1) at `cost`."""
    return any(
        ka_cell == ka and (k1_cell >= k1 or not track_leader) and c <= cost
        for (ka_cell, k1_cell), c in layer.items()
    )


def _menus(inst, voters, track_leader):
    """The voters' step menus, with leader points tracked (rho > 0) or not."""
    if track_leader:
        inst = replace(inst, preferred=inst.coalition[0], rho=Fraction(1, 2))
    placements = metered_placements(SearchBudget())
    return [_voter_menu(inst, i, placements)[0] for i in voters]


def _accumulate(menus, budget, share=Fraction(0), total=0, ratio=Fraction(0)):
    """The voters' layers; by default under goals every cell meets, so only
    the budget prunes."""
    return accumulate_voter_tables(menus, budget, share, total, ratio)


class TestVoterTable:
    def test_single_voter_base_row(self):
        inst = unanimous_four_party_borda_cb(1)
        for track_leader in (False, True):
            menus = _menus(inst, [0], track_leader)
            layers, _ = _accumulate(menus, 10)
            assert set(layers[1].items()) <= set(menus[0].items())
            for (ka, k1), cost in menus[0].items():
                assert _covered(layers[1], ka, k1, cost, track_leader)

    def test_replicated_voters_bound(self):
        inst = unanimous_four_party_borda_cb(1)
        for track_leader in (False, True):
            menus = _menus(inst, [0, 1], track_leader)
            layers, _ = _accumulate(menus, 10)
            for (ka, k1), cost in menus[0].items():
                assert _covered(layers[2], 2 * ka, 2 * k1, 2 * cost, track_leader)

    def test_full_fixture_reaches_eight_points_for_one(self):
        inst = unanimous_four_party_borda_cb(1)
        layers, _ = _accumulate(_menus(inst, range(4), False), inst.budget)
        costs = [c for (ka, _k1), c in layers[4].items() if ka == 8]
        assert min(costs) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 8),
    st.sampled_from(["unit", "dollar", "swap", "shift"]),
)
def test_layers_stay_within_budget_and_front(seed, budget, kind):
    """Each pruned layer is the front of the unpruned table restricted to the
    cells whose Lagrangian bound is within the budget; a certified "no"
    builds no layer, and the unpruned table then meets no goal either."""
    inst = random_problem(random.Random(seed), ScoringRule.BORDA, False, kind,
                          False, max_voters=5, max_parties=5)
    election = inst.election
    total = grand_total(election.num_voters, election.num_parties, ScoringRule.BORDA)
    for track_leader in (False, True):
        gains = _menus(inst, range(election.num_voters), track_leader)
        ratio = Fraction(1, 2) if track_leader else Fraction(0)
        layers, _ = _accumulate(gains, budget, inst.phi, total, ratio)
        pruning = Relaxation(gains, inst.phi, total, ratio).prune(budget)
        reference = {(0, 0): 0}
        for steps in gains:
            reference = min_plus(reference, steps, budget)
        if pruning is None:
            assert layers == []
            goals = replace(inst, preferred=inst.coalition[0], rho=ratio)
            assert not any(goals_met(ka, k1, total, goals) for ka, k1 in reference)
            continue
        (wg, wl), limits = pruning
        reference = {(0, 0): 0}
        for steps, layer, limit in zip(gains, layers[1:], limits):
            reference = min_plus(reference, steps, budget)
            assert layer == {
                (ka, k1): cost for (ka, k1), cost in front(reference).items()
                if DENOMINATOR * cost - wg * ka - wl * k1 <= limit
            }
            assert all(cost <= budget for cost in layer.values())
            if not track_leader:
                # rho = 0: one cheapest cell per coalition-points value
                assert all(k1 == 0 for _ka, k1 in layer)


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
        assert plan is not None and len(plan.replacements) == 0


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


# (bribery, preferred party, m, optimum) at n = 160 and k = 2, out of the
# exact search's reach.  Each instance is `unmet_case`'s; each optimum was
# found once by the unpruned, uncapped table.
SCALE_CASES = [
    ("unit", True, 4, 82),
    ("dollar", True, 4, 197),
    ("shift", True, 4, 351),
    ("unit", False, 5, 114),
]


@pytest.mark.parametrize("kind, cbp, m, optimum", SCALE_CASES,
                         ids=[f"{c[0]}-{'cbp' if c[1] else 'cb'}-m{c[2]}" for c in SCALE_CASES])
def test_pruned_table_at_160_voters(kind, cbp, m, optimum):
    variant = Variant(ScoringRule.BORDA, False, kind, cbp)
    inst = unmet_case(variant, 160, m, 2)
    plan = solve_at_budget(BORDA_DP, with_budget(inst, optimum))
    assert plan is not None and plan.cost == optimum
    assert solve_at_budget(BORDA_DP, with_budget(inst, optimum - 1)) is None
    # The bound alone answers one below the optimum: no layer is built.
    stats = {}
    assert solve_borda_zero(inst, optimum - 1, stats) is None
    assert stats["table_cells"] == 0
