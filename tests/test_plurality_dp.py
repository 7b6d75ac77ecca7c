"""Layered DP for threshold plurality under unit/dollar bribery."""

import random
from fractions import Fraction
from math import inf

import pytest

from coalition_bribery.core import (
    ProblemInstance,
    ScoringRule,
    grand_total,
    seat_fractions_from_scores,
    tally,
)
from coalition_bribery.costs import DollarCost, UnitCost, apply_plan, lift_to_top
from coalition_bribery.dispatch import CROSSVAL_VARIANTS, PLURALITY_DP, ROUTES
from coalition_bribery.generators import random_instance, with_budget
from coalition_bribery.oracle import oracle_solve
from coalition_bribery.plurality_dp import _Table, solve_plurality_t_dollar
from coalition_bribery.sample_instances import (
    three_party_dollar_cb,
    three_party_dollar_cbp,
    three_party_unit_cb,
)

from conftest import (
    assert_verifies,
    make_election,
    random_problem,
    solve_at_budget,
    unanimous_four_party_plurality_cb,
)


def small_instance(prices, threshold, coalition=("a", "b"), preferred=None,
                   phi=Fraction(1, 2), rho=Fraction(0)):
    """One party per price bucket; every voter tops their own bucket party."""
    parties = tuple(sorted({p for p, _ in prices})) if prices else ("a", "b")
    rankings = []
    voter_prices = []
    for party, price in prices:
        rankings.append((party,) + tuple(p for p in parties if p != party))
        voter_prices.append(price)
    election = make_election(parties, rankings)
    return ProblemInstance(
        election=election,
        rule=ScoringRule.PLURALITY,
        threshold=threshold,
        coalition=coalition,
        preferred=preferred,
        phi=phi,
        rho=rho,
        budget=0,
        cost_model=DollarCost(tuple(voter_prices)),
    )


def _table(instance, budget=inf):
    """The signature table of an instance, uncapped unless a budget is given."""
    return _Table(instance, budget)


def _signatures(instance, budget=inf):
    """The table's final cells, unpacked to (g, a_out, a_rest) signatures."""
    table = _table(instance, budget)
    return {table.unpack(key): cost for key, cost in table.cells.items()}


class TestMincost:
    def test_two_smallest(self):
        inst = small_instance(
            [("b", 3), ("b", 1), ("b", 2), ("a", 1)], Fraction(0), ("a",)
        )
        tables = _table(inst)
        assert tables.mincost("b", 2) == 3

    def test_not_enough_supporters(self):
        # No signature frees more votes than the non-leader parties hold.
        inst = small_instance([("b", 3), ("b", 1), ("b", 2), ("a", 1)], Fraction(0), ("a",))
        cells = _signatures(inst)
        assert max(g for g, _a_out, _a_rest in cells) == 3
        assert cells[(3, 0, 0)] == 6

    def test_dollar_fixture_prices(self):
        inst = three_party_dollar_cb(5)
        tables = _table(inst)
        assert tables.mincost("Z", 2) == 4


class TestSingleTables:
    """One party's cells; "f" names an outsider, "h" a coalition-rest party."""

    def _tables(self):
        # 3 b-voters at unit price, activity needs 2 votes (t = 2/4, n = 4)
        prices = [("b", 1), ("b", 1), ("b", 1), ("a", 1)]
        inst = small_instance(prices, Fraction(2, 4), coalition=("a",))
        return _table(inst)

    def test_f_buy_one_keeps_party_active(self):
        tables = self._tables()
        assert tables.single("b")[(1, 2, 0)] == 1

    def test_f_empty_bribe(self):
        tables = self._tables()
        assert tables.single("b")[(0, 3, 0)] == 0

    def test_f_below_threshold_forces_zero(self):
        tables = self._tables()
        single = tables.single("b")
        assert (2, 1, 0) not in single
        assert single[(2, 0, 0)] == 2

    def test_h_added_vote_activates(self):
        # single b-supporter, threshold count 2
        prices = [("b", 5), ("a", 1), ("a", 1), ("a", 1)]
        inst = small_instance(prices, Fraction(2, 4), coalition=("a", "b"), preferred="a")
        tables = _table(inst)
        single = tables.single("b")
        assert single[(-1, 0, 2)] == 0  # one vote added, none bought
        assert single[(0, 0, 0)] == 0
        assert single[(1, 0, 0)] == 5


class TestGValue:
    """Cells unpacked to g (the leader's net vote gain) and the active
    outsider and coalition-rest vote totals."""

    def test_empty_requirements(self):
        inst = three_party_dollar_cbp(7)
        assert _signatures(inst)[(0, 50, 0)] == 0

    def test_freeing_five_outsider_votes(self):
        inst = three_party_dollar_cbp(7)
        # buy five Z-supporters at $2 each; their five votes activate Y
        assert _signatures(inst)[(0, 45, 20)] == 10

    def test_more_active_votes_than_supporters(self):
        inst = three_party_dollar_cbp(7)
        assert (0, 55, 0) not in _signatures(inst)

    def test_budget_caps_the_cells(self):
        inst = three_party_dollar_cbp(7)
        cells = _signatures(inst, budget=7)
        assert (0, 45, 20) not in cells
        assert all(cost <= 7 for cost in cells.values())


def seats_after(inst, plan):
    election = inst.election
    scores = tally(apply_plan(election, plan), election.parties, inst.rule)
    total = grand_total(election.num_voters, election.num_parties, inst.rule)
    return seat_fractions_from_scores(scores, total, inst.threshold)


class TestWorkedExamples:
    def test_unit_budget_five(self):
        plan = solve_at_budget(PLURALITY_DP, three_party_unit_cb(5))
        assert plan is not None
        assert_verifies(three_party_unit_cb(5), plan)
        inst = three_party_unit_cb(5)
        seats = seats_after(inst, plan)
        assert seats["X"] + seats["Y"] == Fraction(55, 100)

    def test_unit_budget_four_fails(self):
        assert solve_at_budget(PLURALITY_DP, three_party_unit_cb(4)) is None

    def test_dollar_witness_buys_own_supporters(self):
        inst = three_party_dollar_cb(5)
        plan = solve_at_budget(PLURALITY_DP, inst)
        assert plan is not None and plan.cost == 5
        bought = set(plan.replacements)
        assert len(bought) == 5
        assert all(inst.election.orders[i].top() == "X" for i in bought)
        seats = seats_after(inst, plan)
        assert seats["X"] + seats["Y"] == Fraction(1, 2)

    def test_cbp_budget_seven(self):
        inst = three_party_dollar_cbp(7)
        plan = solve_at_budget(PLURALITY_DP, inst)
        assert plan is not None and plan.cost == 7
        assert_verifies(inst, plan)
        counts = tally(
            apply_plan(inst.election, plan), inst.election.parties, inst.rule
        )
        assert counts == {"X": 32, "Y": 20, "Z": 48}

    def test_cbp_budget_six_fails(self):
        assert solve_at_budget(PLURALITY_DP, three_party_dollar_cbp(6)) is None

    def test_satisfied_instance_needs_no_bribe(self):
        inst = unanimous_four_party_plurality_cb(0)
        relaxed = ProblemInstance(
            election=inst.election, rule=inst.rule, threshold=inst.threshold,
            coalition=("c4",), phi=Fraction(1, 2), rho=Fraction(0),
            budget=0, cost_model=UnitCost(),
        )
        plan = solve_at_budget(PLURALITY_DP, relaxed)
        assert plan is not None and len(plan.replacements) == 0


def test_zero_threshold_special_case():
    plan = solve_at_budget(PLURALITY_DP, unanimous_four_party_plurality_cb(1))
    assert plan is not None and plan.cost == 1


def test_price_increase_never_shrinks_f():
    rng = random.Random(99)
    for _ in range(25):
        inst = random_problem(rng, ScoringRule.PLURALITY, True, "dollar", False)
        low = _table(inst)
        model = inst.cost_model
        bumped_prices = tuple(p + rng.randint(0, 2) for p in model.prices)
        bumped = ProblemInstance(
            election=inst.election, rule=inst.rule, threshold=inst.threshold,
            coalition=inst.coalition, phi=inst.phi, rho=inst.rho,
            budget=inst.budget, cost_model=DollarCost(bumped_prices),
        )
        high = _table(bumped)
        # Every dearer cell is matched by a cheaper one of the same
        # (g, a_rest) group with no more outsider votes.
        for (group, level), cost in high.cells.items():
            assert any(
                key[0] == group and key[1] >= level and low_cost <= cost
                for key, low_cost in low.cells.items()
            )


def test_cb_equals_cbp_with_zero_ratio(rng):
    for _ in range(40):
        inst = random_problem(rng, ScoringRule.PLURALITY, True, "unit", False)
        as_cbp = ProblemInstance(
            election=inst.election, rule=inst.rule, threshold=inst.threshold,
            coalition=inst.coalition, preferred=inst.coalition[0],
            phi=inst.phi, rho=Fraction(0), budget=inst.budget,
            cost_model=inst.cost_model,
        )
        for budget in range(0, inst.election.num_voters + 1):
            a = solve_at_budget(PLURALITY_DP, with_budget(inst, budget)) is not None
            b = solve_at_budget(PLURALITY_DP, with_budget(as_cbp, budget)) is not None
            assert a == b


@pytest.mark.parametrize("kind", ["unit", "dollar"])
@pytest.mark.parametrize("cbp", [False, True])
def test_oracle_equivalence_small(kind, cbp):
    rng = random.Random(f"dp-oracle:{kind}:{cbp}")
    for _ in range(40):
        inst = random_problem(
            rng, ScoringRule.PLURALITY, True, kind, cbp, max_voters=6, max_parties=4
        )
        optimum, _ = oracle_solve(inst)
        upper = sum(
            inst.cost_model.max_voter_cost(i, inst.election.num_parties)
            for i in range(inst.election.num_voters)
        )
        feasible_budgets = [
            b for b in range(upper + 1)
            if solve_at_budget(PLURALITY_DP, with_budget(inst, b)) is not None
        ]
        solver_min = feasible_budgets[0] if feasible_budgets else None
        assert solver_min == optimum
        if feasible_budgets:
            plan = solve_at_budget(PLURALITY_DP, with_budget(inst, solver_min))
            assert_verifies(with_budget(inst, solver_min), plan)


@pytest.mark.parametrize("max_price", [0, 9])
def test_every_mover_is_lifted_off_its_own_top(max_price):
    # The plan is read off the table on the promise that no mover's target
    # is its own top.  At price 0 such a move would cost nothing, so the
    # cost check in dispatch could not see it; the plan must not hold one.
    moved = 0
    for variant in CROSSVAL_VARIANTS:
        if ROUTES[variant.rule, variant.thresholded, variant.bribery] != PLURALITY_DP:
            continue
        for index in range(25):
            inst = random_instance(variant, 3, index, max_voters=8, max_parties=5,
                                   max_price=max_price)
            for cap in (inf, inst.budget):
                plan = solve_plurality_t_dollar(inst, cap)
                for voter, order in (plan.replacements if plan else {}).items():
                    old = inst.election.orders[voter]
                    assert order.top() != old.top(), (variant, index, voter)
                    assert order == lift_to_top(old, order.top()), (variant, index, voter)
                    moved += 1
    assert moved > 0
