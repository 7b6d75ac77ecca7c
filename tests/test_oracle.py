"""Exact bounded search: option enumeration, optimality, refusal semantics."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from coalition_bribery.core import (
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    check_goals,
)
from coalition_bribery.costs import (
    DollarCost,
    ShiftCost,
    SwapCost,
    UnitCost,
    apply_plan,
    inverted_pairs,
    plan_cost,
)
from coalition_bribery.dispatch import ORACLE, solve_instance
from coalition_bribery.generators import with_budget
from coalition_bribery.oracle import (
    OracleRefusal,
    SearchBudget,
    _Meter,
    enumerate_voter_options,
    oracle_solve,
    solve_np_hard,
)
from coalition_bribery.reductions import (
    MinBisectionInstance,
    reduce_minbisection_to_borda_swap_cb,
)
from coalition_bribery.sample_instances import (
    sixteen_voter_shift_cbp,
    unanimous_four_party_borda_cb,
    unanimous_four_party_plurality_cb,
)

from conftest import make_election, random_problem, solve_at_budget


def naive_optimum(instance):
    """Unpruned product search over full per-voter option lists."""
    election = instance.election
    per_voter = [
        enumerate_voter_options(instance, i) for i in range(election.num_voters)
    ]
    best = None
    for combo in itertools.product(*per_voter):
        orders = tuple(order for order, _ in combo)
        cost = sum(c for _, c in combo)
        if check_goals(orders, instance):
            best = cost if best is None else min(best, cost)
    return best


class TestEnumerateOptions:
    def test_two_parties_unit(self):
        inst = random_problem(random.Random(0), ScoringRule.PLURALITY, False, "unit", False,
                              max_voters=1, max_parties=2)
        assert inst.election.num_parties == 2
        options = enumerate_voter_options(inst, 0)
        assert sorted(c for _, c in options) == [0, 1]

    def test_swap_lists_all_permutations_with_inversion_sums(self):
        parties = ("a", "b", "c")
        election = make_election(parties, [["a", "b", "c"]])
        prices = {(x, y): 2 for x in parties for y in parties if x != y}
        inst = ProblemInstance(
            election=election, rule=ScoringRule.BORDA, threshold=Fraction(0),
            coalition=("a",), phi=Fraction(0), rho=Fraction(0), budget=0,
            cost_model=SwapCost((prices,)),
        )
        options = dict(enumerate_voter_options(inst, 0))
        assert len(options) == 6
        for order, cost in options.items():
            assert cost == 2 * len(inverted_pairs(election.orders[0], order))

    def test_shift_options_are_the_admissible_orders(self):
        parties = ("c1", "c2", "c3")
        election = make_election(parties, [["c3", "c2", "c1"]])
        inst = ProblemInstance(
            election=election, rule=ScoringRule.PLURALITY, threshold=Fraction(0),
            coalition=("c1",), phi=Fraction(0), rho=Fraction(0), budget=0,
            cost_model=ShiftCost.multiplicative([1], 3),
        )
        options = dict(enumerate_voter_options(inst, 0))
        # exactly the orders that only raise c1, keeping c3 above c2
        assert options == {
            PreferenceOrder(("c3", "c2", "c1")): 0,
            PreferenceOrder(("c3", "c1", "c2")): 1,
            PreferenceOrder(("c1", "c3", "c2")): 2,
        }

    def test_factorial_guard_refuses(self):
        parties = tuple(f"p{i}" for i in range(11))
        election = make_election(parties, [list(parties)])
        inst = ProblemInstance(
            election=election, rule=ScoringRule.BORDA, threshold=Fraction(0),
            coalition=parties[:1], phi=Fraction(0), rho=Fraction(0), budget=0,
            cost_model=UnitCost(),
        )
        with pytest.raises(OracleRefusal) as err:
            enumerate_voter_options(inst, 0, _Meter(SearchBudget(max_expansions=10_000)))
        assert err.value.required == math.factorial(11)

    @staticmethod
    def eleven_party_swap_voter():
        parties = tuple(f"p{i}" for i in range(11))
        prices = {(x, y): 1 for x in parties for y in parties if x != y}
        return ProblemInstance(
            election=make_election(parties, [list(parties)]), rule=ScoringRule.BORDA,
            threshold=Fraction(0), coalition=parties[:1], phi=Fraction(0),
            rho=Fraction(0), budget=0, cost_model=SwapCost((prices,)),
        )

    def test_uncapped_swap_refuses_up_front(self):
        inst = self.eleven_party_swap_voter()
        with pytest.raises(OracleRefusal) as err:
            enumerate_voter_options(inst, 0, _Meter(SearchBudget(max_expansions=10_000)))
        assert err.value.required == math.factorial(11)

    def test_swap_at_cap_zero_keeps_the_current_order(self):
        inst = self.eleven_party_swap_voter()
        meter = _Meter(SearchBudget(max_expansions=10_000))
        options = enumerate_voter_options(inst, 0, meter, cost_cap=0)
        assert options == [(inst.election.orders[0], 0)]
        assert meter.count == 1

    def test_one_meter_per_solve(self):
        # Three voter classes, each enumerating 4! = 24 orders; the budget of
        # 1 leaves each class only its current order, so the sweep adds one
        # expansion per class.  No single enumeration reaches the limit of
        # 50, but the solve's 75 expansions do.
        parties = ("a", "b", "c", "d")
        election = make_election(
            parties, [("b", "a", "c", "d"), ("c", "a", "b", "d"), ("d", "a", "b", "c")]
        )
        inst = ProblemInstance(
            election=election, rule=ScoringRule.BORDA, threshold=Fraction(0),
            coalition=("a",), phi=Fraction(1, 2), rho=Fraction(0), budget=1,
            cost_model=DollarCost((5, 5, 5)),
        )
        assert not check_goals(election.orders, inst)
        assert len(enumerate_voter_options(inst, 0, _Meter(SearchBudget(50)))) == 24
        stats = {}
        assert solve_np_hard(inst, inst.budget, SearchBudget(), stats=stats) is None
        assert stats["expansions"] == 75
        with pytest.raises(OracleRefusal) as err:
            solve_instance(inst, SearchBudget(max_expansions=50), force_oracle=True)
        assert err.value.limit == 50 and err.value.required > 50
        assert str(err.value) == (
            "exact search needs more than 50 expansions "
            f"(stopped at {err.value.required})"
        )


class TestOracleSolve:
    def test_unanimous_borda_costs_one(self):
        cost, plan = oracle_solve(unanimous_four_party_borda_cb(1))
        assert cost == 1 and len(plan) == 1

    def test_unanimous_plurality_costs_one(self):
        cost, _ = oracle_solve(unanimous_four_party_plurality_cb(1))
        assert cost == 1

    def test_satisfied_instance_costs_zero(self):
        inst = unanimous_four_party_plurality_cb(0)
        relaxed = ProblemInstance(
            election=inst.election, rule=inst.rule, threshold=inst.threshold,
            coalition=("c4",), phi=Fraction(1, 2), rho=Fraction(0), budget=0,
            cost_model=UnitCost(),
        )
        cost, plan = oracle_solve(relaxed)
        assert cost == 0 and len(plan) == 0

    def test_completeness_against_naive_product_search(self):
        rng = random.Random("naive")
        for trial in range(80):
            rule = rng.choice([ScoringRule.PLURALITY, ScoringRule.BORDA])
            kind = rng.choice(["unit", "dollar", "swap", "shift"])
            inst = random_problem(rng, rule, rng.random() < 0.6, kind,
                                  rng.random() < 0.5, max_voters=3, max_parties=3)
            expected = naive_optimum(inst)
            got, plan = oracle_solve(inst)
            assert got == expected, (trial, got, expected)
            if plan is not None:
                assert (
                    plan_cost(inst.cost_model, inst.coalition, inst.election, plan)
                    == got
                )
                assert check_goals(apply_plan(inst.election, plan), inst)


class TestSolveNpHard:
    def test_sixteen_voter_optimum_and_witness(self):
        inst = sixteen_voter_shift_cbp(3)
        cost, plan = oracle_solve(inst)
        assert cost == 3
        assert sorted(inst.election.voters[i] for i in plan.replacements) == [
            "v1", "v7", "v8",
        ]

    def test_sixteen_voter_tight_budget(self):
        assert solve_at_budget(ORACLE, sixteen_voter_shift_cbp(2)) is None

    def test_zero_budget_unsatisfied(self):
        assert solve_at_budget(ORACLE, unanimous_four_party_borda_cb(0)) is None

    def test_capped_bisection_image_fits_a_small_budget(self):
        # One 9-party swap voter: its 9! orders exceed the limit, but the
        # orders within the budget do not.
        path = MinBisectionInstance(4, frozenset({(1, 2), (2, 3), (3, 4)}), 1)
        image = reduce_minbisection_to_borda_swap_cb(path)
        budget = SearchBudget(max_expansions=100_000)
        assert math.factorial(image.election.num_parties) > budget.max_expansions
        assert solve_np_hard(image, image.budget, budget) is not None

    def test_pruning_matches_unpruned(self):
        rng = random.Random("prune")
        for _ in range(40):
            inst = random_problem(rng, ScoringRule.BORDA, True, "unit", True,
                                  max_voters=3, max_parties=3)
            budget = rng.randint(0, 3)
            inst = with_budget(inst, budget)
            pruned = solve_np_hard(inst, budget)
            unpruned = solve_np_hard(inst, None)
            if unpruned is None or unpruned.cost > budget:
                assert pruned is None
            else:
                assert pruned is not None and pruned.cost == unpruned.cost
