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
    _pack,
    _score_radix,
    _unpack,
    enumerate_voter_options,
    oracle_solve,
    solve_np_hard,
)
from coalition_bribery.reductions import (
    ExactCover34Instance,
    MinBisectionInstance,
    reduce_minbisection_to_borda_swap_cb,
    reduce_x3c_to_plurality_shift_cb,
    shift_to_swap,
)
from coalition_bribery.sample_instances import (
    sixteen_voter_shift_cbp,
    unanimous_four_party_borda_cb,
    unanimous_four_party_plurality_cb,
)

from conftest import (
    make_election,
    naive_optimum,
    random_model,
    random_problem,
    solve_at_budget,
)


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


# Expansion counts and optima of the exact search, pinned per (instance, cap)
# as (cap, expansions, sweep states, optimum or None).  How states are keyed
# and when the meter is charged must not move the expansions or the optima.
METER_PINS = {
    "x3c-covered4": (
        lambda: reduce_x3c_to_plurality_shift_cb(
            ExactCover34Instance(4, ((1, 2, 3, 4),) * 3)),
        [(4, 22, 22, 4), (3, 14, 14, None)],
    ),
    "bisection-v2-no": (
        lambda: reduce_minbisection_to_borda_swap_cb(
            MinBisectionInstance(2, frozenset({(1, 2)}), 0)),
        [(2, 56, 28, 2), (1, 20, 10, None)],
    ),
    "bisection-v2-yes": (
        lambda: reduce_minbisection_to_borda_swap_cb(
            MinBisectionInstance(2, frozenset(), 0)),
        [(1, 28, 14, 1)],
    ),
    "sixteen-voter-shift": (
        lambda: sixteen_voter_shift_cbp(3),
        [(3, 18, 18, 3), (2, 17, 16, None)],
    ),
    "sixteen-voter-swap-image": (
        lambda: shift_to_swap(sixteen_voter_shift_cbp(3, multiplicative=True)),
        [(3, 23, 20, 3), (2, 19, 16, None)],
    ),
}


class TestSearchWork:
    @pytest.mark.parametrize("name", sorted(METER_PINS))
    def test_pinned_expansions_and_optima(self, name):
        build, pins = METER_PINS[name]
        inst = build()
        for cap, expansions, states, optimum in pins:
            stats = {}
            plan = solve_np_hard(inst, cap, stats=stats)
            assert (None if plan is None else plan.cost) == optimum, (name, cap)
            assert stats == {"expansions": expansions, "states": states}, (name, cap)

    @pytest.mark.parametrize("rule", [ScoringRule.PLURALITY, ScoringRule.BORDA])
    def test_state_key_round_trips_every_score_vector(self, rule):
        # Plurality and Borda fix the total points, so an optimum can hide a
        # radix one too small; the round trip over the whole score range
        # cannot.
        for n in range(1, 4):
            for m in range(2, 5):
                parties = tuple(f"p{i}" for i in range(m))
                inst = ProblemInstance(
                    election=make_election(parties, [parties] * n), rule=rule,
                    threshold=Fraction(0), coalition=parties[:1], phi=Fraction(0),
                    rho=Fraction(0), budget=0, cost_model=UnitCost(),
                )
                radix = _score_radix(inst)
                top = 1 if rule is ScoringRule.PLURALITY else m - 1
                vectors = list(itertools.product(range(n * top + 1), repeat=m))
                for vector in vectors:
                    assert _unpack(_pack(vector, radix), radix, m) == vector
                # a signed delta's key moves one state key to the other's
                rng = random.Random(f"{rule}-{n}-{m}")
                for _ in range(50):
                    a, b = rng.sample(vectors, 2)
                    delta = tuple(y - x for x, y in zip(a, b))
                    assert _pack(a, radix) + _pack(delta, radix) == _pack(b, radix)

    @pytest.mark.parametrize("rule", [ScoringRule.PLURALITY, ScoringRule.BORDA])
    @pytest.mark.parametrize("kind", ["unit", "dollar", "swap", "shift"])
    def test_unanimous_top_at_a_threshold(self, rule, kind):
        # The first party, the key's lowest digit, starts at n * top points.
        rng = random.Random(f"unanimous-{rule}-{kind}")
        parties = ("p0", "p1", "p2")
        election = make_election(parties, [parties] * 3)
        for preferred in (None, "p2"):
            inst = ProblemInstance(
                election=election, rule=rule, threshold=Fraction(1, 4),
                coalition=("p1", "p2"), preferred=preferred, phi=Fraction(1, 2),
                rho=Fraction(1, 2) if preferred else Fraction(0), budget=0,
                cost_model=random_model(rng, kind, 3, 3, parties),
            )
            assert not check_goals(election.orders, inst)
            cost, _ = oracle_solve(inst)
            assert cost == naive_optimum(inst)
