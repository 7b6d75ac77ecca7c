"""Exact bounded search: option enumeration, optimality, refusal semantics."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from coalition_bribery.core import (
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    Variant,
    check_goals,
    goals_met,
    grand_total,
    score,
    seat_cut,
    tally,
)
from coalition_bribery.costs import (
    DollarCost,
    ShiftCost,
    SwapCost,
    UnitCost,
    apply_plan,
    count_orders,
    inverted_pairs,
    plan_cost,
)
from coalition_bribery.dispatch import CROSSVAL_VARIANTS, ORACLE, solve_instance
from coalition_bribery import oracle
from coalition_bribery.generators import random_instance, with_budget
from coalition_bribery.oracle import (
    OracleRefusal,
    SearchBudget,
    _Meter,
    _floor,
    _keys,
    _order_keys,
    _voter_classes,
    _voter_effect_options,
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
)

from conftest import (
    make_election,
    naive_optimum,
    random_model,
    random_problem,
    solve_at_budget,
    unanimous_four_party_plurality_cb,
)
from test_reductions import COVERLESS8


class TestEnumerateOptions:
    def test_two_parties_unit(self):
        inst = random_problem(random.Random(0), ScoringRule.PLURALITY, False, "unit", False,
                              max_voters=1, max_parties=2)
        assert inst.election.num_parties == 2
        options = enumerate_voter_options(inst, 0, _Meter(SearchBudget()))
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
        options = dict(enumerate_voter_options(inst, 0, _Meter(SearchBudget())))
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
        options = dict(enumerate_voter_options(inst, 0, _Meter(SearchBudget())))
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
        # A cap at the voter's `max_voter_cost` (110: every ordered pair is
        # priced 1) admits all 11! orders, so it is refused as early as no cap.
        inst = self.eleven_party_swap_voter()
        assert inst.cost_model.max_voter_cost(0, 11) == 110
        for cost_cap in (math.inf, 110):
            with pytest.raises(OracleRefusal) as err:
                enumerate_voter_options(
                    inst, 0, _Meter(SearchBudget(max_expansions=10_000)), cost_cap
                )
            assert err.value.required == math.factorial(11)

    def test_all_party_shift_coalition_refuses_up_front(self):
        # Every party may rise, so all 11! orders are admissible; a cap at the
        # voter's `max_voter_cost` (55 inversions at slope 1) admits them all.
        parties = tuple(f"p{i}" for i in range(11))
        inst = ProblemInstance(
            election=make_election(parties, [list(parties)]), rule=ScoringRule.BORDA,
            threshold=Fraction(0), coalition=parties, phi=Fraction(0),
            rho=Fraction(0), budget=0, cost_model=ShiftCost.multiplicative([1], 11),
        )
        order = inst.election.orders[0]
        assert inst.cost_model.max_voter_cost(0, 11) == 55
        assert count_orders(order, inst.coalition) == math.factorial(11)
        for cost_cap in (math.inf, 55):
            with pytest.raises(OracleRefusal) as err:
                enumerate_voter_options(
                    inst, 0, _Meter(SearchBudget(max_expansions=10_000)), cost_cap
                )
            assert err.value.required == math.factorial(11)

    def test_swap_at_cap_zero_keeps_the_current_order(self):
        inst = self.eleven_party_swap_voter()
        meter = _Meter(SearchBudget(max_expansions=10_000))
        options = enumerate_voter_options(inst, 0, meter, cost_cap=0)
        assert options == [(inst.election.orders[0], 0)]
        assert meter.count == 1

    def test_dollar_under_its_price_builds_only_the_current_order(self):
        parties = tuple(f"p{i}" for i in range(10))
        inst = ProblemInstance(
            election=make_election(parties, [parties]), rule=ScoringRule.BORDA,
            threshold=Fraction(0), coalition=parties[:1], phi=Fraction(0),
            rho=Fraction(0), budget=0, cost_model=DollarCost((5,)),
        )
        meter = _Meter(SearchBudget(max_expansions=10))
        options = enumerate_voter_options(inst, 0, meter, cost_cap=4)
        assert options == [(inst.election.orders[0], 0)]
        assert meter.count == 1

    def test_one_meter_per_solve(self):
        # Three voter classes, each priced at the budget of 1, so each
        # enumeration charges all 4! = 24 orders up front, all three before
        # any sweep step.  No single enumeration reaches the limit of 50,
        # but the third, after the first two, does (24 + 24 + 24 = 72).  At
        # threshold 0 with rho = 0 a state is the coalition's points alone;
        # each voter gives "a" 2 points and can move it to 0-3, so its 24
        # orders merge into 4 effects.  The first class's 4 multisets are
        # each combined with the one start state (4 expansions).  The goal
        # needs 9 of the 18 points (`_floor`), "a" holds 6, and the cap of 1
        # lets one bribe add at most 1, so every key of the first layer is
        # dropped and the sweep ends there: the solve takes 3 * 24 + 4 = 76.
        parties = ("a", "b", "c", "d")
        election = make_election(
            parties, [("b", "a", "c", "d"), ("c", "a", "b", "d"), ("d", "a", "b", "c")]
        )
        inst = ProblemInstance(
            election=election, rule=ScoringRule.BORDA, threshold=Fraction(0),
            coalition=("a",), phi=Fraction(1, 2), rho=Fraction(0), budget=1,
            cost_model=DollarCost((1, 1, 1)),
        )
        assert not check_goals(election.orders, inst)
        assert len(enumerate_voter_options(inst, 0, _Meter(SearchBudget(50)), 1)) == 24
        stats = {}
        assert solve_np_hard(inst, inst.budget, SearchBudget(), stats=stats) is None
        assert _floor(inst) == 9
        assert stats == {"expansions": 76, "states": 0}
        with pytest.raises(OracleRefusal) as err:
            solve_instance(inst, SearchBudget(max_expansions=50), force_oracle=True)
        assert err.value.limit == 50 and err.value.required == 72
        assert str(err.value) == (
            "exact search needs more than 50 expansions "
            f"(stopped at {err.value.required})"
        )


EVERY_VARIANT = [
    Variant(rule, thresholded, bribery, preferred)
    for rule in ScoringRule for thresholded in (False, True)
    for bribery in ("unit", "dollar", "swap", "shift") for preferred in (False, True)
]


def packed_orders(inst):
    """`packed(ranking)`: the order's key under the search's key scheme,
    from its tally and the parties' weights."""
    weight, _, _ = _keys(inst)
    parties, rule = inst.election.parties, inst.rule
    return lambda ranking: sum(
        s * weight[p] for p, s in tally((PreferenceOrder(ranking),), parties, rule).items())


def field_width(num_voters, top, total):
    """The bits per party of a key under a threshold: n * top below a clear
    guard bit, and room for the grand total below 2**width - 1."""
    return max((num_voters * top).bit_length() + 1, (total + 1).bit_length())


def fields(key, width, count):
    """The `count` lowest `width`-bit fields of `key`, lowest first."""
    return tuple(key >> width * i & (1 << width) - 1 for i in range(count))


@pytest.mark.parametrize("variant", EVERY_VARIANT, ids=lambda v: v.label())
def test_keys_of_bribed_profiles(variant):
    # The search keys a profile by the sum of its orders' keys and tests the
    # goal on that sum alone.  On seeded profiles, bribed a few times by
    # replacing random voters' orders with random permutations, the key must
    # hold below its top digit the numbers the goal reads.  Under a
    # threshold that is the whole score vector, party i's points in the
    # width-bit field at width * i, each below 2**(width - 1), so every
    # guard bit is clear, and summing to less than 2**width - 1; at
    # threshold 0 the leader's points (when rho > 0), below high = T + 1.
    # The top digit, at place value `high`, must be the coalition's points;
    # the search's own order keys must add up to the same key; and `met`
    # must agree with `check_goals`.
    rng = random.Random(variant.label())
    outcomes = set()
    for index in range(10):
        inst = random_instance(variant, seed=17, index=index, max_voters=8, max_parties=6)
        weight, high, met = _keys(inst)
        packed = packed_orders(inst)
        search_packed = _order_keys(inst, weight)
        election = inst.election
        parties = election.parties
        total = grand_total(election.num_voters, len(parties), inst.rule)
        top = 1 if inst.rule is ScoringRule.PLURALITY else len(parties) - 1
        width = field_width(election.num_voters, top, total)
        orders = list(election.orders)
        for bribe in range(4):
            where = (variant.label(), index, bribe)
            scores = tally(orders, parties, inst.rule)
            coalition = sum(scores[p] for p in inst.coalition)
            rankings = [order.ranking for order in orders]
            key = sum(map(packed, rankings))
            assert key == sum(map(search_packed, rankings)), where
            if inst.threshold:
                digits = fields(key, width, len(parties))
                assert digits == tuple(scores.values()), where
                assert all(digit < 1 << width - 1 for digit in digits), where
                assert sum(digits) < (1 << width) - 1, where
                assert high == 1 << width * len(parties), where
            else:
                assert high == (total + 1 if inst.rho else 1), where
                assert key % high == (scores[inst.leader] if inst.rho else 0), where
            assert key // high == coalition, where
            goal = met(key)
            assert goal == check_goals(orders, inst), where
            outcomes.add(goal)
            for voter in rng.sample(range(len(orders)), rng.randint(1, len(orders))):
                orders[voter] = PreferenceOrder(tuple(rng.sample(parties, len(parties))))
    assert outcomes == {False, True}, variant.label()


@pytest.mark.parametrize("variant", EVERY_VARIANT, ids=lambda v: v.label())
def test_voter_options_have_distinct_score_effects(variant):
    # Options that share a key delta are merged into the cheapest of them,
    # so no two share one.  Under a threshold the key is the whole score
    # vector, so no two Borda orders share one and the merge keeps them all.
    for index in range(20):
        inst = random_instance(variant, seed=11, index=index)
        packed = packed_orders(inst)
        _, high, _ = _keys(inst)
        for voter in range(inst.election.num_voters):
            options = _voter_effect_options(
                inst, voter, _Meter(SearchBudget()), math.inf, packed, high
            )
            orders = enumerate_voter_options(inst, voter, _Meter(SearchBudget()))
            old = inst.election.orders[voter]
            cheapest = {}
            for order, cost in orders:
                delta = packed(order.ranking) - packed(old.ranking)
                cheapest[delta] = min(cost, cheapest.get(delta, cost))
            where = (variant.label(), index, voter)
            assert {delta: cost for cost, delta, _, _ in options} == cheapest, where
            assert len({delta for _, delta, _, _ in options}) == len(options), where
            # each option's gain is its change to the coalition's points
            for _, _, gain, order in options:
                assert gain == sum(score(order, p, inst.rule) - score(old, p, inst.rule)
                                   for p in inst.coalition), where
            if inst.threshold and variant.rule is ScoringRule.BORDA:
                assert len(options) == len(orders), where


@pytest.mark.parametrize("variant", EVERY_VARIANT, ids=lambda v: v.label())
def test_coalition_floor_is_sound(variant):
    # Every profile that meets the goals gives the whole coalition, seated
    # or not, at least `_floor` points, so the search may drop every partial
    # bribe that cannot reach it.  At threshold 0 with rho = 0 the goal is
    # the floor itself: the least coalition points that meet it.
    rng = random.Random(f"floor-{variant.label()}")
    tested = 0
    for index in range(10):
        inst = random_instance(variant, seed=19, index=index, max_voters=8, max_parties=6)
        floor = _floor(inst)
        election = inst.election
        if not inst.threshold and inst.rho == 0:
            total = grand_total(election.num_voters, election.num_parties, inst.rule)
            assert floor == min(c for c in range(total + 1)
                                if goals_met(c, 0, total, inst)), index
        parties = election.parties
        orders = list(election.orders)
        for bribe in range(8):
            if check_goals(orders, inst):
                scores = tally(orders, parties, inst.rule)
                assert sum(scores[p] for p in inst.coalition) >= floor, (index, bribe)
                tested += 1
            for voter in rng.sample(range(len(orders)), rng.randint(1, len(orders))):
                orders[voter] = PreferenceOrder(tuple(rng.sample(parties, len(parties))))
    assert tested, variant.label()


SEARCH_ONLY_VARIANTS = [
    Variant(ScoringRule.BORDA, True, bribery, preferred)
    for bribery in ("unit", "dollar", "swap", "shift") for preferred in (False, True)
] + [
    Variant(ScoringRule.PLURALITY, True, bribery, preferred)
    for bribery in ("swap", "shift") for preferred in (False, True)
]


@pytest.mark.parametrize("variant", SEARCH_ONLY_VARIANTS, ids=lambda v: v.label())
def test_pruned_search_matches_naive_product_search(variant, monkeypatch):
    # The cells only the search serves, at up to 4 voters and 4 parties,
    # with phi >= 1/2 and a threshold of at most 1/(2m), so that the floor
    # bites: uncapped, at the optimum and one below it, the pruned search
    # must find the naive optimum, and every plan must re-cost to it and
    # meet the goals.  With the floor at 0 it prunes nothing, and it must
    # build fewer states somewhere.
    rng = random.Random(f"pruned-{variant.label()}")
    bites = 0
    for trial in range(12):
        while True:
            inst = random_problem(rng, variant.rule, True, variant.bribery,
                                  variant.with_preferred, max_voters=4, max_parties=4)
            m, n = inst.election.num_parties, inst.election.num_voters
            if math.factorial(m) ** n <= 5_000:
                break
        inst = dataclasses.replace(inst, phi=Fraction(rng.randint(4, 8), 8),
                                   threshold=Fraction(rng.randint(1, n), 2 * n * m))
        opt = naive_optimum(inst)
        for cap in [math.inf] if opt is None else [math.inf, opt] + [opt - 1] * (opt > 0):
            pruned, unpruned = {}, {}
            plan = solve_np_hard(inst, cap, stats=pruned)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_floor", lambda instance: 0)
                solve_np_hard(inst, cap, stats=unpruned)
            bites += pruned["states"] < unpruned["states"]
            where = (trial, cap)
            if opt is None or cap < opt:
                assert plan is None, where
                continue
            assert plan.cost == opt, where
            assert plan_cost(inst.cost_model, inst.coalition, inst.election, plan) == opt, where
            assert check_goals(apply_plan(inst.election, plan), inst), where
    assert bites, variant.label()


class TestOracleSolve:
    def test_unanimous_borda_costs_one(self):
        cost, plan = oracle_solve(unanimous_four_party_borda_cb(1))
        assert cost == 1 and len(plan.replacements) == 1

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
        assert cost == 0 and len(plan.replacements) == 0

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


def with_duplicated_voters(instance, sizes):
    """`instance` with voter i copied sizes[i] times, order and price data
    alike, so that its voters form classes of those sizes."""
    index = [i for i, size in enumerate(sizes) for _ in range(size)]
    model = instance.cost_model
    per_voter = {
        field.name: tuple(getattr(model, field.name)[i] for i in index)
        for field in dataclasses.fields(model)
    }
    election = instance.election
    return dataclasses.replace(
        instance, election=make_election(
            election.parties, [election.orders[i].ranking for i in index]),
        cost_model=dataclasses.replace(model, **per_voter),
    )


@pytest.mark.parametrize("kind", ["unit", "dollar", "swap", "shift"])
def test_witness_walks_back_through_multi_member_classes(kind):
    rng = random.Random(f"classes-{kind}")
    shared = 0  # witnesses bribing two voters of one class
    for trial in range(24):
        rule = rng.choice([ScoringRule.PLURALITY, ScoringRule.BORDA])
        base = random_problem(rng, rule, rng.random() < 0.5, kind, rng.random() < 0.5,
                              max_voters=2, max_parties=3)
        sizes = rng.choice([(2,), (3,), (4,), (5,)] if base.election.num_voters == 1
                           else [(2, 2), (2, 3), (3, 2)])
        inst = with_duplicated_voters(base, sizes)
        classes = _voter_classes(inst)
        assert all(2 <= len(members) <= 5 for members in classes)
        opt = naive_optimum(inst)
        if opt is None:
            assert solve_np_hard(inst, math.inf) is None, trial
            continue
        if opt:
            assert solve_np_hard(inst, opt - 1) is None, trial
        for cap in (math.inf, opt):
            plan = solve_np_hard(inst, cap)
            assert plan.cost == opt, (trial, cap)
            assert plan_cost(inst.cost_model, inst.coalition, inst.election, plan) == opt
            assert check_goals(apply_plan(inst.election, plan), inst)
            shared += any(len(plan.replacements.keys() & set(members)) > 1
                          for members in classes)
    assert shared > 0


@pytest.mark.parametrize(
    "variant", [v for v in CROSSVAL_VARIANTS if not v.thresholded], ids=lambda v: v.label())
def test_projected_states_match_full_score_vectors(variant):
    # At threshold 0 a state is only the coalition's and the leader's
    # points.  A copy at threshold 1/T (T the grand total) has seat cut 1:
    # only parties with 0 points go unseated, and they add nothing to any
    # sum, so the copy has the same goals but is searched on full score
    # vectors.  Both must agree at every cap, and the projection never costs
    # more work.
    for index in range(24):
        inst = random_instance(variant, seed=13, index=index)
        election = inst.election
        total = grand_total(election.num_voters, election.num_parties, inst.rule)
        full = dataclasses.replace(inst, threshold=Fraction(1, total))
        assert seat_cut(total, full.threshold) == 1
        plan = solve_np_hard(inst, math.inf)
        opt = None if plan is None else plan.cost
        caps = [math.inf] if opt is None else [math.inf, opt, opt - 1] if opt else [math.inf, 0]
        for cap in caps:
            projected, unprojected = {}, {}
            costs = [None if plan is None else plan.cost for plan in (
                solve_np_hard(inst, cap, stats=projected),
                solve_np_hard(full, cap, stats=unprojected),
            )]
            where = (index, cap)
            assert costs == [None if opt is None or cap < opt else opt] * 2, where
            assert projected["expansions"] <= unprojected["expansions"], where


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
            unpruned = solve_np_hard(inst, math.inf)
            if unpruned is None or unpruned.cost > budget:
                assert pruned is None
            else:
                assert pruned is not None and pruned.cost == unpruned.cost


# Expansion counts and optima of the exact search, pinned per (instance, cap)
# as (cap, expansions, sweep states, optimum or None).  How states are stored
# must not move the expansions or the optima.  The bisection images have
# threshold 0, so a state is the coalition's points alone; the last layer's
# states count only up to the first key that meets the goals; no key is kept
# from which the coalition cannot reach `_floor` within the cap.  The
# coverless X3C image (31 parties) has a floor of 0, so none of its keys is
# pruned and every last-layer key is tested until one meets the goals.
METER_PINS = {
    "x3c-covered4": (
        lambda: reduce_x3c_to_plurality_shift_cb(
            ExactCover34Instance(4, ((1, 2, 3, 4),) * 3)),
        [(4, 22, 22, 4), (3, 14, 14, None)],
    ),
    "bisection-v2-no": (
        lambda: reduce_minbisection_to_borda_swap_cb(
            MinBisectionInstance(2, frozenset({(1, 2)}), 0)),
        [(2, 33, 1, 2), (1, 12, 0, None)],
    ),
    "bisection-v2-yes": (
        lambda: reduce_minbisection_to_borda_swap_cb(
            MinBisectionInstance(2, frozenset(), 0)),
        [(1, 17, 1, 1)],
    ),
    "sixteen-voter-shift": (
        lambda: sixteen_voter_shift_cbp(3),
        [(3, 14, 10, 3), (2, 8, 5, None)],
    ),
    "sixteen-voter-swap-image": (
        lambda: shift_to_swap(sixteen_voter_shift_cbp(3, multiplicative=True)),
        [(3, 17, 10, 3), (2, 9, 5, None)],
    ),
    "x3c-coverless8": (
        lambda: reduce_x3c_to_plurality_shift_cb(COVERLESS8),
        [(38, 21351, 7814, 38), (37, 19178, 7608, None)],
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
        # field one bit too narrow; the round trip over the whole score range
        # cannot.  Every score up to n * top keeps its field's guard bit
        # clear; the top digit, the coalition's points, may pass a field.
        for n in range(1, 4):
            for m in range(2, 5):
                parties = tuple(f"p{i}" for i in range(m))
                top = 1 if rule is ScoringRule.PLURALITY else m - 1
                total = n if rule is ScoringRule.PLURALITY else n * m * (m - 1) // 2
                width = field_width(n, top, total)
                vectors = list(itertools.product(range(n * top + 1), repeat=m))
                assert n * top < 1 << width - 1
                election = make_election(parties, [parties] * n)
                for size in (1, m):
                    inst = ProblemInstance(
                        election=election, rule=rule,
                        threshold=Fraction(1, 2), coalition=parties[:size],
                        phi=Fraction(0), rho=Fraction(0), budget=0, cost_model=UnitCost(),
                    )
                    weight, high, _ = _keys(inst)
                    assert high == 1 << width * m

                    def key(vector):
                        return sum(s * weight[p] for p, s in zip(parties, vector))

                    def unpacked(key):
                        return (*fields(key, width, m), key // high)

                    def keyed(vector):
                        return (*vector, sum(vector[:size]))

                    for vector in vectors:
                        assert unpacked(key(vector)) == keyed(vector)
                    # a signed delta's key moves one state key to the other's
                    rng = random.Random(f"{rule}-{n}-{m}-{size}")
                    for _ in range(50):
                        a, b = rng.sample(vectors, 2)
                        delta = tuple(y - x for x, y in zip(a, b))
                        assert unpacked(key(a) + key(delta)) == keyed(b)

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
