"""Flow-based solver for zero-threshold plurality under swap/shift bribery."""

import itertools
import random
from fractions import Fraction

import pytest

import coalition_bribery.plurality_flow as plurality_flow
from coalition_bribery.core import (
    PreferenceOrder,
    ProblemInstance,
    ScoringRule,
    goals_met,
    tally,
)
from coalition_bribery.costs import ShiftCost, SwapCost, apply_plan
from coalition_bribery.dispatch import PLURALITY_FLOW, solve_capped
from coalition_bribery.generators import with_budget
from coalition_bribery.oracle import (
    SearchBudget,
    _Meter,
    enumerate_voter_options,
    oracle_solve,
)
from coalition_bribery.plurality_flow import (
    LEADER,
    OUTSIDE,
    REST,
    build_top_signature_network,
    min_bribe_to_top,
    solve_plurality_zero,
)
from coalition_bribery.sample_instances import sixteen_voter_shift_cbp

from conftest import (
    assert_verifies,
    make_election,
    random_model,
    random_problem,
    solve_at_budget,
)


def swap_instance(rankings, coalition, preferred, phi, rho, budget, pair_price):
    parties = tuple(sorted(set(rankings[0])))
    election = make_election(parties, rankings)
    model = SwapCost(
        tuple(
            {(x, y): pair_price(x, y) for x in parties for y in parties if x != y}
            for _ in rankings
        )
    )
    return ProblemInstance(
        election=election,
        rule=ScoringRule.PLURALITY,
        threshold=Fraction(0),
        coalition=coalition,
        preferred=preferred,
        phi=phi,
        rho=rho,
        budget=budget,
        cost_model=model,
    )


class TestMinBribeToTop:
    def test_shift_lift_of_leader(self):
        inst = ProblemInstance(
            election=sixteen_voter_shift_cbp(3).election,
            rule=ScoringRule.PLURALITY,
            threshold=Fraction(0),
            coalition=("c1", "c2"),
            preferred="c1",
            phi=Fraction(1, 2),
            rho=Fraction(3, 4),
            budget=3,
            cost_model=sixteen_voter_shift_cbp(3).cost_model,
        )
        order, cost = min_bribe_to_top(inst, 6, LEADER)
        assert order == PreferenceOrder(("c1", "c3", "c2")) and cost == 1

    def test_top_already_in_class(self):
        inst = swap_instance(
            [["z", "a", "b"]], ("a", "b"), "a", Fraction(0), Fraction(0), 0,
            lambda x, y: 1,
        )
        order, cost = min_bribe_to_top(inst, 0, OUTSIDE)
        assert cost == 0 and order == inst.election.orders[0]

    def test_shift_cannot_give_outsider_the_top(self):
        rankings = [["a", "z", "b"]]
        parties = ("a", "b", "z")
        election = make_election(parties, rankings)
        inst = ProblemInstance(
            election=election,
            rule=ScoringRule.PLURALITY,
            threshold=Fraction(0),
            coalition=("a", "b"),
            preferred="a",
            phi=Fraction(0),
            rho=Fraction(0),
            budget=0,
            cost_model=ShiftCost.multiplicative([1], 3),
        )
        assert min_bribe_to_top(inst, 0, OUTSIDE) is None

    def test_swap_lift_is_cheapest_same_top_order(self):
        # against enumeration of every order with the target's class on top
        rng = random.Random(17)
        for _ in range(30):
            inst = random_problem(rng, ScoringRule.PLURALITY, False, "swap", True,
                                  max_voters=1, max_parties=4)
            options = enumerate_voter_options(inst, 0, _Meter(SearchBudget()))
            for which, targets in (
                (LEADER, {inst.leader}),
                (REST, set(inst.coalition_rest)),
                (OUTSIDE, set(inst.outsiders)),
            ):
                if not targets:
                    continue
                best = min(
                    (cost for order, cost in options if order.top() in targets),
                    default=None,
                )
                got = min_bribe_to_top(inst, 0, which)
                assert (got[1] if got else None) == best


class TestNetworkShape:
    def _options(self, n):
        order = PreferenceOrder(("a", "b"))
        return [[(order, 0), (order, 1), None] for _ in range(n)]

    def test_node_count(self):
        net = build_top_signature_network(1, 0, self._options(2))
        assert net.num_nodes == 5 + 2

    def test_source_capacities(self):
        # the leader hub takes any number of tops; the others their bounds
        net = build_top_signature_network(1, 2, self._options(3))
        caps = [e.capacity for e in net.edges[:3]]
        assert caps == [3, 1, 2]

    def test_inadmissible_candidate_has_no_edges(self):
        net = build_top_signature_network(1, 1, self._options(1))
        # hub 4 is the outsider hub; nothing may leave it
        assert not [e for e in net.edges if e.tail == 4]
        assert net.demand == 1

    def test_each_voter_joins_its_admissible_hubs_and_the_sink(self):
        options = self._options(3)
        options[1] = [None, options[1][1], options[1][0]]
        net = build_top_signature_network(1, 1, options)
        assert len(net.edges) <= 4 * 3 + 3
        for i, row in enumerate(options):
            into = sorted((e.tail, e.capacity, e.cost) for e in net.edges if e.head == 5 + i)
            assert into == [(2 + which, 1, opt[1]) for which, opt in enumerate(row) if opt]
            out = [(e.head, e.capacity) for e in net.edges if e.tail == 5 + i]
            assert out == [(net.sink, 1)]


class TestSolver:
    def test_three_outsider_voters(self):
        # all voters top an outsider; lifting either coalition party costs 1
        def price(x, y):
            return 1 if y in ("a", "b") and x == "z" else 0

        inst = swap_instance(
            [["z", "a", "b"]] * 3,
            ("a", "b"),
            "a",
            Fraction(2, 3),
            Fraction(1, 2),
            2,
            price,
        )
        plan = solve_at_budget(PLURALITY_FLOW, inst)
        assert plan is not None and plan.cost == 2
        assert_verifies(inst, plan)
        tight = with_budget(inst, 1)
        assert solve_at_budget(PLURALITY_FLOW, tight) is None

    def test_satisfied_instance_empty_plan(self):
        inst = swap_instance(
            [["a", "z", "b"]], ("a", "b"), "a", Fraction(1, 2), Fraction(1), 0,
            lambda x, y: 3,
        )
        plan = solve_at_budget(PLURALITY_FLOW, inst)
        assert plan is not None and len(plan.replacements) == 0

    def test_one_network_per_coalition_size(self, monkeypatch):
        built = []

        def counting_build(*args):
            built.append(args)
            return build_top_signature_network(*args)

        monkeypatch.setattr(plurality_flow, "build_top_signature_network", counting_build)
        rng = random.Random("scan-count")
        for _ in range(20):
            inst = random_problem(rng, ScoringRule.PLURALITY, False, "swap", True,
                                  max_voters=5, max_parties=4)
            built.clear()
            solve_plurality_zero(inst, inst.budget)
            n = inst.election.num_voters
            assert len(built) <= n + 1

    def test_unreachable_support_is_infeasible(self):
        rankings = [["z", "a", "b"]]
        parties = ("a", "b", "z")
        election = make_election(parties, rankings)
        inst = ProblemInstance(
            election=election,
            rule=ScoringRule.PLURALITY,
            threshold=Fraction(0),
            coalition=("a", "b"),
            preferred="a",
            phi=Fraction(1),
            rho=Fraction(0),
            budget=0,
            cost_model=ShiftCost.multiplicative([5], 3),
        )
        assert solve_at_budget(PLURALITY_FLOW, inst) is None


@pytest.mark.parametrize("kind", ["swap", "shift"])
@pytest.mark.parametrize("cbp", [False, True])
def test_oracle_equivalence_small(kind, cbp):
    rng = random.Random(f"flow-oracle:{kind}:{cbp}")
    for _ in range(40):
        inst = random_problem(
            rng, ScoringRule.PLURALITY, False, kind, cbp, max_voters=5, max_parties=4
        )
        optimum, _ = oracle_solve(inst)
        upper = sum(
            inst.cost_model.max_voter_cost(i, inst.election.num_parties)
            for i in range(inst.election.num_voters)
        )
        feasible = [
            b for b in range(upper + 1)
            if solve_at_budget(PLURALITY_FLOW, with_budget(inst, b)) is not None
        ]
        solver_min = feasible[0] if feasible else None
        assert solver_min == optimum
        if feasible:
            plan = solve_at_budget(PLURALITY_FLOW, with_budget(inst, solver_min))
            assert_verifies(with_budget(inst, solver_min), plan)
            # decoded tallies must reproduce a scanned signature exactly
            counts = tally(
                apply_plan(inst.election, plan), inst.election.parties, inst.rule
            )
            assert sum(counts.values()) == inst.election.num_voters


def brute_force_optimum(inst):
    """Cheapest per-voter choice of top class whose (leader, rest) tops meet
    the goals, over every admissible combination; None when none does."""
    n = inst.election.num_voters
    choices = [
        [(which, found[1]) for which in (LEADER, REST, OUTSIDE)
         if (found := min_bribe_to_top(inst, i, which)) is not None]
        for i in range(n)
    ]
    best = None
    for combo in itertools.product(*choices):
        k_leader = sum(which == LEADER for which, _ in combo)
        k_rest = sum(which == REST for which, _ in combo)
        if goals_met(k_leader + k_rest, k_leader, n, inst):
            cost = sum(price for _, price in combo)
            best = cost if best is None else min(best, cost)
    return best


def assert_matches_brute_force(inst):
    """The flow route's answers uncapped, at cap opt and at cap opt - 1
    against `brute_force_optimum`; returns that optimum."""
    opt = brute_force_optimum(inst)
    plan = solve_capped(PLURALITY_FLOW, inst, None)
    assert (None if plan is None else plan.cost) == opt
    if opt is not None:
        at_opt = solve_capped(PLURALITY_FLOW, inst, opt)
        assert at_opt is not None and at_opt.cost == opt
        assert solve_capped(PLURALITY_FLOW, inst, opt - 1) is None
    return opt


@pytest.mark.parametrize("kind", ["swap", "shift"])
@pytest.mark.parametrize("cbp", [False, True])
def test_brute_force_over_top_classes(kind, cbp):
    rng = random.Random(f"flow-brute:{kind}:{cbp}")
    paid = 0
    for _ in range(80):
        inst = random_problem(
            rng, ScoringRule.PLURALITY, False, kind, cbp, max_voters=6, max_parties=4
        )
        paid += bool(assert_matches_brute_force(inst))
    assert paid >= 15


@pytest.mark.parametrize("kind", ["swap", "shift"])
@pytest.mark.parametrize("cbp", [False, True])
def test_brute_force_at_edge_targets(kind, cbp):
    # phi and rho at 0, 1/2 and 1 put the coalition-size boxes at their edges
    rng = random.Random(f"flow-edges:{kind}:{cbp}")
    edges = (Fraction(0), Fraction(1, 2), Fraction(1))
    targets = list(itertools.product(edges, edges if cbp else edges[:1]))
    paid = 0
    for n in range(1, 7):
        for phi, rho in targets * (18 // len(targets)):
            parties = tuple(f"p{i}" for i in range(rng.randint(2, 4)))
            coalition = tuple(rng.sample(parties, rng.randint(1, len(parties))))
            inst = ProblemInstance(
                election=make_election(
                    parties, [rng.sample(parties, len(parties)) for _ in range(n)]
                ),
                rule=ScoringRule.PLURALITY,
                threshold=Fraction(0),
                coalition=coalition,
                preferred=coalition[0] if cbp else None,
                phi=phi,
                rho=rho,
                budget=0,
                cost_model=random_model(rng, kind, n, len(parties), parties),
            )
            paid += bool(assert_matches_brute_force(inst))
    assert paid >= 20
