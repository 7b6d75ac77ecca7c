"""The min-cost table kernel (front, combine, trace), and both engines built
on it against a plain unpruned min-plus reference on seeded small instances."""

import itertools
import random
from fractions import Fraction
from math import ceil, inf

import pytest
from hypothesis import given, settings, strategies as st

from coalition_bribery.borda import _voter_menu, metered_placements
from coalition_bribery.core import ScoringRule, check_goals, goals_met, grand_total
from coalition_bribery.dispatch import (
    BORDA_DP, CROSSVAL_VARIANTS, ORACLE, PLURALITY_DP, solver_for,
)
from coalition_bribery.generators import random_instance
from coalition_bribery.oracle import SearchBudget
from coalition_bribery.plurality_dp import _Table
from coalition_bribery.table import DENOMINATOR, Relaxation, combine, front, trace

from conftest import min_plus, random_problem

CASES = 60


class TestFront:
    def test_keeps_the_cells_no_cheaper_one_beats_on_level(self):
        cells = {(0, 3): 5, (0, 2): 5, (0, 1): 2, (0, 0): 4, (1, 0): 1, (1, -2): 0}
        assert front(cells) == {(0, 3): 5, (0, 1): 2, (1, 0): 1, (1, -2): 0}

    def test_groups_never_beat_each_other(self):
        cells = {(2, 0): 3, (1, 0): 4, (1, 5): 9}
        assert front(cells) == cells


class TestCombine:
    def test_cap_and_backpointers(self):
        layer, reached = combine({(0, 0): 0, (1, 1): 2}, {(0, 0): 0, (2, 1): 3}, 4)
        assert layer == {(0, 0): 0, (1, 1): 2, (2, 1): 3}
        assert reached == {(0, 0): (0, 0), (1, 1): (0, 0), (2, 1): (2, 1)}

    def test_dominated_step_is_never_taken(self):
        layer, _ = combine({(0, 0): 0}, {(1, 1): 1, (1, 0): 2}, inf)
        assert layer == {(1, 1): 1}

    def test_layer_is_the_front_of_the_reference(self):
        rng = random.Random("kernel")
        for _ in range(50):
            cells = {(0, 0): 0}
            ref = dict(cells)
            cap = rng.randint(0, 12)
            for _ in range(4):
                steps = {
                    (rng.randint(-2, 3), rng.randint(-2, 2)): rng.randint(0, 4)
                    for _ in range(rng.randint(1, 5))
                }
                cells, _ = combine(cells, steps, cap)
                ref = min_plus(ref, steps, cap)
                assert cells == front(ref)


class TestTrace:
    def test_walks_back_to_the_origin(self):
        backpointers = [{(1, 0): (1, 0)}, {(3, 2): (2, 2)}]
        assert trace(backpointers, (3, 2)) == [(1, 0), (2, 2)]


# Up to four layers of one to four steps (group, level) -> cost, a support
# share of a total, a leader ratio and multipliers p, q >= 0.
LAYERS = st.lists(
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 4)),
                    st.integers(0, 6), min_size=1, max_size=4),
    min_size=1, max_size=4,
)
SHARES = st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)).filter(
    lambda share: share <= 1
)
RATIOS = st.one_of(st.just(Fraction(0)), SHARES)
MULTIPLIERS = st.tuples(st.integers(0, 8 * DENOMINATOR), st.integers(0, 8 * DENOMINATOR))


def meets(group, level, share, total, ratio):
    return (group * share.denominator >= share.numerator * total
            and level * ratio.denominator >= ratio.numerator * group)


def brute_optimum(layers, share, total, ratio):
    """The cheapest choice of one step per layer whose sums meet the goals."""
    return min(
        (sum(c for _, c in combo) for combo in itertools.product(
            *(steps.items() for steps in layers))
         if meets(sum(s[0] for s, _ in combo), sum(s[1] for s, _ in combo),
                  share, total, ratio)),
        default=None,
    )


def pruned_optimum(layers, share, total, ratio, cap, multipliers=None):
    """The cheapest final cell meeting the goals in the table pruned at
    `cap`, with the searched multipliers or the given ones."""
    relaxation = Relaxation(layers, share, total, ratio)
    if multipliers is None:
        pruning = relaxation.prune(cap)
    else:
        limits = relaxation.limits(*multipliers, cap)
        pruning = None if limits is None else (relaxation.weights(*multipliers), limits)
    if pruning is None:
        return None
    weights, limits = pruning
    cells = {(0, 0): 0}
    for steps, limit in zip(layers, limits):
        cells, _ = combine(cells, steps, cap, weights, limit)
    return min(
        (c for (g, lv), c in cells.items() if meets(g, lv, share, total, ratio)),
        default=None,
    )


class TestRelaxation:
    @settings(max_examples=300, deadline=None)
    @given(LAYERS, SHARES, st.integers(0, 20), RATIOS, MULTIPLIERS)
    def test_bound_is_the_lagrangian_and_never_exceeds_the_optimum(
        self, layers, share, total, ratio, pq
    ):
        lam, mu = (Fraction(x, DENOMINATOR) for x in pq)
        lagrangian = lam * ceil(share * total) + sum(
            min(c - lam * g - mu * (ratio.denominator * lv - ratio.numerator * g)
                for (g, lv), c in steps.items())
            for steps in layers
        )
        bound, _ = Relaxation(layers, share, total, ratio).value(*pq)
        assert bound == DENOMINATOR * lagrangian
        optimum = brute_optimum(layers, share, total, ratio)
        if optimum is not None:
            assert bound <= DENOMINATOR * optimum

    @settings(max_examples=300, deadline=None)
    @given(LAYERS, SHARES, st.integers(0, 20), RATIOS,
           st.one_of(st.none(), MULTIPLIERS))
    def test_pruned_table_keeps_the_optimum(self, layers, share, total, ratio, pq):
        optimum = brute_optimum(layers, share, total, ratio)
        for cap in (0, 3, 30) if optimum is None else (optimum, optimum - 1):
            expected = optimum if optimum is not None and cap >= optimum else None
            assert pruned_optimum(layers, share, total, ratio, cap, pq) == expected

    @settings(max_examples=300, deadline=None)
    @given(LAYERS, SHARES, st.integers(0, 20))
    def test_searched_lambda_attains_the_lp_bound(self, layers, share, total):
        """Without a ratio, the searched p is the best lam = p / DENOMINATOR
        up to rounding: the bound is within half a subgradient of the exact
        maximum over every slope between two steps of a layer."""
        relaxation = Relaxation(layers, share, total, Fraction(0))
        need = ceil(share * total)
        multipliers = relaxation.search(0)
        if multipliers is None:
            assert sum(max(g for g, _ in steps) for steps in layers) < need
            return
        candidates = {Fraction(0)} | {
            Fraction(c2 - c1, g2 - g1)
            for steps in layers
            for ((g1, _), c1), ((g2, _), c2) in itertools.permutations(steps.items(), 2)
            if g2 > g1 and c2 > c1
        }
        best = max(
            lam * need + sum(min(c - lam * g for (g, _), c in steps.items())
                             for steps in layers)
            for lam in candidates
        )
        slope = need + sum(max(g for g, _ in steps) for steps in layers)
        bound, _ = relaxation.value(*multipliers)
        assert bound >= DENOMINATOR * best - Fraction(slope, 2)

    def test_bound_never_exceeds_the_oracle_optimum_on_borda_instances(self):
        """On crossval's zero-threshold Borda stream (seed 5), the searched
        multipliers never bound above the exact search's optimum at any cap,
        and the optimum's own cap is never certified infeasible."""
        oracle = solver_for(ORACLE, SearchBudget())
        checked = 0
        for variant in CROSSVAL_VARIANTS:
            if variant.rule is not ScoringRule.BORDA or variant.thresholded:
                continue
            for index in range(50):
                instance = random_instance(variant, 5, index)
                plan = oracle(instance, None)
                if plan is None or plan.cost == 0:
                    continue
                opt, election = plan.cost, instance.election
                placements = metered_placements(SearchBudget())
                relaxation = Relaxation(
                    [_voter_menu(instance, i, placements)[0]
                     for i in range(election.num_voters)],
                    instance.phi,
                    grand_total(election.num_voters, election.num_parties, ScoringRule.BORDA),
                    instance.rho,
                )
                for cap in (opt - 1, opt, 2 * opt):
                    bound, _ = relaxation.value(*relaxation.search(cap))
                    assert bound <= DENOMINATOR * opt, (variant.label(), index, cap)
                assert relaxation.prune(opt) is not None, (variant.label(), index)
                checked += 1
        assert checked >= 70


def dp_reference_cells(instance):
    """The DP's unpruned (g, a_out, a_rest) table, with the leader's count
    kept non-negative."""
    table = _Table(instance, inf)
    cells = {(0, 0, 0): 0}
    for party in table.parties:
        cells = min_plus(cells, table.single(party))
    base = len(table.supporters[instance.leader])
    return table, {key: c for key, c in cells.items() if base + key[0] >= 0}


def dp_reference_optimum(instance):
    table, cells = dp_reference_cells(instance)
    base = len(table.supporters[instance.leader])
    best = None
    for (g, a_out, a_rest), cell in cells.items():
        cost = cell + table.mincost(instance.leader, max(0, -g))
        leader = base + g if base + g >= table.threshold_count else 0
        coalition = a_rest + leader
        if goals_met(coalition, leader, coalition + a_out, instance):
            best = cost if best is None else min(best, cost)
    return best


def borda_reference_optimum(instance):
    """The optimum over an unpruned (ka, k1) table of every voter's menu."""
    election = instance.election
    cells = {(0, 0): 0}
    placements = metered_placements(SearchBudget())
    for voter in range(election.num_voters):
        steps, _ = _voter_menu(instance, voter, placements)
        cells = min_plus(cells, steps)
    total = grand_total(election.num_voters, election.num_parties, ScoringRule.BORDA)
    return min(
        (c for (ka, k1), c in cells.items() if goals_met(ka, k1, total, instance)),
        default=None,
    )


FAMILIES = [
    (ScoringRule.PLURALITY, thresholded, kind, cbp, PLURALITY_DP, 8, 6)
    for thresholded in (True, False)
    for kind in ("unit", "dollar")
    for cbp in (False, True)
] + [
    (ScoringRule.BORDA, False, kind, cbp, BORDA_DP, 6, 4)
    for kind in ("unit", "dollar", "shift")
    for cbp in (False, True)
]


@pytest.mark.parametrize(
    "rule, thresholded, kind, cbp, solver, max_voters, max_parties",
    FAMILIES,
    ids=[
        f"{f[0].value}-{'t' if f[1] else '0'}-{f[2]}-{'cbp' if f[3] else 'cb'}"
        for f in FAMILIES
    ],
)
def test_engine_optimum_matches_reference(
    rule, thresholded, kind, cbp, solver, max_voters, max_parties
):
    reference = (
        dp_reference_optimum if solver == PLURALITY_DP else borda_reference_optimum
    )
    solve = solver_for(solver, SearchBudget())
    rng = random.Random(f"table:{rule.value}:{thresholded}:{kind}:{cbp}")
    checked = 0
    while checked < CASES:
        inst = random_problem(rng, rule, thresholded, kind, cbp,
                              max_voters=max_voters, max_parties=max_parties)
        if check_goals(inst.election.orders, inst):
            continue
        checked += 1
        optimum = reference(inst)
        plan = solve(inst, None)
        assert (None if plan is None else plan.cost) == optimum
        if optimum is not None:
            assert solve(inst, optimum).cost == optimum
            assert solve(inst, optimum - 1) is None


def test_dp_cells_are_the_front_of_the_reference():
    rng = random.Random("table:dp-cells")
    for _ in range(40):
        cbp = rng.random() < 0.5
        inst = random_problem(rng, ScoringRule.PLURALITY, True, "dollar", cbp,
                              max_voters=8)
        table, cells = dp_reference_cells(inst)
        assert table.cells == front({table.pack(*k): c for k, c in cells.items()})

