"""The min-cost table kernel (front, combine, trace), and both engines built
on it against a plain unpruned min-plus reference on seeded small instances."""

import random
from math import inf

import pytest

from coalition_bribery.borda import _VoterMenu
from coalition_bribery.core import ScoringRule, check_goals, goals_met, grand_total
from coalition_bribery.costs import WitnessError
from coalition_bribery.dispatch import BORDA_DP, PLURALITY_DP, solver_for
from coalition_bribery.oracle import SearchBudget
from coalition_bribery.plurality_dp import _Table
from coalition_bribery.table import combine, front, trace

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

    def test_missing_the_origin_raises(self):
        with pytest.raises(WitnessError):
            trace([{(2, 1): (1, 1)}], (2, 1))


def dp_reference_cells(instance):
    """The DP's unpruned (g, a_out, a_rest) table, with the leader's count
    kept non-negative."""
    table = _Table(instance, None)
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
    for voter in range(election.num_voters):
        menu = _VoterMenu(instance, voter).costs
        cells = min_plus(
            cells, {(k_rest + k1, k1): c for (k_rest, k1), c in menu.items()}
        )
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

