"""CLI subcommands, exit statuses, and dispatch routing."""

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coalition_bribery.cli as cli
import coalition_bribery.dispatch as dispatch_module
from coalition_bribery.core import DomainError, PreferenceOrder, ScoringRule, check_goals
from coalition_bribery.costs import BribePlan, WitnessError, lift_to_top
from coalition_bribery.dispatch import (
    BORDA_DP,
    CROSSVAL_VARIANTS,
    ORACLE,
    PLURALITY_DP,
    PLURALITY_FLOW,
    dispatch,
    solve_capped,
    solve_instance,
)
from coalition_bribery.generators import POLYNOMIAL_VARIANTS, Variant, random_instance
from coalition_bribery.instance_io import (
    parse_exact_cover,
    parse_instance,
    parse_min_bisection,
    serialize_instance,
)
from coalition_bribery.reductions import (
    ExactCover34Instance,
    reduce_minbisection_to_borda_swap_cb,
    reduce_x3c_to_borda_unit_cb,
    reduce_x3c_to_plurality_shift_cb,
)
from coalition_bribery.sample_instances import (
    three_party_dollar_cbp,
    three_party_unit_cb,
)

from conftest import unmet_case

EXPECTED_ROUTES = {
    ("plurality", False, "unit"): PLURALITY_DP,
    ("plurality", False, "dollar"): PLURALITY_DP,
    ("plurality", False, "swap"): PLURALITY_FLOW,
    ("plurality", False, "shift"): PLURALITY_FLOW,
    ("plurality", True, "unit"): PLURALITY_DP,
    ("plurality", True, "dollar"): PLURALITY_DP,
    ("plurality", True, "swap"): ORACLE,
    ("plurality", True, "shift"): ORACLE,
    ("borda", False, "unit"): BORDA_DP,
    ("borda", False, "dollar"): BORDA_DP,
    ("borda", False, "swap"): BORDA_DP,
    ("borda", False, "shift"): BORDA_DP,
    ("borda", True, "unit"): ORACLE,
    ("borda", True, "dollar"): ORACLE,
    ("borda", True, "swap"): ORACLE,
    ("borda", True, "shift"): ORACLE,
}


def test_dispatch_covers_every_variant():
    for (rule_name, thresholded, bribery), expected in EXPECTED_ROUTES.items():
        for with_preferred in (False, True):
            variant = Variant(
                ScoringRule(rule_name), thresholded, bribery, with_preferred
            )
            inst = random_instance(variant, seed=5, index=0)
            assert dispatch(inst) == expected, variant.label()
    # The routing table holds exactly the polynomial cells, and crossval
    # covers each of them in both goal shapes.
    routed = {
        (ScoringRule(rule_name), thresholded, bribery): solver
        for (rule_name, thresholded, bribery), solver in EXPECTED_ROUTES.items()
        if solver != ORACLE
    }
    assert dispatch_module.ROUTES == routed
    assert len(CROSSVAL_VARIANTS) == 2 * len(routed)
    assert set(CROSSVAL_VARIANTS) == {
        Variant(*cell, with_preferred)
        for cell in routed for with_preferred in (False, True)
    }
    assert set(POLYNOMIAL_VARIANTS) <= set(CROSSVAL_VARIANTS)


def _unmet_instance(variant):
    """The first seeded instance of `variant` whose goals are unmet."""
    for index in itertools.count():
        inst = random_instance(variant, seed=5, index=index)
        if not check_goals(inst.election.orders, inst):
            return inst


def test_solve_capped_refuses_a_solver_for_a_cell_it_does_not_serve():
    refused = set()
    for (rule_name, thresholded, bribery), routed in EXPECTED_ROUTES.items():
        for with_preferred in (False, True):
            variant = Variant(ScoringRule(rule_name), thresholded, bribery, with_preferred)
            inst = _unmet_instance(variant)
            for name in (PLURALITY_DP, PLURALITY_FLOW, BORDA_DP):
                if name == routed:
                    continue
                with pytest.raises(DomainError) as info:
                    solve_capped(name, inst, None)
                assert name in str(info.value)
                assert inst.variant.label() in str(info.value)
                refused.add((name, rule_name, thresholded, bribery))
    assert len(refused) == 38


def _run_cli(command, stdout, cwd):
    """The CLI run as its own process, with `stdout` as its standard output,
    block-buffered as by default: a failed flush keeps the unwritten text."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "coalition_bribery.cli", *command],
        stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=cwd,
        env=env, timeout=120,
    )


@pytest.mark.parametrize("command", [["gen"], ["crossval", "--count", "1"]])
def test_closed_stdout_exits_two_without_traceback(command, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _run_cli(command, write_end, tmp_path)
    finally:
        os.close(write_end)
    assert result.returncode == cli.EXIT_INPUT_ERROR
    assert result.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("command", [
    ["solve", "instance.txt"],
    ["oracle", "instance.txt"],
    ["gen"],
    ["reduce", "x3c-borda-unit", "cover.txt"],
    ["crossval", "--count", "1"],
], ids=lambda command: command[0])
def test_full_stdout_exits_two_with_one_error_line(command, tmp_path):
    # Every write to /dev/full fails with "no space left on device".
    (tmp_path / "instance.txt").write_text(serialize_instance(three_party_unit_cb(5)))
    (tmp_path / "cover.txt").write_text(
        "universe: 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\n"
    )
    with open("/dev/full", "w") as full:
        result = _run_cli(command, full, tmp_path)
    assert result.returncode == cli.EXIT_INPUT_ERROR
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


def write(tmp_path, name, instance):
    path = tmp_path / name
    path.write_text(serialize_instance(instance))
    return str(path)


def test_solve_feasible_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "a.txt", three_party_dollar_cbp(7))
    assert cli.main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "feasible: yes" in out and "cost: 7" in out


def test_solve_infeasible_exit_one(tmp_path, capsys):
    path = write(tmp_path, "b.txt", three_party_dollar_cbp(6))
    assert cli.main(["solve", path]) == 1
    assert "feasible: no" in capsys.readouterr().out


def test_solve_json_format(tmp_path, capsys):
    path = write(tmp_path, "c.txt", three_party_unit_cb(5))
    assert cli.main(["solve", path, "--format", "json", "--emit-witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["cost"] == 5
    assert payload["solver"] == PLURALITY_DP
    assert len(payload["witness"]) == 5


REPORT_KEYS = [
    "variant", "solver", "feasible", "cost", "time_seconds",
    "scores_before", "scores_after", "seats_before", "seats_after", "witness",
]


@pytest.mark.parametrize("budget, status", [(7, 0), (6, 1)])
def test_text_report_prints_the_json_payload(tmp_path, capsys, budget, status):
    path = write(tmp_path, "r.txt", three_party_dollar_cbp(budget))
    assert cli.main(["solve", path, "--format", "json", "--emit-witness"]) == status
    payload = json.loads(capsys.readouterr().out)
    # An infeasible answer has no plan: no witness, and null "after" fields,
    # which the text skips.
    assert list(payload) == (REPORT_KEYS if status == 0 else REPORT_KEYS[:-1])
    witness = payload.pop("witness", {})
    assert len(witness) == (5 if status == 0 else 0)
    assert (payload["scores_after"] is None) == (payload["cost"] is None) == bool(status)
    assert cli.main(["solve", path, "--emit-witness"]) == status
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("witness: ")] == [
        f"witness: {voter} -> {ranking}" for voter, ranking in witness.items()
    ]
    fields = [line.partition(": ") for line in lines if not line.startswith("witness: ")]
    assert [label for label, _, _ in fields] == [
        key.replace("_", "-") for key, value in payload.items() if value is not None
    ]
    for label, _, text in fields:
        value = payload[label.replace("-", "_")]
        if isinstance(value, bool):
            assert text == ("yes" if value else "no")
        elif isinstance(value, dict):
            assert text == " ".join(f"{p}={v}" for p, v in value.items())
        elif label == "time-seconds":
            assert float(text) >= 0
        else:
            assert text == str(value)


def test_malformed_instance_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    good = serialize_instance(three_party_unit_cb(5))
    path.write_text(good.replace("voter v1: X Y Z", "voter v1: X Y X", 1))
    assert cli.main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_bad_voter_id_exit_two(tmp_path, capsys):
    path = tmp_path / "bad-id.txt"
    good = serialize_instance(three_party_unit_cb(5))
    path.write_text(good.replace("voter v1:", "voter v/1:", 1))
    assert cli.main(["solve", str(path)]) == 2
    assert "line 9: bad voter id 'v/1'" in capsys.readouterr().err


def test_oracle_refusal_exit_three(tmp_path, capsys):
    x4 = ExactCover34Instance(4, ((1, 2, 3, 4),) * 3)
    path = write(tmp_path, "big.txt", reduce_x3c_to_borda_unit_cb(x4))
    assert cli.main(["oracle", str(path)]) == 3
    assert "expansions" in capsys.readouterr().err


def _over_budget_engine(instance, cap, budget=None, stats=None):
    """A broken engine: it buys every Z voter, far beyond the cap, and
    states that cost truthfully."""
    orders = instance.election.orders
    replacements = {
        i: lift_to_top(order, "X")
        for i, order in enumerate(orders) if order.top() == "Z"
    }
    return BribePlan(replacements, len(replacements))


def _break_engines(monkeypatch):
    for engine in dispatch_module.ENGINES.values():
        monkeypatch.setattr(dispatch_module, engine, _over_budget_engine)


def test_met_goals_answer_only_within_a_non_negative_cap():
    inst = random_instance(Variant(ScoringRule.PLURALITY, True, "unit", False), 1, 0)
    assert check_goals(inst.election.orders, inst)
    for name in dispatch_module.ENGINES:
        assert solve_capped(name, inst, -1) is None
        assert solve_capped(name, inst, 0) == BribePlan.empty()


def test_failed_witness_raises_witness_error(monkeypatch):
    _break_engines(monkeypatch)
    with pytest.raises(WitnessError):
        solve_instance(three_party_unit_cb(5))


def test_failed_witness_exit_four(tmp_path, capsys, monkeypatch):
    _break_engines(monkeypatch)
    instance = three_party_unit_cb(5)
    path = write(tmp_path, "w.txt", instance)
    for command, engine in (("solve", dispatch(instance)), ("oracle", ORACLE)):
        assert cli.main([command, path]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {engine} emitted a plan for {instance.variant.label()}"
            " that fails verification\n"
        )
        assert captured.out == ""


# One variant per solver that `solve` routes to it.
CORRUPTIBLE = {
    PLURALITY_DP: Variant(ScoringRule.PLURALITY, True, "unit", False),
    PLURALITY_FLOW: Variant(ScoringRule.PLURALITY, False, "swap", True),
    BORDA_DP: Variant(ScoringRule.BORDA, False, "unit", True),
    ORACLE: Variant(ScoringRule.PLURALITY, True, "swap", False),
}


def _overstate_cost(plan):
    return BribePlan(plan.replacements, plan.cost + 1)


def _drop_a_replacement(plan):
    replacements = dict(plan.replacements)
    replacements.popitem()
    return BribePlan(replacements, plan.cost)


def _move_to_an_unknown_voter(plan):
    replacements = dict(plan.replacements)
    _, order = replacements.popitem()
    replacements[100] = order
    return BribePlan(replacements, plan.cost)


def _rank_a_foreign_party(plan):
    replacements = dict(plan.replacements)
    voter, order = replacements.popitem()
    replacements[voter] = PreferenceOrder((*order.ranking[:-1], "stranger"))
    return BribePlan(replacements, plan.cost)


@pytest.mark.parametrize(
    "corrupt",
    [_overstate_cost, _drop_a_replacement, _move_to_an_unknown_voter, _rank_a_foreign_party],
    ids=["cost-plus-one", "replacement-dropped", "unknown-voter", "foreign-party"],
)
@pytest.mark.parametrize("name", list(CORRUPTIBLE))
def test_a_corrupted_plan_is_caught_by_solve_capped(name, corrupt, tmp_path, capsys,
                                                    monkeypatch):
    # Every price is at least 1, so a dropped replacement changes the cost.
    instance = unmet_case(CORRUPTIBLE[name], 6, 3, 2)
    assert dispatch(instance) == name
    engine = getattr(dispatch_module, dispatch_module.ENGINES[name])

    def corrupted(*args, **kwargs):
        plan = engine(*args, **kwargs)
        assert plan is not None and plan.replacements
        return corrupt(plan)

    monkeypatch.setattr(dispatch_module, dispatch_module.ENGINES[name], corrupted)
    with pytest.raises(WitnessError):
        solve_capped(name, instance, instance.budget)
    assert cli.main(["solve", write(tmp_path, "c.txt", instance)]) == 4
    assert "fails verification" in capsys.readouterr().err


def test_crossval_all_agree(tmp_path, capsys):
    code = cli.main(
        ["crossval", "--seed", "1", "--count", "3",
         "--artifact-dir", str(tmp_path / "artifacts")]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("variant")]
    assert len(lines) == 20
    assert all(line.endswith("3 3") for line in lines)


def test_crossval_zero_count(tmp_path, capsys):
    code = cli.main(
        ["crossval", "--seed", "1", "--count", "0",
         "--artifact-dir", str(tmp_path / "artifacts")]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("variant")]
    assert all(line.endswith("0 0") for line in lines)


def test_crossval_detects_corrupted_solver(tmp_path, capsys, monkeypatch):
    def lying_solver_for(name, budget):
        return lambda instance, cap: None

    monkeypatch.setattr(cli, "solver_for", lying_solver_for)
    code = cli.main(
        ["crossval", "--seed", "1", "--count", "2",
         "--artifact-dir", str(tmp_path / "artifacts")]
    )
    assert code == 1
    dumps = list((tmp_path / "artifacts").glob("disagreement-*.txt"))
    assert dumps, "expected a replayable disagreement artifact"
    err = capsys.readouterr().err
    assert "disagreement" in err


def test_crossval_detects_a_solver_that_ignores_its_cap(tmp_path, capsys, monkeypatch):
    real = cli.solver_for

    def uncapped_solver_for(name, budget):
        solve = real(name, budget)
        return lambda instance, cap: solve(instance, None)

    monkeypatch.setattr(cli, "solver_for", uncapped_solver_for)
    code = cli.main(
        ["crossval", "--seed", "1", "--count", "2",
         "--artifact-dir", str(tmp_path / "artifacts")]
    )
    assert code == 1
    assert list((tmp_path / "artifacts").glob("disagreement-*.txt"))
    assert "disagreement" in capsys.readouterr().err


def test_crossval_witness_error_is_a_disagreement(tmp_path, capsys, monkeypatch):
    def failing_solver_for(name, budget):
        def solve(instance, cap):
            raise WitnessError("solver emitted a plan that misses the goals")
        return solve

    monkeypatch.setattr(cli, "solver_for", failing_solver_for)
    code = cli.main(
        ["crossval", "--seed", "1", "--count", "1",
         "--artifact-dir", str(tmp_path / "artifacts")]
    )
    assert code == 1
    assert list((tmp_path / "artifacts").glob("disagreement-*.txt"))
    err = capsys.readouterr().err
    assert "disagreement" in err and "misses the goals" in err


def test_crossval_refusal_exit_three(tmp_path, capsys):
    code = cli.main(
        ["crossval", "--seed", "1", "--count", "2", "--max-expansions", "5",
         "--artifact-dir", str(tmp_path / "artifacts")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: Plurality_t-CB/unit index 1: exact search")
    assert "Traceback" not in err


def test_crossval_refusal_by_the_routed_solver_exit_three(tmp_path, capsys):
    # The exact search answers this all-party Borda_0 coalition at m = 4
    # within 28 expansions, but its Borda menu's floor is 32.
    code = cli.main(
        ["crossval", "--seed", "5", "--count", "10", "--max-voters", "1",
         "--max-parties", "4", "--max-expansions", "28",
         "--artifact-dir", str(tmp_path / "artifacts")]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "refused: Borda_0-CBP/unit index 2: Borda menu placement needs more "
        "than 28 expansions (stopped at 32)\n"
    )
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize("command", ["solve", "oracle", "reduce"])
def test_non_utf8_file_exit_two(tmp_path, capsys, command):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe\x00bad")
    argv = [command, str(path)]
    if command == "reduce":
        argv.insert(1, "x3c-borda-unit")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, value, commands", [
    ("--max-voters", "0", ("gen", "crossval")),
    ("--max-parties", "1", ("gen", "crossval")),
    ("--max-price", "-1", ("gen", "crossval")),
    ("--budget", "-1", ("gen",)),
])
def test_impossible_generator_size_is_a_usage_error(capsys, flag, value, commands):
    for command in commands:
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["crossval", "--count", "-2"],
    ["solve", "instance.txt", "--max-expansions", "-1"],
])
def test_negative_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[-2]}: must be at least 0" in capsys.readouterr().err


def test_reduce_and_solve_pipeline(tmp_path, capsys):
    source = tmp_path / "cover.txt"
    source.write_text("universe: 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\n")
    out_path = tmp_path / "reduced.txt"
    assert cli.main(["reduce", "x3c-plurality-shift", str(source),
                     "--output", str(out_path)]) == 0
    assert cli.main(["solve", str(out_path)]) == 0


X3C_SOURCE = "universe: 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\n"
BISECTION_SOURCE = "vertices: 4\nbound: 1\nedge: 1 2\nedge: 3 4\nedge: 2 3\n"
REDUCE_KINDS = {
    "x3c-plurality-shift": (X3C_SOURCE, parse_exact_cover, reduce_x3c_to_plurality_shift_cb),
    "x3c-borda-unit": (X3C_SOURCE, parse_exact_cover, reduce_x3c_to_borda_unit_cb),
    "bisection-borda-swap": (BISECTION_SOURCE, parse_min_bisection,
                             reduce_minbisection_to_borda_swap_cb),
}


@pytest.mark.parametrize("kind", REDUCE_KINDS)
def test_reduce_writes_the_direct_image(tmp_path, kind):
    source, parse_source, reduce = REDUCE_KINDS[kind]
    source_path, out_path = tmp_path / "source.txt", tmp_path / "image.txt"
    source_path.write_text(source)
    assert cli.main(["reduce", kind, str(source_path), "--output", str(out_path)]) == 0
    assert out_path.read_text() == serialize_instance(reduce(parse_source(source)))


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write(tmp_path, "a.txt", three_party_dollar_cbp(7))
    assert cli.main(["solve", path]) == 0
    assert cli.main(["oracle", path]) == 0
    assert cli.main(["gen"]) == 0
    assert built == []


def test_gen_options_do_not_leak_into_the_next_call(capsys):
    assert cli.main(["gen", "--budget", "3"]) == 0
    assert "budget: 3\n" in capsys.readouterr().out
    assert cli.main(["gen"]) == 0
    worst_case = random_instance(Variant(ScoringRule.PLURALITY, False, "unit", False), 1, 0)
    assert parse_instance(capsys.readouterr().out).budget == worst_case.budget != 3


def test_gen_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--rule", "borda", "--bribery", "shift", "--preferred",
            "--seed", "9", "--index", "2"]
    assert cli.main(args + ["--output", str(a)]) == 0
    assert cli.main(args + ["--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_out_of_range_rho_without_preferred_exit_two(tmp_path, capsys):
    path = tmp_path / "rho.txt"
    text = serialize_instance(three_party_unit_cb(5))
    path.write_text(text.replace("rho: 0/1", "rho: 3/2", 1))
    assert cli.main(["solve", str(path)]) == 2
    assert "line 4: rho must lie in [0, 1]" in capsys.readouterr().err


def test_reduce_reports_the_offending_subset_line(tmp_path, capsys):
    source = tmp_path / "cover.txt"
    source.write_text("universe: 4\nsubset: 1 2 3 4\nsubset: 1 2 3 9\nsubset: 1 2 3 4\n")
    assert cli.main(["reduce", "x3c-borda-unit", str(source)]) == 2
    assert "line 3: element 9 outside the universe" in capsys.readouterr().err


def _unwritable(tmp_path, name):
    """A path whose parent is a regular file, so nothing can be written there."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker / name)


def test_gen_unwritable_output_exit_two(tmp_path, capsys):
    assert cli.main(["gen", "--output", _unwritable(tmp_path, "x.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "blocker" in captured.err


def test_reduce_unwritable_output_exit_two(tmp_path, capsys):
    source = tmp_path / "cover.txt"
    source.write_text("universe: 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\n")
    argv = ["reduce", "x3c-borda-unit", str(source),
            "--output", _unwritable(tmp_path, "y.txt")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "blocker" in captured.err


def test_crossval_unwritable_artifact_dir_exit_two(tmp_path, capsys, monkeypatch):
    _break_engines(monkeypatch)
    code = cli.main(
        ["crossval", "--seed", "1", "--count", "1",
         "--artifact-dir", _unwritable(tmp_path, "artifacts")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: disagreement on ") and "blocker" in err
