"""Instance file format: round trips and line-anchored diagnostics."""

import pytest
from hypothesis import given, settings, strategies as st

from coalition_bribery.core import ScoringRule
from coalition_bribery.generators import POLYNOMIAL_VARIANTS, Variant, random_instance
from coalition_bribery.instance_io import (
    InstanceParseError,
    parse_exact_cover,
    parse_instance,
    parse_min_bisection,
    serialize_instance,
)
from coalition_bribery.sample_instances import (
    sixteen_voter_shift_cbp,
    three_party_dollar_cbp,
    unanimous_four_party_borda_cb,
)

BASIC = """\
rule: plurality
threshold: 1/5
phi: 1/2
rho: 0/1
budget: 3
parties: X Y Z
coalition: X Y
cost: unit
voter v1: X Y Z
voter v2: Z Y X
"""


def test_parse_basic():
    inst = parse_instance(BASIC)
    assert inst.rule is ScoringRule.PLURALITY
    assert inst.election.voters == ("v1", "v2")
    assert inst.preferred is None


def test_round_trip_fixtures():
    for inst in (
        three_party_dollar_cbp(7),
        sixteen_voter_shift_cbp(3),
        unanimous_four_party_borda_cb(1),
    ):
        text = serialize_instance(inst)
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text


def test_round_trip_random_instances():
    variants = list(POLYNOMIAL_VARIANTS) + [
        Variant(ScoringRule.BORDA, True, "swap", True),
        Variant(ScoringRule.PLURALITY, True, "swap", False),
    ]
    for i, variant in enumerate(variants):
        inst = random_instance(variant, seed=77, index=i)
        text = serialize_instance(inst)
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text


def test_comments_and_blanks_are_ignored():
    text = "# header\n\n" + BASIC
    assert parse_instance(text) == parse_instance(BASIC)


@pytest.mark.parametrize(
    "mutation, bad_line",
    [
        (("voter v2: Z Y X", "voter v2: Z Y Y"), 10),
        (("voter v2: Z Y X", "voter v2: Z Y Q"), 10),
        (("threshold: 1/5", "threshold: fast"), 2),
        (("voter v1: X Y Z", "voter v1: X Y"), 9),
    ],
)
def test_errors_carry_line_numbers(mutation, bad_line):
    old, new = mutation
    text = BASIC.replace(old, new)
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text)
    assert err.value.line == bad_line


@pytest.mark.parametrize(
    "mutation, bad_line",
    [
        (("threshold: 1/5", "threshold: -1/2"), 2),
        (("phi: 1/2", "phi: 3/2"), 3),
        (("rho: 0/1", "rho: 3/2"), 4),
        (("budget: 3", "budget: -1"), 5),
        (("coalition: X Y", "coalition: X X"), 7),
        (("coalition: X Y\npreferred: X", "coalition:"), 7),
    ],
)
def test_range_errors_carry_their_key_line(mutation, bad_line):
    old, new = mutation
    text = BASIC.replace("cost: unit", "preferred: X\ncost: unit").replace(old, new)
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text)
    assert err.value.line == bad_line
    assert str(err.value).startswith(f"line {bad_line}: ")


SWAP = BASIC.replace("cost: unit", "cost: swap").replace(
    "voter v2: Z Y X",
    "swap v1: X>Y=1 Y>X=1 X>Z=1 Z>X=1 Y>Z=1 Z>Y=1\n"
    "voter v2: Z Y X\n"
    "swap v2: X>Y=1 Y>X=1 X>Z=1 Z>X=1 Y>Z=1",
)
SWAP_V2 = "swap v2: X>Y=1 Y>X=1 X>Z=1 Z>X=1 Y>Z=1 Z>Y=1"


def _with_cost(kind, v1, v2):
    """BASIC under cost model `kind`, with cost lines `v1` and `v2` after the
    two voter lines (lines 10 and 12)."""
    return BASIC.replace("cost: unit", f"cost: {kind}").replace(
        "voter v2: Z Y X", f"{v1}\nvoter v2: Z Y X\n{v2}"
    )


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_instance, BASIC.replace("rule: plurality", "rule: approval"),
         "line 1: bad rule 'approval'"),
        (parse_instance, BASIC.replace("threshold: 1/5", "threshold: fast"),
         "line 2: bad threshold 'fast'"),
        (parse_instance, BASIC.replace("phi: 1/2", "phi: 1/0"), "line 3: bad phi '1/0'"),
        (parse_instance, BASIC.replace("rho: 0/1", "rho: 0.5"), "line 4: bad rho '0.5'"),
        (parse_instance, BASIC.replace("budget: 3", "budget: 3.5"),
         "line 5: bad budget '3.5'"),
        (parse_instance, BASIC.replace("coalition: X Y", "coalition: X Q"),
         "line 7: unknown coalition party 'Q'"),
        (parse_instance, BASIC.replace("cost: unit", "preferred: Z\ncost: unit"),
         "line 8: preferred party 'Z' not in coalition"),
        (parse_instance, SWAP, "line 12: missing swap price for pair (Z, Y)"),
        (parse_instance, BASIC.replace("parties: X Y Z", "parties: X Y X"),
         "line 6: duplicate party names"),
        (parse_instance, BASIC.replace("parties: X Y Z", "parties:"),
         "line 6: no parties given"),
        (parse_instance, BASIC.split("voter v1")[0],
         "line 8: election needs at least one voter"),
        (parse_instance, BASIC.replace("voter v2: Z Y X", "bogus line"),
         "line 10: expected a 'voter <id>:' line, found 'bogus line'"),
        (parse_instance, BASIC.replace("voter v1:", "voter v/1:"),
         "line 9: bad voter id 'v/1'"),
        (parse_instance, _with_cost("dollar", "price v1: x", "price v2: 1"),
         "line 10: bad price 'x'"),
        (parse_instance, _with_cost("swap", "swap v1: X>Y=1 X-Z", SWAP_V2),
         "line 10: bad swap entry 'X-Z'"),
        (parse_instance, _with_cost("swap", "swap v1: X>X=1", SWAP_V2),
         "line 10: bad swap pair 'X>X=1'"),
        (parse_instance, _with_cost("shift", "shift v1: 0 1", "shift v2: 0 1 2 3"),
         "line 10: shift table of voter v1 must cover 0..3 inversions"),
        (parse_exact_cover, "# source\nuniverse: four\nsubset: 1 2 3 4\n",
         "line 2: bad universe 'four'"),
        (parse_min_bisection, "vertices: 4.0\nbound: 1\n", "line 1: bad vertices '4.0'"),
        (parse_min_bisection, "vertices: 4\nbound: one\n", "line 2: bad bound 'one'"),
    ],
    ids=["rule", "threshold", "phi", "rho", "budget", "unknown-coalition-party",
         "preferred-outside-coalition", "missing-swap-pair", "duplicate-parties",
         "no-parties", "no-voters", "not-a-voter-line", "voter-id", "price",
         "swap-entry", "swap-pair", "shift-table-length", "universe", "vertices",
         "bound"],
)
def test_rejections_point_at_their_line(parse, text, message):
    """The parser's own errors and the model's keyed errors alike name the
    line the offending value is on."""
    with pytest.raises(InstanceParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_cost_model_errors_point_at_the_cost_line():
    text = BASIC.replace("cost: unit", "cost: dollar").replace(
        "voter v2: Z Y X", "price v1: 1\nvoter v2: Z Y X\nprice v2: -4"
    )
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text)
    assert err.value.line == 12 and "non-negative" in str(err.value)


@pytest.mark.parametrize("kind, v1, v2, message", [
    ("dollar", "price v1: 1", "price v2: -3", "line 12: prices must be non-negative"),
    ("shift", "shift v1: 0 1 2 3", "shift v2: 0 5 2 3",
     "line 12: shift tables must be non-decreasing"),
], ids=["price", "shift"])
def test_per_voter_cost_errors_name_the_voters_line(kind, v1, v2, message):
    with pytest.raises(InstanceParseError) as err:
        parse_instance(_with_cost(kind, v1, v2))
    assert str(err.value) == message


_KEY_PREFIXES = [
    "rule: ", "threshold: ", "phi: ", "rho: ", "budget: ", "parties: ",
    "coalition: ", "preferred: ", "cost: ", "voter v1: ", "voter v2: ",
    "price v1: ", "swap v1: ", "shift v1: ", "shift v1: slope ", "# ", "",
]
_TRICKY_VALUES = ["X", "X X", "X Y Z", "Q", "", "1/0", "-1", "-1/2", "3/2",
                  "dollar", "shift", "X>Y=1", "0 2 1", "9" * 20]
_value = st.one_of(st.text(max_size=12), st.sampled_from(_TRICKY_VALUES))
_line = st.one_of(
    st.sampled_from(BASIC.splitlines()),
    st.builds(str.__add__, st.sampled_from(_KEY_PREFIXES), _value),
)


def _edit_values(edits) -> str:
    """BASIC with the values after some lines' keys replaced."""
    lines = BASIC.splitlines()
    for index, value in edits:
        key = lines[index].split(":", 1)[0]
        lines[index] = f"{key}: {value}"
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.lists(_line, max_size=14).map("\n".join),
        st.lists(
            st.tuples(st.integers(0, len(BASIC.splitlines()) - 1), _value),
            min_size=1, max_size=3,
        ).map(_edit_values),
    )
)
def test_arbitrary_text_raises_only_parse_errors(text):
    try:
        parse_instance(text)
    except InstanceParseError:
        pass


def test_every_tricky_value_on_every_line_raises_only_parse_errors():
    for index in range(len(BASIC.splitlines())):
        for value in _TRICKY_VALUES:
            try:
                parse_instance(_edit_values([(index, value)]))
            except InstanceParseError:
                pass


def test_duplicate_voter_rejected():
    text = BASIC.replace("voter v2: Z Y X", "voter v1: Z Y X")
    with pytest.raises(InstanceParseError):
        parse_instance(text)


def test_missing_swap_pair_rejected():
    text = """\
rule: borda
threshold: 0/1
phi: 1/2
rho: 0/1
budget: 3
parties: a b
coalition: a
cost: swap
voter v1: a b
swap v1: a>b=1
"""
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text)
    assert "b" in str(err.value)


def test_duplicate_swap_pair_rejected():
    text = BASIC.replace("cost: unit", "cost: swap").replace(
        "voter v2: Z Y X",
        "swap v1: X>Y=1 Y>X=2 X>Y=5 X>Z=1 Z>X=1 Y>Z=1 Z>Y=1\nvoter v2: Z Y X",
    )
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text)
    assert str(err.value) == "line 10: duplicate swap pair 'X>Y=5'"


def test_preferred_outside_coalition_rejected():
    text = BASIC.replace("cost: unit", "preferred: Z\ncost: unit")
    with pytest.raises(InstanceParseError):
        parse_instance(text)


def test_shift_slope_shorthand():
    text = """\
rule: plurality
threshold: 0/1
phi: 1/2
rho: 0/1
budget: 3
parties: a b c
coalition: a
cost: shift
voter v1: c b a
shift v1: slope 2
"""
    inst = parse_instance(text)
    assert inst.cost_model.tables[0] == (0, 2, 4, 6)
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text.replace("slope 2", "slope 2 junk 9"))
    assert str(err.value) == "line 10: bad shift table 'slope 2 junk 9'"


def test_exact_cover_source_format():
    text = "universe: 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\n"
    x = parse_exact_cover(text)
    assert x.universe_size == 4 and len(x.subsets) == 3
    with pytest.raises(InstanceParseError):
        parse_exact_cover("universe: 4\nsubset: 1 2 3\n")


def test_min_bisection_source_format():
    text = "vertices: 4\nbound: 1\nedge: 1 2\nedge: 3 4\n"
    x = parse_min_bisection(text)
    assert x.num_vertices == 4 and x.bound == 1 and len(x.edges) == 2
    with pytest.raises(InstanceParseError):
        parse_min_bisection("vertices: 3\nbound: 0\n")


@pytest.mark.parametrize("rho", ["3/2", "-1/2"])
def test_rho_out_of_range_without_preferred(rho):
    with pytest.raises(InstanceParseError) as err:
        parse_instance(BASIC.replace("rho: 0/1", f"rho: {rho}"))
    assert err.value.line == 4 and "rho must lie in [0, 1]" in str(err.value)


def test_rho_in_range_without_preferred_reads_as_zero():
    assert parse_instance(BASIC.replace("rho: 0/1", "rho: 1/2")).rho == 0


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("universe: 4\nsubset: 1 2 3 4\nsubset: 1 2 3 9\nsubset: 1 2 3 4\n", 3),
        ("universe: 4\nsubset: 1 2 3 4\nsubset: 1 2 3 4\nsubset: 1 1 2 3\n", 4),
        ("# source\nuniverse: 4\nsubset: 1 2 3 4\n", 2),
        ("universe: 8\n" + "subset: 1 2 3 4\n" * 6, 1),
    ],
    ids=["outside-element", "repeated-element", "subset-count", "element-count"],
)
def test_exact_cover_errors_carry_their_line(text, bad_line):
    with pytest.raises(InstanceParseError) as err:
        parse_exact_cover(text)
    assert str(err.value).startswith(f"line {bad_line}: ")


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("vertices: 3\nbound: 0\n", 1),
        ("vertices: 4\nbound: -1\n", 2),
        ("vertices: 4\nbound: 1\nedge: 1 2\nedge: 3 3\nedge: 2 4\n", 4),
        ("vertices: 4\nbound: 1\nedge: 1 2\n\nedge: 2 7\n", 5),
    ],
    ids=["odd-vertices", "negative-bound", "loop", "outside-vertex"],
)
def test_min_bisection_errors_carry_their_line(text, bad_line):
    with pytest.raises(InstanceParseError) as err:
        parse_min_bisection(text)
    assert str(err.value).startswith(f"line {bad_line}: ")
