"""Plain-text instance files: parsing with line-anchored errors, canonical
serialization, and parsing of the reduction source formats.

An instance file is line-oriented.  Keys before the voter block come in a
fixed order; every voter contributes a `voter` line and, depending on the
cost model, a matching `price`, `swap` or `shift` line:

    rule: plurality
    threshold: 1/5
    phi: 1/2
    rho: 61/100
    budget: 7
    parties: X Y Z
    coalition: X Y
    preferred: X
    cost: dollar
    voter v1: X Y Z
    price v1: 1

Swap lines price each ordered pair, `X>Y=2` meaning: moving Y from below X
to above X costs 2.  Shift lines carry either the full table `shift v1: 0 1
5` or `shift v1: slope 2`.  Blank lines and `#` comments are ignored when
parsing; the serializer emits neither, and serialize(parse(s)) is a fixed
point of parse/serialize.

The parsers only read, and every error names its line: a value that does
not convert is `bad <key> '<text>'`.  The models (`ProblemInstance`, its
cost model, the reduction sources) judge what values mean; their keyed
errors land on the key's line, a voter's on its cost line, and unkeyed
ones, such as a file without voters, on the `cost:` line.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from .core import DomainError, Election, PreferenceOrder, ProblemInstance, ScoringRule
from .costs import BRIBERY_KINDS, CostModel, DollarCost, ShiftCost, SwapCost, UnitCost
from .reductions import ExactCover34Instance, MinBisectionInstance

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
T = TypeVar("T")


class InstanceParseError(ValueError):
    """Parse failure with the 1-based line it occurred on."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class _Lines:
    def __init__(self, text: str):
        self.rows = [
            (i + 1, line.strip())
            for i, line in enumerate(text.splitlines())
            if line.strip() and not line.strip().startswith("#")
        ]
        self.pos = 0

    def peek(self) -> Optional[tuple[int, str]]:
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def next(self) -> tuple[int, str]:
        row = self.peek()
        if row is None:
            last = self.rows[-1][0] if self.rows else 1
            raise InstanceParseError(last, "unexpected end of file")
        self.pos += 1
        return row


def _value(lines: _Lines, key: str, read: Callable[[str], T] = str) -> tuple[int, T]:
    """The next line's number and `read` of its text after `key:`."""
    lineno, text = lines.next()
    prefix = key + ":"
    if not text.startswith(prefix):
        raise InstanceParseError(lineno, f"expected '{key}:', found {text!r}")
    text = text[len(prefix):].strip()
    try:
        return lineno, read(text)
    except (ValueError, ZeroDivisionError):
        raise InstanceParseError(lineno, f"bad {key} {text!r}") from None


def _names(text: str) -> tuple[str, ...]:
    names = tuple(text.split())
    if not all(NAME_RE.match(name) for name in names):
        raise ValueError(text)
    return names


def _edge(text: str) -> tuple[int, int]:
    u, v = map(int, text.split())
    return u, v


def parse_instance(text: str) -> ProblemInstance:
    """Parse an instance file; raises InstanceParseError with a line number."""
    lines = _Lines(text)
    key_lines: dict[str, int] = {}

    def value(key: str, read: Callable[[str], T] = str) -> T:
        key_lines[key], result = _value(lines, key, read)
        return result

    rule = value("rule", ScoringRule)
    threshold, phi, rho = (value(key, parse_rational) for key in ("threshold", "phi", "rho"))
    budget = value("budget", int)
    # Voter lines are checked against the party list, so it fails at its own line.
    parties = value("parties", _names)
    if not parties:
        raise InstanceParseError(key_lines["parties"], "no parties given")
    if len(set(parties)) != len(parties):
        raise InstanceParseError(key_lines["parties"], "duplicate party names")
    coalition = value("coalition", _names)
    preferred = None
    row = lines.peek()
    if row is not None and row[1].startswith("preferred:"):
        preferred = value("preferred")
    cost_kind = value("cost")
    if cost_kind not in BRIBERY_KINDS:
        raise InstanceParseError(key_lines["cost"], f"unknown cost model {cost_kind!r}")

    voters: list[str] = []
    orders: list[PreferenceOrder] = []
    voter_costs: list = []  # per voter: a price, a swap table or a shift table
    cost_label = "price" if cost_kind == "dollar" else cost_kind
    while lines.peek() is not None:
        lineno, text = lines.next()
        match = re.match(r"^voter\s+(\S+):\s*(.*)$", text)
        if not match:
            raise InstanceParseError(lineno, f"expected a 'voter <id>:' line, found {text!r}")
        voter_id = match.group(1)
        if not NAME_RE.match(voter_id):
            raise InstanceParseError(lineno, f"bad voter id {voter_id!r}")
        if voter_id in voters:
            raise InstanceParseError(lineno, f"duplicate voter {voter_id!r}")
        ranking = tuple(match.group(2).split())
        if sorted(ranking) != sorted(parties):
            raise InstanceParseError(
                lineno, f"order of voter {voter_id!r} is not a permutation of the parties"
            )
        voters.append(voter_id)
        orders.append(PreferenceOrder(ranking))
        if cost_kind != "unit":
            lineno, text = _value(lines, f"{cost_label} {voter_id}")
            key_lines[f"voter {voter_id}"] = lineno
        if cost_kind == "dollar":
            try:
                voter_costs.append(int(text))
            except ValueError:
                raise InstanceParseError(lineno, f"bad price {text!r}") from None
        elif cost_kind == "swap":
            table: dict[tuple[str, str], int] = {}
            for token in text.split():
                pair_match = re.match(r"^([^>=\s]+)>([^>=\s]+)=(\d+)$", token)
                if not pair_match:
                    raise InstanceParseError(lineno, f"bad swap entry {token!r}")
                upper, riser, price = pair_match.groups()
                if upper not in parties or riser not in parties or upper == riser:
                    raise InstanceParseError(lineno, f"bad swap pair {token!r}")
                if (upper, riser) in table:
                    raise InstanceParseError(lineno, f"duplicate swap pair {token!r}")
                table[(upper, riser)] = int(price)
            voter_costs.append(table)
        elif cost_kind == "shift":
            tokens = text.split()
            try:
                if tokens and tokens[0] == "slope":
                    (slope,) = map(int, tokens[1:])
                    voter_costs.append(
                        ShiftCost.multiplicative((slope,), len(parties)).tables[0]
                    )
                else:
                    voter_costs.append(tuple(int(v) for v in tokens))
            except (ValueError, IndexError):
                raise InstanceParseError(lineno, f"bad shift table {text!r}") from None

    if cost_kind == "unit":
        model: CostModel = UnitCost()
    else:
        cost_class = {"dollar": DollarCost, "swap": SwapCost, "shift": ShiftCost}[cost_kind]
        model = cost_class(tuple(voter_costs))
    try:
        election = Election(parties, tuple(voters), tuple(orders))
        return ProblemInstance(
            election=election,
            rule=rule,
            threshold=threshold,
            coalition=coalition,
            preferred=preferred,
            phi=phi,
            # Without a preferred party rho is moot: an in-range value reads as 0.
            rho=rho if preferred is not None or not 0 <= rho <= 1 else Fraction(0),
            budget=budget,
            cost_model=model,
        )
    except DomainError as exc:
        # Unkeyed errors (no voters, a cost model's shape) blame the cost line.
        raise InstanceParseError(key_lines.get(exc.key, key_lines["cost"]), str(exc)) from None


def serialize_instance(instance: ProblemInstance) -> str:
    """Canonical text form; parse(serialize(x)) == x."""
    election = instance.election
    for name in election.parties + election.voters:
        if not NAME_RE.match(name):
            raise DomainError(f"name {name!r} cannot be serialized")
    model = instance.cost_model
    out = [
        f"rule: {instance.rule.value}",
        f"threshold: {format_rational(instance.threshold)}",
        f"phi: {format_rational(instance.phi)}",
        f"rho: {format_rational(instance.rho)}",
        f"budget: {instance.budget}",
        "parties: " + " ".join(election.parties),
        "coalition: " + " ".join(instance.coalition),
    ]
    if instance.preferred is not None:
        out.append(f"preferred: {instance.preferred}")
    out.append(f"cost: {model.kind}")
    for i, voter in enumerate(election.voters):
        out.append(f"voter {voter}: " + " ".join(election.orders[i].ranking))
        if isinstance(model, DollarCost):
            out.append(f"price {voter}: {model.prices[i]}")
        elif isinstance(model, SwapCost):
            entries = " ".join(
                f"{a}>{b}={model.pair_prices[i][(a, b)]}"
                for a in election.parties
                for b in election.parties
                if a != b
            )
            out.append(f"swap {voter}: {entries}")
        elif isinstance(model, ShiftCost):
            out.append(
                f"shift {voter}: " + " ".join(str(v) for v in model.tables[i])
            )
    return "\n".join(out) + "\n"


def parse_exact_cover(text: str) -> ExactCover34Instance:
    """Source format: a `universe: n` line then one `subset:` line per subset."""
    lines = _Lines(text)
    key_lines: dict[str, int] = {}
    key_lines["universe"], n = _value(lines, "universe", int)
    subsets = []
    while lines.peek() is not None:
        key_lines[f"subset {len(subsets)}"], subset = _value(
            lines, "subset", lambda members: tuple(int(z) for z in members.split())
        )
        subsets.append(subset)
    try:
        return ExactCover34Instance(n, tuple(subsets))
    except DomainError as exc:
        raise InstanceParseError(key_lines[exc.key], str(exc)) from None


def parse_min_bisection(text: str) -> MinBisectionInstance:
    """Source format: `vertices:` and `bound:` lines then `edge: u v` lines."""
    lines = _Lines(text)
    key_lines: dict[str, int] = {}
    key_lines["vertices"], n = _value(lines, "vertices", int)
    key_lines["bound"], bound = _value(lines, "bound", int)
    edges = set()
    while lines.peek() is not None:
        lineno, (u, v) = _value(lines, "edge", _edge)
        key_lines.setdefault(f"edge {u} {v}", lineno)
        edges.add((u, v))
    try:
        return MinBisectionInstance(n, frozenset(edges), bound)
    except DomainError as exc:
        raise InstanceParseError(key_lines[exc.key], str(exc)) from None
