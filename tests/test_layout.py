"""Every function, class and method in the package is reached by product code.

A name defined in `src/coalition_bribery/` must occur as a NAME token at
least once more, beyond its definition, somewhere in the package,
`perfbench/` or `scripts/`.  Tokens in strings, docstrings and comments do
not count, and neither do the tests: a helper only tests call belongs in
`tests/conftest.py`.

And one place judges a plan: only `dispatch.py` raises `WitnessError`.
"""

import ast
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coalition_bribery"
PRODUCT = (PACKAGE, ROOT / "perfbench", ROOT / "scripts")


def _name_counts():
    counts = Counter()
    for directory in PRODUCT:
        for path in sorted(directory.rglob("*.py")):
            with tokenize.open(path) as f:
                counts.update(
                    tok.string for tok in tokenize.generate_tokens(f.readline)
                    if tok.type == tokenize.NAME
                )
    return counts


def _definitions():
    """(module, name) for each top-level function and class, and each
    non-dunder method of a top-level class, in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (path.stem, f"{node.name}.{item.name}") for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    return found


def test_every_definition_is_used_outside_tests():
    counts = _name_counts()
    unused = [
        f"{module}.{qualname}" for module, qualname in _definitions()
        if counts[qualname.rpartition(".")[2]] < 2
    ]
    assert unused == []


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_only_dispatch_raises_witness_error():
    # `dispatch.solve_capped` re-costs and re-checks every plan; no engine
    # or kernel judges its own witness.
    raisers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if any(isinstance(node, ast.Raise) and node.exc is not None
               and _raised_name(node) == "WitnessError"
               for node in ast.walk(ast.parse(path.read_text())))
    )
    assert raisers == ["dispatch.py"]
