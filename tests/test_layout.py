"""Every function, class and method in the package is reached by product code.

A name defined in `src/coalition_bribery/` must occur as a NAME token at
least once more, beyond its definition, somewhere in the package,
`perfbench/` or `scripts/`.  Tokens in strings, docstrings and comments do
not count, and neither do the tests: a helper only tests call belongs in
`tests/conftest.py`.

And one place judges a plan: only `dispatch.py` raises `WitnessError`; one
place maps an error to its exit code, `cli.main`; and no engine falls back
to a default expansion meter.
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


def test_only_main_and_crossval_handle_errors_in_cli():
    # `cli.main` maps every error to its exit code; crossval only adds the
    # variant, index or dump path to the error it passes on.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = {
        node.name: sum(isinstance(inner, ast.ExceptHandler) for inner in ast.walk(node))
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert sorted(name for name, count in handlers.items() if count) == [
        "_cmd_crossval", "main",
    ]
    assert sum(handlers.values()) == sum(
        isinstance(node, ast.ExceptHandler) for node in ast.walk(tree)
    )


def test_no_fallback_search_meter():
    # Every meter is built from the budget its solve was given.
    assert [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if "_Meter(SearchBudget()" in path.read_text()
    ] == []
