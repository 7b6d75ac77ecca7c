"""Spans and counters recorded from outside the package.

`Tracer.install` replaces public functions in the module namespace where
their callers look them up (for example `cli.solve_instance` and
`dispatch.solve_borda_zero`, not `dispatch.solve_instance` and
`borda.solve_borda_zero`), so each call opens a span and may bump counters.
`Tracer.uninstall` puts the originals back.  A name that no longer exists is
skipped and reported in `missing`; the metrics that depend on it are then
absent instead of wrong.

Spans are tuples (name, start, end, parent index) kept in a list; a span's
self time is its duration minus the part of it its direct children cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

PKG = "coalition_bribery"

# The solver each dispatch-level entry point stands for.
SOLVERS = {
    "solve_plurality_t_dollar": "plurality-threshold-dp",
    "solve_plurality_zero": "plurality-flow-solver",
    "solve_borda_zero": "borda-solvers",
    "solve_np_hard": "oracle-exact",
}
ENGINE_NAMESPACES = ("dispatch", "plurality_dp", "plurality_flow", "borda", "oracle")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its direct children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for index, (_name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._budget = None

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """`fn` wrapped so each call records a span named `name`; `after`
        sees (args, kwargs, result) of calls that return."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, module_name: str, attr: str, make) -> None:
        try:
            module = importlib.import_module(f"{PKG}.{module_name}")
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(original))
        self._installed.append((module, attr, original))

    def install(self) -> None:
        self._replace("cli", "main", lambda f: self.span("cli.main", f))
        self._replace("cli", "parse_instance",
                      lambda f: self.span("instance_io.parse_instance", f))
        self._replace("cli", "solve_instance",
                      lambda f: self.span("dispatch.solve_instance", f))
        for attr, solver in SOLVERS.items():
            self._replace("dispatch", attr,
                          lambda f, attr=attr, solver=solver:
                          self._solver(attr, solver, f))
        for ns in ENGINE_NAMESPACES:
            self._replace(ns, "check_goals",
                          lambda f: self.span("core.check_goals", f))
            self._replace(ns, "plan_cost",
                          lambda f: self.span("costs.plan_cost", f))
        for ns in ("costs", "plurality_flow", "oracle"):
            self._replace(ns, "bribe_cost",
                          lambda f: self.counter("costs.bribe_cost", f))
        self._replace("plurality_flow", "min_bribe_to_top",
                      lambda f: self.span("plurality_flow.min_bribe_to_top", f))
        self._replace("plurality_flow", "build_top_signature_network",
                      lambda f: self.span("plurality_flow.build_network", f))
        self._replace("plurality_flow", "min_cost_flow",
                      lambda f: self.span("flow.min_cost_flow", f, self._after_flow))
        for attr in ("price_menu", "shift_menu"):
            self._replace("borda", attr, lambda f: self.span("borda.menu", f))
        self._replace("borda", "accumulate_voter_tables",
                      lambda f: self.span("borda.accumulate_voter_tables", f))
        self._replace("oracle", "enumerate_voter_options",
                      lambda f: self.span("oracle.enumerate_voter_options", f,
                                          self._after_options))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- per-function hooks ------------------------------------------------

    def _solver(self, attr: str, solver: str, fn):
        """A solver entry point: span, call count, refusals, and the
        engine's own `stats` dict where its signature still takes one."""
        takes_stats = "stats" in inspect.signature(fn).parameters
        counts = self.counts

        def call(instance, *args, **kwargs):
            counts[f"dispatch.calls.{solver}"] += 1
            self._budget = instance.budget
            stats = {} if takes_stats and "stats" not in kwargs else None
            if stats is not None:
                kwargs["stats"] = stats
            try:
                result = fn(instance, *args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "OracleRefusal":
                    counts["oracle.refusals"] += 1
                raise
            finally:
                for key, value in (stats or {}).items():
                    counts[f"{solver}.stats.{key}"] += value
                counts[f"{solver}.stats_seen"] += stats is not None
            return result

        return self.span(f"dispatch.{attr}", call)

    def _after_flow(self, args, kwargs, flow) -> None:
        network = args[0] if args else kwargs["network"]
        self.counts["flow.edges_total"] += len(network.edges)
        if flow is not None and self._budget is not None and flow.cost <= self._budget:
            self.counts["flow.hits"] += 1

    def _after_options(self, args, kwargs, options) -> None:
        self.counts["oracle.options"] += len(options)

    # -- summary -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, Counter]:
        """Summed duration, summed self time and call count per span name."""
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _parent), self_s in zip(self.spans, self_times(self.spans)):
            incl[name] += end - start
            own[name] += self_s
            calls[name] += 1
        return incl, own, calls

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics one traced round yields; a metric whose
        wrapped name was missing is left out."""
        incl, own, calls = self.totals()
        counts = self.counts
        missing = set(self.missing)
        out: dict[str, float] = {}

        def put(metric, needs, value):
            if not missing & set(needs):
                out[metric] = value

        put("cli.self_s", ["cli.main"], own["cli.main"])
        put("instance_io.parse_s", ["cli.parse_instance"],
            incl["instance_io.parse_instance"])
        put("instance_io.parse_calls", ["cli.parse_instance"],
            calls["instance_io.parse_instance"])
        put("dispatch.verify_s", ["cli.solve_instance"],
            own["dispatch.solve_instance"])
        for attr, solver in SOLVERS.items():
            put(f"dispatch.calls.{solver}", [f"dispatch.{attr}"],
                counts[f"dispatch.calls.{solver}"])
        put("core.check_goals_s", ["dispatch.check_goals"], incl["core.check_goals"])
        put("core.check_goals_calls", ["dispatch.check_goals"],
            calls["core.check_goals"])
        put("costs.plan_cost_s", ["dispatch.plan_cost"], incl["costs.plan_cost"])

        dp, bo = SOLVERS["solve_plurality_t_dollar"], SOLVERS["solve_borda_zero"]
        put("plurality_dp.solve_s", ["dispatch.solve_plurality_t_dollar"],
            incl["dispatch.solve_plurality_t_dollar"])
        if counts[f"{dp}.stats_seen"] or not counts[f"dispatch.calls.{dp}"]:
            out["plurality_dp.table_cells"] = counts[f"{dp}.stats.table_cells"]
            out["plurality_dp.signatures"] = counts[f"{dp}.stats.signatures"]

        put("plurality_flow.options_s", ["plurality_flow.min_bribe_to_top"],
            incl["plurality_flow.min_bribe_to_top"])
        put("plurality_flow.build_s", ["plurality_flow.build_top_signature_network"],
            incl["plurality_flow.build_network"])
        put("plurality_flow.networks", ["plurality_flow.build_top_signature_network"],
            calls["plurality_flow.build_network"])
        mcf_calls = calls["flow.min_cost_flow"]
        put("flow.mcf_s", ["plurality_flow.min_cost_flow"], incl["flow.min_cost_flow"])
        put("flow.mcf_calls", ["plurality_flow.min_cost_flow"], mcf_calls)
        put("flow.edges", ["plurality_flow.min_cost_flow"],
            counts["flow.edges_total"] / mcf_calls if mcf_calls else 0.0)
        put("flow.hit_ratio", ["plurality_flow.min_cost_flow"],
            counts["flow.hits"] / mcf_calls if mcf_calls else 0.0)

        put("borda.menu_s", ["borda.price_menu", "borda.shift_menu"],
            incl["borda.menu"])
        put("borda.accumulate_s", ["borda.accumulate_voter_tables"],
            incl["borda.accumulate_voter_tables"])
        if counts[f"{bo}.stats_seen"] or not counts[f"dispatch.calls.{bo}"]:
            out["borda.table_cells"] = counts[f"{bo}.stats.table_cells"]
        put("borda.solve_s", ["dispatch.solve_borda_zero"],
            incl["dispatch.solve_borda_zero"])

        put("oracle.search_s", ["dispatch.solve_np_hard"],
            incl["dispatch.solve_np_hard"])
        put("oracle.options_s", ["oracle.enumerate_voter_options"],
            incl["oracle.enumerate_voter_options"])
        put("oracle.options", ["oracle.enumerate_voter_options"],
            counts["oracle.options"])
        put("oracle.calls", ["dispatch.solve_np_hard"],
            counts[f"dispatch.calls.{SOLVERS['solve_np_hard']}"])
        put("oracle.refusals", ["dispatch.solve_np_hard"], counts["oracle.refusals"])
        put("costs.bribe_cost_calls", ["costs.bribe_cost"], counts["costs.bribe_cost"])
        return out
