"""Span tracing of dimcalc's public functions, installed from outside the
package.

``instrument`` replaces each function or method listed in ``SPANS`` by a
wrapper, everywhere the package binds it, and restores the originals on
exit.  Each call records one span: name, start, end and parent.  Spans
stay in flat arrays in memory until ``write`` saves them.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from array import array
from pathlib import Path


def _render_name(args, kwargs) -> str:
    fmt = args[1] if len(args) > 1 else kwargs.get("format", "pretty")
    return "exprs.render_structured" if fmt == "structured" else "exprs.render_pretty"


# (module, attribute path, span name or a chooser of it, tally of the call).
# A tally adds an amount per call: characters parsed, entries generated,
# pairs swept.  Spans beyond the metric names keep self time in its layer.
SPANS = (
    ("decorated", "DimensionType.__init__", "decorated.construct", None),
    ("decorated", "DecoratedNumber.__init__", "decorated.decnum", None),
    ("decorated", "DecoratedNumber.__lt__", "decorated.decnum_lt", None),
    ("decorated", "DimensionType.boxplus", "decorated.boxplus", None),
    ("decorated", "DimensionType.oplus", "decorated.oplus", None),
    ("decorated", "DimensionType.star", "decorated.star", None),
    ("decorated", "DimensionType.__add__", "decorated.shift", None),
    ("decorated", "DimensionType.__le__", "decorated.le", None),
    ("decorated", "DimensionType.__eq__", "decorated.eq", None),
    ("decorated", "DimensionType.dim", "decorated.dim", None),
    ("decorated", "DimensionType.entry", "decorated.entry", None),
    ("decorated", "DimensionType.__call__", "decorated.value_at", None),
    ("decorated", "BocksteinGroup.__init__", "decorated.basis_group", None),
    ("decorated", "is_prime", "decorated.is_prime", None),
    ("groups", "smith_normal_form", "groups.snf", None),
    ("groups", "profile", "groups.profile", None),
    ("groups", "bockstein_basis", "groups.sigma", None),
    ("groups", "dim_with_coefficients", "groups.dim_with_coefficients", None),
    ("groups", "PrimePredicate.__init__", "groups.predicate", None),
    ("exprs", "parse", "exprs.parse", lambda args, kwargs, result: len(args[0])),
    ("exprs", "evaluate_expr", "exprs.evaluate", None),
    ("exprs", "free_parameters", "exprs.free_parameters", None),
    ("exprs", "render", _render_name, None),
    ("harness", "random_dimension_type", "harness.random_dimension_type", None),
    ("harness", "random_type_above", "harness.random_type_above",
     lambda args, kwargs, result: 1 + len(args[1].exceptions)),
    ("harness", "Scenario.from_text", "harness.from_text", None),
    ("harness", "run_scenario", "harness.run_scenario", None),
    ("harness", "cube_theorem_sweep", "harness.sweep",
     lambda args, kwargs, result: result.pairs_checked),
    ("harness", "check_algebra_laws", "harness.laws", None),
    ("cli", "main", "cli.main", None),
)

LAYERS = ("decorated", "groups", "exprs", "harness", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tally: dict[str, int] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, tally):
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns
        fixed = self._id(name) if isinstance(name, str) else None
        choose = None if isinstance(name, str) else name
        tallies = self.tally

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(fixed if choose is None else self._id(choose(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if tally is not None:
                key = names[i]
                tallies[key] = tallies.get(key, 0) + tally(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call listed in SPANS through ``tracer`` while active."""
    modules = [m for n, m in sys.modules.items() if n == "dimcalc" or n.startswith("dimcalc.")]
    undo = []
    try:
        for module, path, name, tally in SPANS:
            owner = sys.modules[f"dimcalc.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, tally)))
                undo.append((owner, attr, raw))
                continue
            traced = tracer.wrap(raw, name, tally)
            targets = [owner] if classes else [m for m in modules if m.__dict__.get(attr) is raw]
            for target in targets:
                setattr(target, attr, traced)
                undo.append((target, attr, raw))
        yield tracer
    finally:
        for target, attr, raw in reversed(undo):
            setattr(target, attr, raw)


def _median_us(values: list[int]) -> float:
    return statistics.median(values) / 1e3 if values else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer counts, times and ratios of one traced pass.

    ``.us`` metrics are medians of inclusive span time over the outermost
    calls (a recursive call inside its own name is part of its caller);
    top-level evaluation excludes the evaluations ``parse`` makes.
    ``self_s`` is a layer's span time minus the time its child spans cover.
    """
    ids = {name: i for i, name in enumerate(t.names)}
    parse_id, eval_id = ids.get("exprs.parse", -2), ids.get("exprs.evaluate", -2)
    above_id, decnum_id = ids.get("harness.random_type_above", -2), ids.get("decorated.decnum", -2)
    layer_of = [LAYERS.index(name.split(".")[0]) for name in t.names]
    count = len(t.start)
    child = [0] * count
    in_parse = bytearray(count)
    in_above = bytearray(count)
    calls = [0] * len(t.names)
    outer: list[list[int]] = [[] for _ in t.names]
    self_ns = [0] * len(LAYERS)
    evals_in_parse = decnum_in_above = 0
    name, parent, start, end = t.name, t.parent, t.start, t.end
    for i in range(count):
        nid, par = name[i], parent[i]
        dur = end[i] - start[i]
        calls[nid] += 1
        if par >= 0:
            child[par] += dur
            in_parse[i] = in_parse[par] or name[par] == parse_id
            in_above[i] = in_above[par] or name[par] == above_id
        if nid == eval_id and in_parse[i]:
            evals_in_parse += 1
        elif par < 0 or name[par] != nid:
            outer[nid].append(dur)
        if nid == decnum_id and in_above[i]:
            decnum_in_above += 1
    for i in range(count - 1, -1, -1):
        self_ns[layer_of[name[i]]] += end[i] - start[i] - child[i]

    def n(key):
        return calls[ids[key]] if key in ids else 0

    def us(key):
        return _median_us(outer[ids[key]]) if key in ids else 0.0

    def total_s(key):
        return sum(outer[ids[key]]) / 1e9 if key in ids else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for key in ("construct", "decnum", "entry", "is_prime"):
        out[f"decorated.{key}.calls"] = n(f"decorated.{key}")
    for key in ("construct", "boxplus", "oplus", "star", "shift", "le", "eq", "dim", "is_prime"):
        out[f"decorated.{key}.us"] = us(f"decorated.{key}")
    out["groups.snf.calls"] = n("groups.snf")
    out["groups.predicate.calls"] = n("groups.predicate")
    for key in ("snf", "profile", "sigma", "dim_with_coefficients"):
        out[f"groups.{key}.us"] = us(f"groups.{key}")
    out["exprs.parse.us"] = us("exprs.parse")
    out["exprs.parse.chars_per_s"] = ratio(t.tally.get(parse_id, 0), total_s("exprs.parse"))
    out["exprs.evaluate.us"] = us("exprs.evaluate")
    out["exprs.evaluate.calls"] = n("exprs.evaluate")
    out["exprs.parse_evals.ratio"] = ratio(evals_in_parse, n("exprs.evaluate") - evals_in_parse)
    out["exprs.free_parameters.calls"] = n("exprs.free_parameters")
    out["exprs.render_pretty.us"] = us("exprs.render_pretty")
    out["exprs.render_structured.us"] = us("exprs.render_structured")
    for key in ("random_dimension_type", "random_type_above", "from_text", "run_scenario"):
        out[f"harness.{key}.us"] = us(f"harness.{key}")
    out["harness.above.decnum_per_entry"] = ratio(decnum_in_above, t.tally.get(above_id, 0))
    out["harness.sweep.pairs_per_s"] = ratio(
        t.tally.get(ids.get("harness.sweep"), 0), total_s("harness.sweep"))
    out["cli.main.us"] = us("cli.main")
    for layer, ns in zip(LAYERS, self_ns):
        out[f"{layer}.self_s"] = ns / 1e9
    return out
