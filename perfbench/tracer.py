"""Outside-in span tracer for the gfoperad layers.

The library's modules import each other with ``from ... import name``, so a
function is looked up in the namespace of the module that calls it.  The tracer
therefore replaces each function at every name its callers look it up by, and
replaces ``PolySymbol`` methods on the class.  Nothing under ``src/`` changes;
``restore`` puts every original back.

A span is one call of a wrapped name: its span name, start, end, parent span,
operation id and one count taken from the result (terms or trees returned).
Spans stay in flat lists in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from time import perf_counter

NO_PARENT = -1


def _terms(sym) -> int:
    return len(sym.terms)


def _series_terms(series) -> int:
    return sum(len(sym.terms) for sym in series.orders.values())


#: (module, attribute at which callers look it up, span name, result count).
#: ``PolySymbol.<method>`` entries are patched on the class in gfoperad.symbols.
TARGETS = (
    ("gfoperad.cli", "main", "cli.main", None),
    ("gfoperad.cli", "series_loads", "symbols.series_loads", None),
    ("gfoperad.cli", "series_dumps", "symbols.series_dumps", None),
    ("gfoperad.cli", "validate_poisson", "poisson.validate_poisson", None),
    ("gfoperad.cli", "solve_deformation", "solver.solve_deformation", _series_terms),
    ("gfoperad.cli", "compose", "operad.compose", lambda g: _series_terms(g.deformation)),
    ("gfoperad.solver", "validate_poisson", "poisson.validate_poisson", None),
    ("gfoperad.solver", "obstruction", "deformation.obstruction", None),
    ("gfoperad.solver", "verify_product", "deformation.verify_product", None),
    ("gfoperad.solver", "check_sgs", "groupoid.check_sgs", None),
    ("gfoperad.deformation", "compose", "operad.compose", lambda g: _series_terms(g.deformation)),
    ("gfoperad.groupoid", "compose", "operad.compose", lambda g: _series_terms(g.deformation)),
    ("gfoperad.operad", "enumerate_unrooted", "trees.enumerate_unrooted", len),
    ("gfoperad.operad", "elementary_function", "elementary.elementary_function", _terms),
    ("gfoperad.elementary", "directional_contract", "symbols.directional_contract", None),
    ("gfoperad.elementary", "contracted_gradient", "symbols.contracted_gradient", None),
    ("gfoperad.symbols", "PolySymbol.__add__", "symbols.add", None),
    ("gfoperad.symbols", "PolySymbol.__mul__", "symbols.mul", None),
    ("gfoperad.symbols", "PolySymbol.substitute", "symbols.substitute", _terms),
    ("gfoperad.symbols", "PolySymbol.diff", "symbols.diff", None),
    ("gfoperad.symbols", "PolySymbol.remap_variables", "symbols.remap_variables", None),
)


class Tracer:
    """Records spans of the wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names = []  # span name per name id
        self.name_of = []  # per span: name id
        self.parent = []
        self.op_of = []
        self.start = []
        self.end = []
        self.count = []
        self.op = NO_PARENT
        self._stack = [NO_PARENT]
        self._patched = []  # (owner, attribute, original)
        self.missing = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, measure=None):
        """Return ``fn`` wrapped so each call records one span."""
        name_id = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            self.op_of.append(self.op)
            self.end.append(0.0)
            self.count.append(0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                self.count[idx] = measure(result)
            return result

        return traced

    def install(self, modules: dict, targets=TARGETS):
        """Patch every target found in ``modules`` (module name -> module)."""
        for module_name, attr, span_name, measure in targets:
            owner = modules.get(module_name)
            if owner is not None and "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, attr, self.wrap(original, span_name, measure))
            self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def write(self, path: str, t0: float):
        """Write spans as gzip JSON lines: name, start and end (ns after t0), parent, op, count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                row = [
                    self.name_of[i],
                    round((self.start[i] - t0) * 1e9),
                    round((self.end[i] - t0) * 1e9),
                    self.parent[i],
                    self.op_of[i],
                    self.count[i],
                ]
                handle.write(json.dumps(row) + "\n")


# -- analysis ------------------------------------------------------------------


def self_times(durations, parents):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlap, so the children's summed
    durations are the part of the parent's interval they cover.
    """
    own = list(durations)
    for i, p in enumerate(parents):
        if p != NO_PARENT:
            own[p] -= durations[i]
    return own


def op_aggregates(names, name_of, parents, op_of, durations, counts):
    """Per operation id, per span name: calls, self_s, incl_s, count, nonzero.

    ``incl_s`` sums only outermost spans of a name, so recursion is not
    counted twice.  Also per operation: ``compose.substitute_s`` (substitute
    spans whose parent is a compose span) and, for obstruction and
    verify_product, the number of compose spans below them.
    """
    own = self_times(durations, parents)
    ops = {}
    for i, op in enumerate(op_of):
        name = names[name_of[i]]
        per_op = ops.setdefault(op, {})
        entry = per_op.setdefault(
            name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "count": 0, "nonzero": 0}
        )
        entry["calls"] += 1
        entry["self_s"] += own[i]
        entry["count"] += counts[i]
        entry["nonzero"] += 1 if counts[i] else 0
        ancestors = []
        p = parents[i]
        while p != NO_PARENT:
            ancestors.append(names[name_of[p]])
            p = parents[p]
        if name not in ancestors:
            entry["incl_s"] += durations[i]
        extra = per_op.setdefault("_extra", {})
        if name == "symbols.substitute" and ancestors[:1] == ["operad.compose"]:
            extra["compose.substitute_s"] = extra.get("compose.substitute_s", 0.0) + durations[i]
        if name == "operad.compose":
            for caller in ("deformation.obstruction", "deformation.verify_product"):
                if caller in ancestors:
                    key = f"{caller}.compose_calls"
                    extra[key] = extra.get(key, 0) + 1
    return ops


def _layer_metric_table():
    """Per-layer metric -> (span name, field, unit).

    Span name ``_extra`` reads the per-operation extras of ``op_aggregates``.
    """
    table = {}
    for span, fields in (
        ("symbols.add", ("calls", "self_s")),
        ("symbols.mul", ("calls", "self_s")),
        ("symbols.substitute", ("calls", "self_s", "terms_out")),
        ("symbols.diff", ("calls", "self_s")),
        ("symbols.remap_variables", ("self_s",)),
        ("symbols.directional_contract", ("calls", "self_s")),
        ("symbols.contracted_gradient", ("calls", "self_s")),
        ("symbols.series_loads", ("self_s",)),
        ("symbols.series_dumps", ("self_s",)),
        ("trees.enumerate_unrooted", ("calls", "self_s", "trees_out")),
        ("elementary.elementary_function", ("calls", "self_s")),
        ("operad.compose", ("calls", "incl_s", "self_s", "terms_out")),
        ("deformation.obstruction", ("calls", "incl_s")),
        ("deformation.verify_product", ("calls", "incl_s")),
        ("solver.solve_deformation", ("incl_s",)),
        ("groupoid.check_sgs", ("incl_s",)),
        ("cli.main", ("calls", "self_s")),
    ):
        for field in fields:
            source = "count" if field.endswith("_out") else field
            table[f"{span}.{field}"] = (span, source, "s" if field.endswith("_s") else "count")
    table["operad.compose.substitute_s"] = ("_extra", "compose.substitute_s", "s")
    for caller in ("deformation.obstruction", "deformation.verify_product"):
        key = f"{caller}.compose_calls"
        table[key] = ("_extra", key, "count")
    table["solver.self_s"] = ("solver.solve_deformation", "self_s", "s")
    table["solver.output_terms"] = ("solver.solve_deformation", "count", "count")
    return table


LAYER_METRICS = _layer_metric_table()


def layer_metrics(tracer: Tracer, op_ids, scales=None):
    """Per-layer metrics: for each traced operation its total, then the median.

    ``scales`` maps an op id to the factor that brings its seconds to the
    nominal host speed (default 1).

    Also ``elementary.nonzero_ratio``: nonzero elementary functions divided by
    elementary functions evaluated, over all traced operations.
    """
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    ops = op_aggregates(
        tracer.names, tracer.name_of, tracer.parent, tracer.op_of, durations, tracer.count
    )
    per_op = [ops.get(op, {}) for op in op_ids]
    metrics = {}
    for metric, (span, field, unit) in LAYER_METRICS.items():
        values = [
            agg.get(span, {}).get(field, 0) * (scales.get(op, 1.0) if unit == "s" and scales else 1)
            for op, agg in zip(op_ids, per_op)
        ]
        metrics[metric] = {"value": statistics.median(values) if values else 0, "unit": unit}
    evaluated = sum(agg.get("elementary.elementary_function", {}).get("calls", 0) for agg in per_op)
    nonzero = sum(agg.get("elementary.elementary_function", {}).get("nonzero", 0) for agg in per_op)
    metrics["elementary.nonzero_ratio"] = {
        "value": nonzero / evaluated if evaluated else 0.0,
        "unit": "ratio",
    }
    return metrics


def top_span_durations(tracer: Tracer, op_ids):
    """Duration of each operation's outermost span (``cli.main``), by op id."""
    tops = {}
    for i, p in enumerate(tracer.parent):
        if p == NO_PARENT and tracer.op_of[i] in op_ids:
            tops[tracer.op_of[i]] = tops.get(tracer.op_of[i], 0.0) + tracer.end[i] - tracer.start[i]
    return tops
