"""Per-layer spans for the traced run, installed from outside the package.

`Tracer.install` wraps the public functions of each layer module (but for
the UNWRAPPED scalar helpers, and `cli` only through `main`) and
`GFpMatrix.__matmul__`.  The modules bind names with `from ... import`, so
a wrapper replaces the original under every name any ringkakeya module
holds it by (`bounds.rank`, `cli.rank`, `cyclo.gfp_rank`, ...), which is
where each caller looks it up.  Spans stay in memory until `write`.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

PACKAGE = "ringkakeya"
LAYERS = ["rings", "gfp", "cyclo", "polys", "incidence", "kakeya", "bounds", "cli"]


# integer-to-integer helpers called up to 200,000 times a pass; a wrapper
# would cost more than they do and add that cost to their callers' self time
UNWRAPPED = {"gfp.is_prime", "cyclo.phi_pk", "polys.binom_mod"}


def _cells(m) -> int:
    return m.rows * m.cols


# name -> (quantity, function of (args, result)); names not listed count
# seconds and calls only
QUANTITIES = {
    "gfp.rank_odd": ("cells", lambda a, r: _cells(a[0])),
    "gfp.rank_gf2": ("cells", lambda a, r: _cells(a[0])),
    "gfp.matmul": ("mults", lambda a, r: a[0].rows * a[0].cols * a[1].cols),
    "gfp.kron": ("cells", lambda a, r: _cells(r)),
    "gfp.stack": ("cells", lambda a, r: _cells(r)),
    "gfp.rank_rational": ("cells", lambda a, r: len(a[0]) * len(a[0][0]) if len(a[0]) else 0),
    "polys.eval_matrix": ("cells", lambda a, r: _cells(r)),
    "cyclo.cyclo_rank": ("cells", lambda a, r: _cells(a[0])),
    "cyclo.dft_matrix": ("cells", lambda a, r: _cells(r)),
    "incidence.incidence_matrix_pk": ("cells", lambda a, r: _cells(r)),
    "incidence.mv_search": ("nodes", lambda a, r: r[1]),
}


def _span_name(layer: str, name: str):
    """Fixed span name, or a function of the call's arguments."""
    if (layer, name) == ("gfp", "rank"):
        return lambda args: "gfp.rank_gf2" if args[0].p == 2 else "gfp.rank_odd"
    return f"{layer}.{name}"


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, child seconds, quantity]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        # (pass, first span, end span, timing) of every traced call
        self._calls: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if fixed else name(args)
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][4] += end - rec[1]
            q = QUANTITIES.get(span_name)
            if q is not None:
                rec[5] = q[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions; `cli` only through `main`,
        so argument parsing, command dispatch and JSON output are its self
        time."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in _public_functions(module):
                if (layer == "cli" and name != "main") or f"{layer}.{name}" in UNWRAPPED:
                    continue
                originals[fn] = self._wrap(_span_name(layer, name), fn)
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, originals[value])
        gfp_matrix = sys.modules[f"{PACKAGE}.gfp"].GFpMatrix
        matmul = gfp_matrix.__matmul__
        self._patched.append((gfp_matrix, "__matmul__", matmul))
        gfp_matrix.__matmul__ = self._wrap("gfp.matmul", matmul)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark_call(self, pass_index: int, first_span: int, timing) -> None:
        """Close the call whose spans start at first_span."""
        self._calls.append((pass_index, first_span, len(self.spans), timing))

    def summary(self, first: int, last: int, scale: float = 1.0) -> dict:
        """name -> {"s": self seconds, "calls": n, <quantity>: total} over
        spans[first:last]."""
        out: dict = {}
        for name, start, end, _, child, qty in self.spans[first:last]:
            row = out.setdefault(name, {"s": 0.0, "calls": 0})
            row["s"] += (end - start - child) * scale
            row["calls"] += 1
            q = QUANTITIES.get(name)
            if q is not None:
                row[q[0]] = row.get(q[0], 0) + qty
        return out

    def layer_metrics(self, metrics: list[str], factor) -> dict:
        """Median over the traced passes of each `<layer>.<function>.<quantity>`
        metric, summed over every call of a pass; a call's seconds are
        multiplied by factor(timing), as its end-to-end time is.  `rings.s`
        is the self time of all rings functions together."""
        per_pass: dict[int, dict] = {}
        for pass_index, first, last, timing in self._calls:
            values = per_pass.setdefault(pass_index, dict.fromkeys(metrics, 0))
            summary = self.summary(first, last, factor(timing))
            for metric in metrics:
                func, quantity = metric.rsplit(".", 1)
                if func == "rings":
                    values[metric] += sum(row["s"] for name, row in summary.items()
                                          if name.startswith("rings."))
                else:
                    values[metric] += summary.get(func, {}).get(quantity, 0)
        return {m: statistics.median(v[m] for v in per_pass.values()) for m in metrics}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, child, qty) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name, "start": start,
                    "end": end, "self_s": end - start - child, "qty": qty,
                }) + "\n")
