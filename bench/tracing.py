"""Per-layer spans recorded from outside the program.

A Tracer wraps the public functions of each `padic_mcf` layer and rebinds
every reference to them: the defining module, every module that imported
the name (`jacobi_perron.browkin_s` as well as `padic.browkin_s`), and every
class attribute that aliases a method (`__rmul__ = __mul__`).  enable()
installs the wrappers and disable() restores the originals, so untraced
requests run the unmodified program.

Each span records its calls and its self time, which is its duration minus
the durations of the spans it called.  Spans are aggregated by name in
memory; the request span `cli` gets whatever no other span claims, which is
argument parsing, expression parsing and output formatting.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute path).  Several targets may share a span.
SPANS = (
    ("padic.browkin_s", "padic_mcf.padic", "browkin_s"),
    ("padic.valuation", "padic_mcf.padic", "valuation"),
    ("padic.approx_digits", "padic_mcf.padic", "PAdicApprox.digits"),
    ("padic.approx_arith", "padic_mcf.padic", "PAdicApprox.__add__"),
    ("padic.approx_arith", "padic_mcf.padic", "PAdicApprox.__sub__"),
    ("padic.approx_arith", "padic_mcf.padic", "PAdicApprox.__rsub__"),
    ("padic.approx_arith", "padic_mcf.padic", "PAdicApprox.__mul__"),
    ("padic.approx_arith", "padic_mcf.padic", "PAdicApprox.__truediv__"),
    ("padic.approx_arith", "padic_mcf.padic", "PAdicApprox.__rtruediv__"),
    ("numberfield.alg_mul", "padic_mcf.numberfield", "AlgebraicNumber.__mul__"),
    ("numberfield.alg_inverse", "padic_mcf.numberfield", "AlgebraicNumber.inverse"),
    ("numberfield.field_init", "padic_mcf.numberfield", "NumberField.__init__"),
    ("numberfield.padic_roots", "padic_mcf.numberfield", "padic_roots"),
    ("numberfield.embed", "padic_mcf.numberfield", "embed"),
    ("mcf.push", "padic_mcf.mcf", "ConvergentsTable.push"),
    ("mcf.evaluate_finite", "padic_mcf.mcf", "evaluate_finite"),
    ("mcf.determinant_check", "padic_mcf.mcf", "determinant_check"),
    ("mcf.conditions", "padic_mcf.mcf", "check_convergence_conditions"),
    ("jacobi_perron.expand", "padic_mcf.jacobi_perron", "jp_expand"),
    ("jacobi_perron.expand", "padic_mcf.jacobi_perron", "euclid_expand"),
)
# Counted but not timed: its time stays with the calling span (embed).
COUNTERS = (("numberfield.refine", "padic_mcf.numberfield", "PAdicEmbedding.refine_to"),)

REQUEST_SPAN = "cli"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.rows = 0
        self.zero_embeds = 0
        self.relifts = 0
        self.missing = []
        self._stack = []  # time spent in child spans, one entry per open span
        self._bindings = []  # (namespace, attribute, original, wrapper)
        for name, module, path in SPANS:
            self._bind(module, path, lambda fn, name=name: self._span(name, fn))
        for name, module, path in COUNTERS:
            self._bind(module, path, lambda fn, name=name: self._refine_counter(name, fn))

    # -- binding ---------------------------------------------------------

    def _bind(self, module: str, path: str, make) -> None:
        owner = sys.modules.get(module)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        if isinstance(original, property):
            wrapper = property(make(original.fget))
        else:
            wrapper = make(original)
        if cls_path:
            namespaces = [owner]
        else:
            namespaces = [
                mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "padic_mcf" or name.startswith("padic_mcf."))
            ]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._bindings.append((ns, key, original, wrapper))

    def enable(self) -> None:
        for ns, key, _, wrapper in self._bindings:
            setattr(ns, key, wrapper)

    def disable(self) -> None:
        for ns, key, original, _ in self._bindings:
            setattr(ns, key, original)

    # -- spans -----------------------------------------------------------

    def _span(self, name: str, fn):
        observe = {
            "numberfield.embed": self._observe_embed,
            "jacobi_perron.expand": self._observe_expansion,
        }.get(name)
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                calls[name] += 1
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_embed(self, result) -> None:
        self.zero_embeds += result.is_zero_at_precision()

    def _observe_expansion(self, result) -> None:
        # jp_expand returns the result, euclid_expand (result, trace)
        self.rows += (result[0] if isinstance(result, tuple) else result).steps

    def _refine_counter(self, name: str, fn):
        tracer = self

        def refine_to(emb, precision):
            before = emb.root
            result = fn(emb, precision)
            tracer.calls[name] += 1
            tracer.relifts += emb.root is not before
            return result

        refine_to.__wrapped__ = fn
        return refine_to

    def request(self, fn, *args):
        """Run one request as the root span."""
        return self._span(REQUEST_SPAN, fn)(*args)

    # -- report ----------------------------------------------------------

    def metrics(self, requests: int) -> dict:
        """Per-layer metrics as (value, unit), averaged per traced request."""
        out = {}
        names = sorted({name for name, _, _ in SPANS})
        for name in names:
            out[f"{name}.calls"] = (self.calls[name] / requests, "calls/req")
            out[f"{name}.self_ms"] = (1e3 * self.self_s[name] / requests, "ms/req")
        embeds = self.calls["numberfield.embed"]
        out["numberfield.embed.zero_frac"] = (self.zero_embeds / embeds if embeds else 0.0, "frac")
        refines = self.calls["numberfield.refine"]
        out["numberfield.refine.calls"] = (refines / requests, "calls/req")
        out["numberfield.refine.relift_frac"] = (self.relifts / refines if refines else 0.0, "frac")
        out["jacobi_perron.rows"] = (self.rows / requests, "rows/req")
        expand_us = 1e6 * self.self_s["jacobi_perron.expand"]
        out["jacobi_perron.self_us_per_row"] = (expand_us / self.rows if self.rows else 0.0, "us/row")
        out["cli.self_ms"] = (1e3 * self.self_s[REQUEST_SPAN] / requests, "ms/req")
        return out
