"""Layer tracing of qident from outside its source.

Two independent instruments, installed in separate passes so that neither
distorts the other:

* :class:`SpanTracer` wraps the public functions of each layer (module) in
  timed spans.  Spans live in memory as ``[name, parent, start, end]`` and
  are written out when the pass ends; self time is a span's duration minus
  the time its child spans cover.
* :class:`CountHooks` wraps the hottest entry points (field arithmetic,
  expression-node evaluation, the convolution kernels) with counters only,
  no clock reads, and derives the work counts from their arguments.

Wrapping rebinds a function everywhere it is bound: in its defining module,
in every other loaded ``qident`` module that imported it by name (``lambert``
binds ``pochhammer``, ``catalog`` binds ``parse_identity``, ``verify`` binds
``evaluate_to_order``), and under every class attribute that aliases a
method (``__rmul__ = __mul__``).  Modules are reached through
``sys.modules``, because ``qident.catalog`` as an attribute is the
``catalog()`` function, not the module.
"""

from __future__ import annotations

import bisect
import math
import sys
import time
from fractions import Fraction

# span name -> (module, "function" or "Class.method")
SPANS = {
    "catalog.build": ("qident.catalog", "catalog"),
    "dsl.parse": ("qident.dsl", "parse_identity"),
    "verify": ("qident.verify", "verify"),
    "expr.evaluate_to_order": ("qident.expr", "evaluate_to_order"),
    "blocks.pochhammer": ("qident.blocks", "pochhammer"),
    "blocks.theta_product": ("qident.blocks", "theta_product"),
    "blocks.theta_sum": ("qident.blocks", "theta_sum"),
    "blocks.gamma_k": ("qident.blocks", "gamma_k"),
    "blocks.eta_quotient": ("qident.blocks", "eta_quotient"),
    "blocks.h_series": ("qident.blocks", "h_series"),
    "blocks.i_series": ("qident.blocks", "i_series"),
    "blocks.theta1_normalized": ("qident.blocks", "theta1_normalized"),
    "lambert.lambert_sum": ("qident.lambert", "lambert_sum"),
    "lambert.bilateral_1psi1_lhs": ("qident.lambert", "bilateral_1psi1_lhs"),
    "lambert.bilateral_1psi1_rhs": ("qident.lambert", "bilateral_1psi1_rhs"),
    "series.mul": ("qident.series", "PuiseuxSeries.__mul__"),
    "series.mul_dense": ("qident.series", "PuiseuxSeries._mul_dense"),
    "series.mul_sparse": ("qident.series", "PuiseuxSeries._mul_sparse"),
    "series.inverse": ("qident.series", "PuiseuxSeries.inverse"),
    "series.nth_root": ("qident.series", "PuiseuxSeries.nth_root"),
    "series.pow": ("qident.series", "PuiseuxSeries.__pow__"),
    "series.add": ("qident.series", "PuiseuxSeries.__add__"),
    "series.first_mismatch": ("qident.series", "PuiseuxSeries.first_mismatch"),
    "series.substitute": ("qident.series", "PuiseuxSeries.substitute"),
    "backend.convolve": ("qident.backend", "convolve"),
    "backend.convolve_rational": ("qident.backend", "convolve_rational"),
}

# __radd__ and __rmul__ alias __add__ and __mul__, and are rebound with them
FIELD_OPS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "inverse")


def _rebind(module: str, path: str, make_wrapper) -> None:
    """Replace a function with ``make_wrapper(fn)`` wherever it is bound.

    A target that no longer exists is reported and skipped, so that a
    refactor of the program shows up as missing layer data, not a crash.
    """
    mod = sys.modules.get(module)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    original = getattr(owner, attr, None) if owner is not None else None
    if original is None:
        print(f"perfbench: {module}.{path} not found; its layer reads 0",
              file=sys.stderr)
        return
    wrapped = make_wrapper(original)
    if owner_name:
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, wrapped)
        return
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "qident" or name.startswith("qident.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


class SpanTracer:
    """Timed spans with parent links, one stack, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index, start, end]
        self._stack: list[int] = []

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            _rebind(module, path, lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self time, total time; plus derived counts.

        ``verify`` is the exception to plain self time: its self time keeps
        the comparison (``series.first_mismatch``, and the negation and
        second comparison of a sign retry), so only its
        ``expr.evaluate_to_order`` children are subtracted.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        compare_children = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent < 0:
                continue
            if spans[parent][0] == "verify" and name == "series.first_mismatch":
                compare_children[parent] += 1
                continue
            child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in SPANS}
        sign_retries = 0
        for i, (name, _, start, end) in enumerate(spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            if name == "verify":
                sign_retries += max(0, compare_children[i] - 1)
        return {"spans": out, "sign_retries": sign_retries}

    def dump(self) -> dict:
        """All spans, names interned, for writing out after the pass."""
        names = sorted(SPANS)
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], p, round(s, 9), round(e, 9)]
                      for n, p, s, e in self.spans],
        }


def _slots(series) -> int:
    """Dense slot count of the inverse / n-th root recurrence.

    The unit part of a series with least exponent m and bound t lives on
    the grid 1/den, den the lcm of the exponent offsets' denominators, and
    the recurrence fills ceil((t - m) * den) slots.
    """
    if not series.terms:
        return 0
    m = min(series.terms)
    den = 1
    for e in series.terms:
        den = math.lcm(den, (e - m).denominator)
    return max(math.ceil((series.trunc - m) * den), 1)


def _nonzero_pairs(a_parts, b_parts, nout: int) -> int:
    """Multiply-accumulates a convolution does: nonzero pairs below nout."""
    a_idx = [i for i in range(min(len(a_parts[0]), nout))
             if any(p[i] for p in a_parts)]
    b_idx = [j for j in range(min(len(b_parts[0]), nout))
             if any(p[j] for p in b_parts)]
    return sum(bisect.bisect_left(b_idx, nout - i) for i in a_idx)


class CountHooks:
    """Counters at the layer boundaries; no clock is read."""

    def __init__(self):
        self.counts = {
            "field.ops": 0,
            "expr.evaluate_to_order.calls": 0,
            "expr.node_evals": 0,
            "expr.top_evals": 0,
            "series.inverse.slots": 0,
            "series.nth_root.slots": 0,
            "backend.convolve.mac_ops": 0,
            "backend.convolve_rational.mac_ops": 0,
        }
        self.unique_evals: set = set()
        self._depth = 0

    def install(self) -> None:
        for op in FIELD_OPS:
            _rebind("qident.field", f"AlgebraicNumber.{op}",
                    self._counter("field.ops"))
        expr = sys.modules["qident.expr"]
        for cls in list(vars(expr).values()):
            if (isinstance(cls, type) and issubclass(cls, expr.Node)
                    and "evaluate" in vars(cls)):
                _rebind("qident.expr", f"{cls.__name__}.evaluate",
                        self._node_eval)
        _rebind("qident.expr", "evaluate_to_order",
                self._counter("expr.evaluate_to_order.calls"))
        for op in ("inverse", "nth_root"):
            _rebind("qident.series", f"PuiseuxSeries.{op}",
                    self._counter(f"series.{op}.slots",
                                  lambda series, *_: _slots(series)))
        _rebind("qident.backend", "convolve", self._counter(
            "backend.convolve.mac_ops",
            lambda ra, ia, rb, ib, nout: _nonzero_pairs((ra, ia), (rb, ib), nout)))
        _rebind("qident.backend", "convolve_rational", self._counter(
            "backend.convolve_rational.mac_ops",
            lambda ra, rb, nout: _nonzero_pairs((ra,), (rb,), nout)))

    def _counter(self, key, work=None):
        """Wrapper factory adding 1 per call, or ``work(*args)``, to a count."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1 if work is None else work(*args)
                return fn(*args, **kwargs)

            return counted

        return make

    def _node_eval(self, fn):
        counts, unique = self.counts, self.unique_evals

        def counted(node, order):
            counts["expr.node_evals"] += 1
            if self._depth == 0:
                counts["expr.top_evals"] += 1
            unique.add((node, Fraction(order)))
            self._depth += 1
            try:
                return fn(node, order)
            finally:
                self._depth -= 1

        return counted

    def summary(self) -> dict:
        """Counts; padded retries are top-level evaluations beyond the
        first of each ``evaluate_to_order`` call."""
        out = dict(self.counts)
        out["expr.node_evals_unique"] = len(self.unique_evals)
        out["expr.padded_retries"] = (out.pop("expr.top_evals")
                                      - out["expr.evaluate_to_order.calls"])
        return out
