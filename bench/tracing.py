"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps every function a ``hydromom`` module lists in its
``__all__`` (``cli`` has none, so its public functions) and rebinds that name
in every ``hydromom`` module that holds it, the defining module included.
Calls through those names then record a span: layer, function, start, end,
parent span and op id.  Spans stay in memory until the run ends.  No source
file of the program changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("exact", "specfun", "wavefun", "quadrature", "invp", "sumrules", "asympt", "physics", "cli")
OP_LAYER = "op"  # the root span the benchmark opens around each op


@dataclass(frozen=True)
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


def layer_times(spans: list[Span], ops: set[int]) -> dict[str, dict[str, float]]:
    """Calls, busy time and self time per layer over the spans of ``ops``.

    Busy time is the union of a layer's spans: spans nested inside a span of
    the same layer add nothing to it.  Self time is each span's duration less
    the durations of its direct children, summed over the layer; self times
    of all layers partition the covered time, so they sum to at most the
    traced wall time.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        if span.op not in ops:
            continue
        entry = stats.setdefault(span.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[i]
        parent = span.parent
        while parent >= 0 and spans[parent].layer != span.layer:
            parent = spans[parent].parent
        if parent < 0:
            entry["busy_s"] += duration
    return stats


def _exact_part(result):
    """The rational an invp function handed back, if any."""
    if isinstance(result, tuple) and result:
        result = result[0]
    result = getattr(result, "exact", result)
    return getattr(result, "coefficient", None)


def _series_terms(name: str, n: int, l: int) -> int:
    if name == "inv_p_series_compact":
        return n - l
    if name == "inv_p_series_connection":
        return (n - l - 1) // 2 + 1
    return 0


class Tracer:
    """Records spans while an op is open; otherwise the wrappers pass straight through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fails: Counter = Counter()  # exceptions that left a layer, probes included
        self.counts: Counter = Counter()  # invp.terms, invp.result_bits, wavefun.nonfinite
        self.calls_seen: dict[str, set] = {"invp": set(), "sumrules": set()}
        self._stack: list[tuple[int, str]] = []
        self._op: int | None = None
        self._timed = False

    # -- op boundaries -------------------------------------------------------

    def begin(self, op: int, kind: str, timed: bool) -> None:
        self._op, self._timed = op, timed
        self._stack = [(len(self.spans), OP_LAYER)]
        self.spans.append(Span(OP_LAYER, kind, perf_counter(), 0.0, -1, op))

    def end(self) -> None:
        end = perf_counter()
        index = self._stack[0][0]
        root = self.spans[index]
        self.spans[index] = Span(root.layer, root.name, root.start, end, -1, root.op)
        self._stack = []
        self._op = None

    # -- wrapping ------------------------------------------------------------

    def install(self, package: str = "hydromom") -> None:
        holders = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for name in names:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(layer, name, fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapped)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            parent, parent_layer = tracer._stack[-1]
            if tracer._timed and layer in tracer.calls_seen:
                tracer._note_call(layer, name, signature, args, kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append((index, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent_layer != layer:
                    tracer.fails[layer] += 1
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(layer, name, start, end, parent, tracer._op)
            if layer == "invp" and tracer._timed:
                coefficient = _exact_part(result)
                if coefficient is not None:
                    tracer.counts["invp.result_bits"] += (
                        coefficient.numerator.bit_length() + coefficient.denominator.bit_length()
                    )
            elif layer == "wavefun" and parent_layer != layer and isinstance(result, (float, np.ndarray)):
                tracer.counts["wavefun.nonfinite"] += int(np.size(result) - np.count_nonzero(np.isfinite(result)))
            return result

        return traced

    def _note_call(self, layer, name, signature, args, kwargs) -> None:
        key = (name, args, tuple(sorted(kwargs.items())))
        try:
            hash(key)
        except TypeError:
            key = repr(key)
        self.calls_seen[layer].add(key)
        if layer == "invp" and name.startswith("inv_p_series_"):
            bound = signature.bind(*args, **kwargs).arguments
            self.counts["invp.terms"] += _series_terms(name, bound["n"], bound["l"])
