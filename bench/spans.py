"""Per-layer tracing from outside the package.

While ``traced`` is active, every public function of the five quantcomp
modules is replaced, binding by binding, with a wrapper that records a span
(name, start, end, parent) in memory; the original bindings come back when it
exits.  No source file of the package changes.

Spans are named ``<module>.<function>``.  The kernels in ``BY_CALLER`` are
shared by the float path, the calibration simulation and the integer engine,
so their spans are named by the calling module (``intengine.im2col``,
``calibrate.im2col``, ``refnet.im2col``) and each lands on the end-to-end
metric it feeds.  Every other function is named by the module that defines it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

from quantcomp import calibrate, compensate, intengine, quant, refnet

MODULES = (refnet, quant, compensate, calibrate, intengine)
BY_CALLER = {"im2col", "quantize_uniform", "fixed_point_multiply", "encode_multiplier", "layer_forward"}


def _accumulate_counts(args, result):
    # MACs = N * C_out * C_eff; bytes are the i64 operand and accumulator
    # matrices the kernel forms, computed from their shapes, not measured
    n, c_eff = args[0].shape
    c_out = result.shape[1]
    return {"macs": n * c_out * c_eff, "bytes_computed": 8 * (n * c_eff + c_out * c_eff + n * c_out)}


def _im2col_counts(args, result):
    return {"bytes_computed": result[0].nbytes}  # the patch matrix it returns


COUNTERS = {"integer_accumulate": _accumulate_counts, "im2col": _im2col_counts}


class Tracer:
    """Spans and work counts of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return timed

    def totals(self, root=None):
        """Per span name: self seconds (duration minus its direct children's) and calls.

        With ``root``, only spans named ``root`` and the spans below them count.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        inside = set()
        self_s, calls = defaultdict(float), defaultdict(int)
        for i, (name, _, _, parent) in enumerate(self.spans):
            if root is None or name == root or parent in inside:
                inside.add(i)
                self_s[name] += own[i]
                calls[name] += 1
        return self_s, calls


@contextmanager
def traced(tracer: Tracer):
    """Swap the package's public functions for ``tracer``'s wrappers; restore them on exit."""
    saved = []
    for module in MODULES:
        here = module.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or not fn.__module__.startswith("quantcomp."):
                continue
            owner = here if attr in BY_CALLER else fn.__module__.rsplit(".", 1)[1]
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(f"{owner}.{attr}", fn, COUNTERS.get(attr)))
    try:
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
