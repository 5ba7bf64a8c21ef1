"""Span tracing of binomoment's public functions, from outside the program.

``Tracer.patched()`` replaces each traced function with a wrapper in every
``binomoment`` module (and class) that holds a reference to it, so calls
are caught where their callers look the function up: ``cli`` calling
``certify_measure``, ``verify`` calling ``integrate``, ``closedform``
calling ``eval_density``, and so on.  On exit the originals are restored.

A span records its name, thread, start, end and parent.  A span opened on
a worker thread with an empty stack of its own is parented to the
innermost open span of the main thread: the only threads binomoment
starts are the certify pool's, which run while ``certify_measure`` is
open on the main thread.  Spans stay in memory until ``summary`` and
``dump`` read them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: (span name, defining module, attribute); "Class.attr" patches a method
TRACED = (
    ("core.gen_binomial", "binomoment.core", "gen_binomial"),
    ("core.classify_binomial", "binomoment.core", "classify_binomial"),
    ("series.mul", "binomoment.series", "TruncatedSeries.__mul__"),
    ("series.reciprocal", "binomoment.series", "TruncatedSeries.reciprocal"),
    ("series.compose", "binomoment.series", "TruncatedSeries.compose"),
    ("series.compositional_inverse", "binomoment.series",
     "TruncatedSeries.compositional_inverse"),
    ("series.pow_scalar", "binomoment.series", "TruncatedSeries.pow_scalar"),
    ("slater.build_slater_expansion", "binomoment.slater", "build_slater_expansion"),
    ("slater.eval_density", "binomoment.slater", "eval_density"),
    ("closedform.eval_closed", "binomoment.closedform", "eval_closed"),
    ("closedform.measure_model", "binomoment.closedform", "measure_model"),
    ("quadrature.integrate", "binomoment.quadrature", "integrate"),
    ("verify.certify_measure", "binomoment.verify", "certify_measure"),
    ("freeconv.s_transform", "binomoment.freeconv", "s_transform"),
    ("freeconv.from_s_transform", "binomoment.freeconv", "from_s_transform"),
    ("freeconv.identity_suite", "binomoment.freeconv", "identity_suite"),
    ("mellin.factorize", "binomoment.mellin", "factorize"),
    ("mellin.sample", "binomoment.mellin", "sample"),
    ("cli.main", "binomoment.cli", "main"),
)

DENSITY_SPANS = ("slater.eval_density", "closedform.eval_closed")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, thread, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main_ident
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            try:
                parent = (stack or self._main_stack)[-1]
            except IndexError:
                parent = -1
            rec = [name, threading.get_ident(), 0.0, 0.0, parent]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                result = after(self, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every TRACED function at each place it is bound."""
        undo = []
        try:
            for name, module, attr in TRACED:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                for holder in _holders(original):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def summary(self) -> dict:
        """Per span name: calls and self seconds.  Also density calls made
        under quadrature, the base of the certify cache hit ratio."""
        children = defaultdict(list)
        for idx, rec in enumerate(self.spans):
            if rec[4] >= 0:
                children[rec[4]].append(idx)
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        under_quadrature = 0
        for idx, (name, _, start, end, parent) in enumerate(self.spans):
            covered = _union_length(
                [(self.spans[c][2], self.spans[c][3]) for c in children.get(idx, ())],
                start, end)
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - covered
            if name in DENSITY_SPANS and self._has_ancestor(parent, "quadrature.integrate"):
                under_quadrature += 1
        result = dict(out)
        result["_density_under_quadrature"] = under_quadrature
        return result

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            rec = self.spans[idx]
            if rec[0] == name:
                return True
            idx = rec[4]
        return False

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, thread, start, end, parent."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, thread, start, end, parent in self.spans:
                fh.write(json.dumps([name, thread, round(start - t0, 9),
                                     round(end - t0, 9), parent]) + "\n")


def _holders(original):
    """Every binomoment module and class whose namespace binds ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "binomoment" or mod_name.startswith("binomoment.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod_name:
                yield value


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- counters read at the layer boundary ---------------------------------------


def _after_integrate(tracer, result):
    tracer.count("quadrature.evaluations", result.evaluations)
    tracer.count("quadrature.levels", result.levels)
    tracer.count("quadrature.unconverged", 0 if result.converged else 1)
    return result


def _after_sample(tracer, result):
    tracer.count("mellin.sample.draws", len(result))
    return result


def _after_identity_suite(tracer, result):
    # each check's run() becomes a span of its own
    return tuple(dataclasses.replace(c, run=tracer.wrap("freeconv.identity_check", c.run))
                 for c in result)


_AFTER = {
    "quadrature.integrate": _after_integrate,
    "mellin.sample": _after_sample,
    "freeconv.identity_suite": _after_identity_suite,
}
