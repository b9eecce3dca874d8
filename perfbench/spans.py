"""Spans around calls into singquad's public functions, kept in memory.

:class:`Tracer` replaces each function named in :data:`BOUNDARIES` by a
wrapper in every ``singquad`` module namespace that holds it, which is
where callers look it up (``bench.gl_rule``, ``accel.cc_rule_fast``, the
package's own re-exports, ...).  A wrapper records one span per call:
name, start, end, the enclosing span and the current job, plus one number
taken from the call (a rule size, a point count).  Nothing under ``src/``
changes; leaving the ``with`` block restores every original.

Sampling has no public function of its own, so the one private boundary
is ``engine._eval_nodes``, the single routine through which engine turns
nodes into integrand values.  A boundary missing from the program is
skipped and listed in :attr:`Tracer.missing` rather than failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _size_arg(args, kwargs, result):
    return int(args[0] if args else kwargs["n"])


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _result_len(args, kwargs, result):
    return len(result)


def _uncached_reads(args, kwargs, result):
    # integrate(rule, f, cache=None): reads through a cache are counted at
    # SampleCache.values_at; without one every node is a fresh sample
    cache = args[2] if len(args) > 2 else kwargs.get("cache")
    return 0 if cache is not None else result.evals_used


class _CountingIntegrand:
    """Forwards to an integrand and counts the calls made through it."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


# (module, attribute, span name, note taken from (args, kwargs, result))
BOUNDARIES = (
    ("singquad.rules", "gl_rule", "rules.gl_rule", _size_arg),
    ("singquad.rules", "cc_rule_fast", "rules.cc_rule_fast", _size_arg),
    ("singquad.transform", "dct1", "transform.dct1", None),
    ("singquad.transform", "cheb_coeffs", "transform.cheb_coeffs", None),
    ("singquad.transform", "cheb_eval", "transform.cheb_eval", _points),
    ("singquad.engine", "_eval_nodes", "engine.sample", _result_len),
    ("singquad.engine", "integrate", "engine.integrate", _uncached_reads),
    ("singquad.engine", "SampleCache.values_at", "engine.values_at", _result_len),
    ("singquad.singular", "exponent_ladder", "singular.exponent_ladder", None),
    ("singquad.singular", "predict_coeff", "singular.predict_coeff", None),
    ("singquad.accel", "richardson", "accel.richardson", None),
    ("singquad.accel", "fit_rate", "accel.fit_rate", None),
    ("singquad.bench", "tanh_sinh", "bench.tanh_sinh", None),
    ("singquad.bench", "run_experiment", "bench.run_experiment", None),
)

# spans whose note is a size n, so distinct sizes are reported
SIZED = {"rules.gl_rule", "rules.cc_rule_fast"}


class Tracer:
    """Records spans while installed; use as ``with Tracer() as t: ...``."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job, note]
        self.job = -1
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, note):
        tracer = self
        counting = name == "bench.tanh_sinh"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            if counting:
                counter = _CountingIntegrand(args[0])
                args = (counter,) + args[1:]
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if counting:
                record[5] = counter.calls
            elif note is not None:
                record[5] = note(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "singquad" or k.startswith("singquad.")]
        for module_name, attr, name, note in BOUNDARIES:
            owner = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, method, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, method, self._wrap(name, original, note))
                self._undo.append((cls, method, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s, note sum, distinct sizes."""
        child_time = defaultdict(float)
        for name, start, end, parent, job, note in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        per_job_richardson = defaultdict(int)
        for i, (name, start, end, parent, job, note) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "note": 0, "sizes": set()})
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            if note is not None:
                if name in SIZED:
                    s["sizes"].add(note)
                else:
                    s["note"] += note
            if name == "accel.richardson":
                per_job_richardson[job] += 1
        for s in out.values():
            s["sizes"] = sorted(s["sizes"])
        out["accel.doublings"] = sum(max(c - 1, 0) for c in per_job_richardson.values())
        return out

