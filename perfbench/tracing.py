"""Span recording around the public functions of the gsvdist layers.

The tracer replaces each public function of a layer module with a recorder
and rebinds it in every loaded ``gsvdist`` module namespace that holds the
original object.  Callers that resolve a name as a module global at call
time (``run_experiment`` looking up ``sample_w_gsvd``, ``marginal_pdf``
looking up ``marginal_terms``) are therefore seen, as are calls the
benchmark makes through the package namespace.  Nothing in the package is
edited.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span on the same thread (-1 at top level) and ``info`` is
``None`` or a small dict (``error``, ``arrays``, ``count``/``failures``).
Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import sys
import threading
import time

import numpy as np

# layer name -> gsvdist modules whose public functions belong to it;
# linalg and errors are engine helpers
LAYERS = {
    "ensembles": ("ensembles",),
    "engine": ("engine", "linalg", "errors"),
    "laws": ("laws",),
    "quadrature": ("quadrature",),
    "montecarlo": ("montecarlo",),
    "cli": ("cli",),
}


class NullTracer:
    """Stand-in used by untraced passes: phase spans cost nothing."""

    traced = False

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    traced = True

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _open(self, name: str) -> tuple[list, list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span, stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Benchmark phase span (``bench.*``) around a block of calls."""
        span, stack = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        def recorder(*args, **kwargs):
            span, stack = self._open(name)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = {"error": True}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _note(args, result)
            return result

        return recorder

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": self.spans}, fh)


def _note(args, result):
    info = {}
    if any(isinstance(a, np.ndarray) for a in args):
        info["arrays"] = True
    count = getattr(result, "count", None)
    failures = getattr(result, "failures", None)
    if isinstance(count, int) and isinstance(failures, int):
        info["count"] = count
        info["failures"] = failures
    return info or None


def install(tracer: Tracer) -> None:
    """Rebind every public layer function in every loaded gsvdist module."""
    loaded = [m for n, m in list(sys.modules.items())
              if m is not None and (n == "gsvdist" or n.startswith("gsvdist."))]
    for layer, shorts in LAYERS.items():
        for short in shorts:
            mod = sys.modules.get(f"gsvdist.{short}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                recorder = tracer.wrap(f"{layer}.{attr}", fn)
                for target in loaded:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, key, recorder)


# ---- reading spans ---------------------------------------------------------


class SpanIndex:
    """Parent/child lookups and self time over one pass's spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, span in enumerate(spans):
            self.children.setdefault(span[3], []).append(i)

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def named(self, name: str, parent_name: str | None = None) -> list[int]:
        """Spans called ``name`` (a prefix when it ends in '.'), optionally
        only those whose direct parent is called ``parent_name``."""
        out = []
        for i, span in enumerate(self.spans):
            if not (span[0] == name or (name.endswith(".") and span[0].startswith(name))):
                continue
            if parent_name is not None:
                parent = span[3]
                if parent < 0 or self.spans[parent][0] != parent_name:
                    continue
            out.append(i)
        return out

    def under(self, i: int, prefix: str) -> bool:
        """Whether some ancestor of span ``i`` has a name starting with prefix."""
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False

    def self_time(self, i: int) -> float:
        """Duration minus the part of the interval covered by child spans."""
        start, end = self.spans[i][1], self.spans[i][2]
        covered = 0.0
        cursor = start
        kids = sorted((self.spans[c][1], self.spans[c][2]) for c in self.children.get(i, ()))
        for lo, hi in kids:
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (end - start) - covered

    def info(self, i: int, key: str, default=None):
        info = self.spans[i][4]
        return default if info is None else info.get(key, default)


def median_of(index: SpanIndex, ids: list[int], scale: float = 1.0) -> float:
    if not ids:
        return float("nan")
    return statistics.median(index.duration(i) for i in ids) * scale
