"""Spans around the public functions of the matsuki modules, aggregated in memory.

A ``Tracer`` wraps a function and rebinds the wrapper in every ``matsuki``
namespace that holds the original, so calls made inside the package (for
example ``mat_inverse`` calling ``determinant``) are counted as well as calls
from outside.  Each wrapped function gets a call count and a self time: the
span's duration minus the time covered by the wrapped spans it contains.
Optionally a span is also recorded under a size bucket of its arguments.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # "module.function" or "module.function|bucket" -> [calls, self seconds]
        self.totals: dict[str, list] = {}
        self._open: list[float] = []  # child time accumulated by each open span
        self._rebound: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, bucket=None):
        """A wrapper of ``fn`` that records spans under ``name``; ``bucket`` maps
        the call's arguments to a label for a second, bucketed record."""
        clock, totals, open_spans = self.clock, self.totals, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = None if bucket is None else bucket(*args, **kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s = duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                for key in (name,) if label is None else (name, f"{name}|{label}"):
                    record = totals.setdefault(key, [0, 0.0])
                    record[0] += 1
                    record[1] += self_s

        return wrapper

    def install(self, targets) -> None:
        """Wrap each ``(module, function, bucket)`` target of the ``matsuki``
        package and rebind the wrapper wherever the original is bound."""
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "matsuki" or name.startswith("matsuki."))
        ]
        for module, function, bucket in targets:
            original = getattr(sys.modules[f"matsuki.{module}"], function)
            wrapper = self.wrap(f"{module}.{function}", original, bucket)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._rebound.append((ns, attr, original))

    def uninstall(self) -> None:
        while self._rebound:
            ns, attr, original = self._rebound.pop()
            setattr(ns, attr, original)

    def calls(self, key: str) -> int:
        return self.totals.get(key, (0, 0.0))[0]

    def self_s(self, key: str) -> float:
        return self.totals.get(key, (0, 0.0))[1]

    def merge(self, totals: dict) -> None:
        """Add totals recorded by another tracer (for example in a child process)."""
        for key, (calls, self_s) in totals.items():
            record = self.totals.setdefault(key, [0, 0.0])
            record[0] += calls
            record[1] += self_s
