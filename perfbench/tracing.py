"""Spans and counts recorded from outside the package.

:class:`Tracer` replaces the public functions of ``fan``, ``atlas`` and
``chern`` by timing wrappers in every module namespace that refers to them, so
calls the package makes internally are recorded too. Spans stay in memory as
(name, start, end, parent, counts) until the benchmark writes them out.
:func:`count_calls` counts calls into one source file through a profile hook.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb

TRACED = {
    "atlas": ("parse", "shipped_database", "record_fan", "validate_record"),
    "fan": ("build_fan", "build_fan_from_rays", "validate_fan", "minimal_nonfaces", "primitive_relation"),
    "chern": ("classify", "ch2_dot_surface"),
}

# counts taken at a span boundary from the call's arguments and result
COUNTERS = {
    "atlas.parse": lambda args, res: {"bytes": len(args[0].encode())},
    "atlas.validate_record": lambda args, res: {"rejected": int(not res.ok)},
    "fan.build_fan_from_rays": lambda args, res: {
        "subsets": comb(len(args[0]), 4),
        "cones": len(res.maxcones),
    },
    "fan.minimal_nonfaces": lambda args, res: {
        "subsets": sum(comb(args[0].ray_count, k) for k in range(2, 6)),
        "nonfaces": len(res),
    },
    "fan.validate_fan": lambda args, res: {"walls": len(args[0].cones3)},
    "chern.classify": lambda args, res: {"surfaces": len(res.values)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def span(self, name, fn):
        """``fn`` wrapped so that every call records a span named ``name``."""
        counters = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, {})
            if counters:
                self.spans[sid][4].update(counters(args, result))
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap the traced functions wherever the package refers to them."""
        modules = (package.fan, package.atlas, package.chern, package.cli)
        saved = []
        for home, names in TRACED.items():
            for name in names:
                original = getattr(getattr(package, home), name)
                wrapped = self.span(f"{home}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        saved.append((mod, name, original))
                        setattr(mod, name, wrapped)
        try:
            yield
        finally:
            for mod, name, original in saved:
                setattr(mod, name, original)

    def totals(self, first: int = 0) -> dict[str, Counter]:
        """Per span name: summed seconds ``s``, ``calls`` and summed counts."""
        out: dict[str, Counter] = defaultdict(Counter)
        for name, start, end, _, counts in self.spans[first:]:
            out[name].update(counts, s=end - start, calls=1)
        return out

    def top_level_seconds(self, first: int = 0) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans[first:] if parent is None)

    def as_json(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "counts": c}
            for i, (n, s, e, p, c) in enumerate(self.spans)
        ]


def count_calls(filename: str, fn) -> Counter:
    """Calls per function name whose code lives in ``filename`` while ``fn()`` runs."""
    counts: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == filename:
            counts[frame.f_code.co_name] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts
