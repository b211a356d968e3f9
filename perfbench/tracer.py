"""Span tracer that wraps a package's functions from outside the package.

A span is kept in memory as ``[name_id, parent_index, start, end]`` and the
whole list is written out once the workload has ended.  Consumers inside
ldglimit bind helpers with ``from .module import name``, so every module
namespace that holds the original function object gets the wrapper, not only
the module that defines it.

Clock: ``time.monotonic``, which on Linux is CLOCK_MONOTONIC and so can be
compared across processes (the parent records the spawn time with it).
"""

from __future__ import annotations

import functools
import sys
import time

clock = time.monotonic


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack = [-1]
        self._patched: list[tuple] = []
        self.missing: list[str] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.solves: list[dict] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, key: str, value: float) -> None:
        slot = self.counters.setdefault(name, {})
        slot[key] = slot.get(key, 0.0) + value

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(tracer, span_index, args,
        kwargs, result) runs once the span has closed."""
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, stack[-1], clock(), 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if after is not None:
                after(self, idx, args, kwargs, out)
            return out

        return wrapper

    def install(self, package: str, targets, hooks=None) -> None:
        """Wrap each ``module.function`` of ``targets`` (relative to
        ``package``) in every loaded module of the package that binds it."""
        hooks = hooks or {}
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for target in targets:
            modname, fname = target.rsplit(".", 1)
            home = sys.modules.get(f"{package}.{modname}")
            original = getattr(home, fname, None) if home is not None else None
            if original is None:
                self.missing.append(target)
                continue
            wrapper = self.wrap(target, original, hooks.get(target))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def count_descendants(self, idx: int, name: str) -> int:
        """Spans named ``name`` inside span ``idx``, counted from an
        ``after`` hook of that span.

        Tracing is single-threaded and the hook runs as soon as the span
        closes, so every span recorded after ``idx`` is one of its
        descendants.
        """
        nid = self._ids.get(name)
        return sum(1 for s in self.spans[idx + 1:] if s[0] == nid)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            "solves": self.solves,
            "missing": self.missing,
        }


def aggregate(dump: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds (total minus the
    time covered by direct child spans)."""
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for nid, parent, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i, (nid, parent, t0, t1) in enumerate(spans):
        slot = out[names[nid]]
        slot["calls"] += 1
        slot["s"] += t1 - t0
        slot["self_s"] += t1 - t0 - child_time[i]
    return out
