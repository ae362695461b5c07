"""Spans around kovex's public functions, installed from outside the package.

Every public module-level function of the seven kovex modules is wrapped
in each kovex namespace that binds it, so calls made inside the package
are seen too: ``kovex.degeneration.find_loci`` and ``kovex.cli.find_loci``
get their own wrappers around the same ``kovalevskaya.find_loci``, and a
span remembers which binding (its *site*) was called.

A span is (name, site, start, end, parent, job, self_s); parent is the
index of the enclosing span or -1.  Self time is the span's duration minus
the time its child spans cover.  Spans stay in memory until the run ends.
Observers turn a function's return value into work counts (``counts``),
taken where the work happens.
Wrappers neither catch nor touch exceptions or warnings: ``NoLocusFound``
is control flow inside the package and must arrive unchanged.  (A warning
raised with ``stacklevel=2`` is attributed to the wrapper's frame; its
category and message are the same.)
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from typing import Callable

MODULES = ("vfparse", "vfmodel", "kovalevskaya", "exactalg", "laurent",
           "degeneration", "cli")

# MultiPoly's constructor converts every coefficient through as_fraction,
# about 140k calls per corpus pass: a span there would cost more than the
# call and would bill polynomial arithmetic in every module to exactalg.
# Its time stays with the caller, as does that of MultiPoly's methods.
UNWRAPPED = frozenset({"exactalg.as_fraction"})


class Tracer:
    def __init__(self, observers: dict[str, Callable] | None = None):
        """observers maps a span name to a function from the call's return
        value to {counter: increment}."""
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._observers = observers or {}
        self._installed: list = []

    def wrap(self, name: str, site: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, site, start, end, parent, self.job,
                                end - start - frame[1])
            if observe is not None:
                self.counts.update(observe(result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def install(self) -> None:
        """Wrap every public kovex function at every site that binds it."""
        mods = {m: importlib.import_module(f"kovex.{m}") for m in MODULES}
        for home, module in mods.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or f"{home}.{attr}" in UNWRAPPED):
                    continue
                for site, site_module in mods.items():
                    for bound, value in list(vars(site_module).items()):
                        if value is fn:
                            wrapped = self.wrap(f"{home}.{attr}", site, fn)
                            setattr(site_module, bound, wrapped)
                            self._installed.append((site_module, bound, fn))

    def uninstall(self) -> None:
        for module, bound, fn in reversed(self._installed):
            setattr(module, bound, fn)
        self._installed.clear()

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans were opened."""
        with open(path, "w", encoding="utf-8") as out:
            for name, site, start, end, parent, job, self_s in self.spans:
                out.write(json.dumps({"name": name, "site": site,
                                      "start": start, "end": end,
                                      "parent": parent, "job": job,
                                      "self_s": self_s}) + "\n")


def summarize(spans) -> dict:
    """Per span name: calls, total_s and self_s; per site binding: calls and
    total_s under ``site>name``; per module: self_s."""
    out: dict = {}
    for name, site, start, end, _parent, _job, self_s in spans:
        for key in (name, f"{site}>{name}"):
            entry = out.setdefault(key, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        module = out.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
        module["calls"] += 1
        module["self_s"] += self_s
    return out
