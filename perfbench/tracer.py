"""Span tracer that wraps the public functions of the ``dfmm`` modules.

Every wrapped call is a span. Spans nest through a stack, so each span's
self time is its duration minus the time covered by the spans it caused.
The tracer aggregates per span name (calls, self and total time, errors
raised by class, ``None`` returns) and per caller/callee edge, instead of
keeping every span: a busy run makes ~10^6 calls.

Each wrapped function is replaced at every module binding, not only in
its home module, because ``from .eldf import integrate_eldf`` makes a
binding in the importing module that patching ``dfmm.eldf`` would miss.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

# Fixed-point helpers are called ~10^5-10^6 times per run: a wrapper would
# swamp their cost, which therefore lands in their callers' self time.
EXCLUDED_MODULES = ("dfmm.money", "dfmm.errors")

# Return-value counters: span name -> function of the result.
EXTRACTORS = {"auction.auction_step": lambda result: len(result[1])}


def _dfmm_modules() -> list:
    return sorted(
        (name, mod)
        for name, mod in sys.modules.items()
        if mod is not None and (name == "dfmm" or name.startswith("dfmm."))
    )


def targets() -> list:
    """(span name, owner, attribute, function) for every function to wrap.

    Public module-level functions of every dfmm module, plus the public
    methods of the classes in ``dfmm.sim`` (the engine, market and agents),
    named ``<module>.<function>`` without the ``dfmm.`` prefix.
    """
    found = []
    for modname, mod in _dfmm_modules():
        if modname in EXCLUDED_MODULES:
            continue
        short = modname[len("dfmm."):] if modname != "dfmm" else "dfmm"
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                found.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj) and modname.startswith("dfmm.sim."):
                for mattr, mobj in sorted(vars(obj).items()):
                    if not mattr.startswith("_") and inspect.isfunction(mobj):
                        found.append((f"{short}.{mattr}", obj, mattr, mobj))
    names = [t[0] for t in found]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise RuntimeError(f"span names collide: {dupes}")
    return found


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.errors = Counter()  # (name, exception class) -> count
        self.none_returns = Counter()
        self.extras = Counter()
        self.edges = Counter()  # (caller span or "", callee span) -> count
        self._stack: list = []
        self._originals: dict = {}

    def wrap(self, name: str, fn):
        stack = self._stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        errors, none_returns, edges = self.errors, self.none_returns, self.edges
        extras, extract = self.extras, EXTRACTORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            caller = stack[-1][1] if stack else ""
            stack.append((frame, name))
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0][0] += dt
                calls[name] += 1
                self_ns[name] += dt - frame[0]
                total_ns[name] += dt
                edges[(caller, name)] += 1
            if result is None:
                none_returns[name] += 1
            if extract is not None:
                extras[name] += extract(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every binding."""
        wrappers = {}
        for name, owner, attr, fn in targets():
            wrappers[id(fn)] = (fn, self.wrap(name, fn))
            if inspect.isclass(owner):
                setattr(owner, attr, wrappers[id(fn)][1])
        for _, mod in _dfmm_modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self._originals = {key: fn for key, (fn, _) in wrappers.items()}

    def unpatched(self) -> list:
        """Module bindings that still point at an unwrapped target."""
        left = []
        for modname, mod in _dfmm_modules():
            for attr, obj in vars(mod).items():
                original = self._originals.get(id(obj))
                if original is not None and original is obj:
                    left.append(f"{modname}.{attr}")
        return sorted(left)

    def report(self) -> dict:
        errors: dict = {}
        for (name, cls), n in self.errors.items():
            errors.setdefault(name, {})[cls] = n
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "self_ns": self.self_ns[name],
                    "total_ns": self.total_ns[name],
                    "none_returns": self.none_returns[name],
                    "extra": self.extras[name],
                    "errors": errors.get(name, {}),
                }
                for name in sorted(self.calls)
            },
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
            "unpatched": self.unpatched(),
        }
