"""Out-of-tree tracing for the phasekit benchmark.

``Tracer.install`` wraps the public functions of every phasekit module at
every place they are bound (``cli.legendre`` as well as
``constraints.legendre``), the ``value`` method of each ``Profile`` class,
``Rat`` construction, and the right-hand sides that ``compile_rhs`` and
``compile_scalar`` return.  Nothing inside the package is edited.

Every wrapped call updates a call count and, for its outermost activation,
a busy time.  Module self time is the wall time during which a module's
frame is the innermost traced frame, i.e. its span time minus its child
spans in other modules.  Calls above the exact-arithmetic core also record
a span ``(name, start, end, parent, op)``; the core (``expr``, ``_poly``)
and the compiled right-hand sides run millions of times per run and are
counted and timed without a span each.  Everything stays in memory until
``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# metric names start with a letter, so _poly reports as poly
MODULES = ("expr", "_poly", "constraints", "brackets", "dynamics",
           "invariants", "canonical", "cli")
NO_SPAN_MODULES = {"expr", "poly"}
NO_SPAN_NAMES = {"dynamics.rhs"}
# predicates and monomial helpers cost less than a wrapper; their time
# counts toward the frame that calls them
UNWRAPPED = {"poly." + name for name in (
    "is_zero", "is_const", "const_value", "leading", "mono_mul", "mono_div",
    "mono_degree", "mono_cmp", "poly_const", "poly_symbol", "poly_vars",
    "poly_degree_in")}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)      # outermost activations only
        self.max = defaultdict(float)        # longest outermost activation
        self.self_s = defaultdict(float)
        self.steps = {"accepted": 0, "rejected": 0}
        self.spans = []
        self.op = -1
        self._active = defaultdict(int)
        self._stack = []                     # (module, span index)
        self._mark = time.perf_counter()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, key: str, fn):
        module = key.split(".", 1)[0]
        with_span = module not in NO_SPAN_MODULES and key not in NO_SPAN_NAMES
        clock = time.perf_counter
        active, stack, spans = self._active, self._stack, self.spans
        calls, total, longest, self_s = (self.calls, self.total, self.max,
                                          self.self_s)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            if stack:
                self_s[stack[-1][0]] += start - self._mark
            self._mark = start
            calls[key] += 1
            active[key] += 1
            parent = stack[-1][1] if stack else -1
            index = parent
            if with_span:
                index = len(spans)
                spans.append([key, start, None, parent, self.op])
            stack.append((module, index))
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[module] += end - self._mark
                self._mark = end
                stack.pop()
                active[key] -= 1
                if not active[key]:
                    elapsed = end - start
                    total[key] += elapsed
                    if elapsed > longest[key]:
                        longest[key] = elapsed
                if with_span:
                    spans[index][2] = end

        return traced

    def install(self, package) -> None:
        """Wrap ``package``'s public functions wherever they are bound."""
        replacements = {}
        originals = []
        for name in MODULES:
            module = sys.modules[f"{package.__name__}.{name}"]
            for attr, value in list(vars(module).items()):
                if (not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                originals.append(value)
                key = f"{name.lstrip('_')}.{attr}"
                if attr.startswith("_") or key in UNWRAPPED:
                    continue
                wrapper = self.wrap(key, value)
                if attr in ("compile_rhs", "compile_scalar"):
                    wrapper = self._wrap_factory(wrapper)
                if attr == "integrate":
                    wrapper = self._wrap_integrate(wrapper)
                replacements[id(value)] = wrapper
        for module_name, module in list(sys.modules.items()):
            if module_name != package.__name__ and not module_name.startswith(
                    package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        # defaults bind too: hamilton_eom(bracket=poisson) tests identity
        for fn in originals:
            if fn.__defaults__:
                fn.__defaults__ = tuple(replacements.get(id(d), d)
                                        for d in fn.__defaults__)

        expr = sys.modules[f"{package.__name__}.expr"]
        for cls in vars(expr).values():
            if (inspect.isclass(cls) and issubclass(cls, expr.Profile)
                    and "value" in vars(cls)):
                cls.value = self.wrap("expr.profile_value", vars(cls)["value"])
        rat = sys.modules[f"{package.__name__}._poly"].Rat
        rat.__init__ = self.wrap("poly.rat_created", rat.__init__)

    def _wrap_factory(self, factory):
        """Wrap every callable the RHS compilers hand out."""
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap("dynamics.rhs", factory(*args, **kwargs))
        return traced_factory

    def _wrap_integrate(self, integrate):
        """Read accepted/rejected steps from ``Trajectory.stats``."""
        @functools.wraps(integrate)
        def traced_integrate(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            stats = traj.stats or {}
            self.steps["accepted"] += int(stats.get("steps", 0))
            self.steps["rejected"] += int(stats.get("rejected", 0))
            return traj
        return traced_integrate

    # -- results -----------------------------------------------------------

    def metric(self, name: str) -> float:
        """Value of one per-layer metric by its BENCHMARK.json name."""
        if name.endswith(".self_s"):
            return self.self_s[name[:-len(".self_s")]]
        if name == "poly.rat_created":
            return float(self.calls[name])
        if name.startswith("dynamics.step"):
            accepted, rejected = self.steps["accepted"], self.steps["rejected"]
            if name == "dynamics.steps_accepted":
                return float(accepted)
            if name == "dynamics.steps_rejected":
                return float(rejected)
            attempted = accepted + rejected
            return accepted / attempted if attempted else 0.0
        key, _, kind = name.rpartition(".")
        if kind == "calls":
            return float(self.calls[key])
        if kind == "total_s":
            return self.total[key]
        if kind == "max_s":
            return self.max[key]
        raise KeyError(name)

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload.update({
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "max_s": dict(self.max),
            "self_s": dict(self.self_s),
            "steps": self.steps,
        })
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
