"""Layer tracer for the benchmark's traced runs, installed from outside gqw.

A layer is one module of ``src/gqw``.  Every public function of a layer and
every public method of a class it defines is replaced by a wrapper, in every
``gqw`` namespace that holds it: ``from .expr import add`` binds ``add``
separately in each importing module, so patching ``gqw.expr`` alone would
miss most calls.  No file of gqw is edited.

A wrapper always counts its call.  It opens a span only where the layer
changes; the span remembers its parent layer, and a layer's self time is the
sum of its spans minus the time their child spans cover.  Time outside every
layer belongs to the root layer, ``bench``.  Spans are aggregated per
(parent, child) edge in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("expr", "parse", "sample", "forms", "symplectic", "circle",
          "mpc_group", "mpc_bundle", "flows", "system", "suites")
SUITES = ("poisson", "circle-iso", "dirac", "group", "mpc-iso", "delta",
          "counterexamples")
ROOT = "bench"

# Per-function call counts reported as metrics (a subset of what is counted).
NAMED_CALLS = (
    "expr.add", "expr.mul", "expr.power", "expr.diff", "expr.evalf",
    "sample.expr_equal", "symplectic.hamiltonian_vf", "symplectic.poisson",
    "forms.interior_product", "forms.lie_bracket", "forms.exterior_derivative",
    "mpc_group.mat_exp", "mpc_group.kappa", "mpc_group.lift_path",
    "mpc_group.exp_mpc", "mpc_bundle.structured_bracket",
    "mpc_bundle.delta_operator", "circle.ks_operator", "circle.E_circle",
    "flows.rk4_step", "flows.flow_commutator", "parse.parse_expr",
)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.calls = {}
        self.self_s = dict.fromkeys(LAYERS + (ROOT,), 0.0)
        self.edges = {}  # (parent layer, layer) -> [spans, seconds]
        self.stack = [[ROOT, self.clock(), 0.0]]
        self.suite_s = dict.fromkeys(SUITES, 0.0)
        self.mat_exp_s = 0.0
        self.hvf_seen = set()
        self.lift_steps = 0
        # expr_equal bookkeeping: comparisons by outcome, draws, points
        self.structural = self.sampled = 0
        self.draws = self.accepted = self.points = 0
        self._in_equal = self._in_admissible = 0
        self.wrapped = {}  # original function -> wrapper

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str):
        calls, stack, self_s, edges, clock = (
            self.calls, self.stack, self.self_s, self.edges, self.clock)
        calls[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1]
            if parent[0] is layer:
                return fn(*args, **kwargs)
            span = [layer, clock(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - span[1]
                self_s[layer] += dur - span[2]
                parent[2] += dur
                edge = edges.get((parent[0], layer))
                if edge is None:
                    edges[(parent[0], layer)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and methods, then rebind the
        wrappers in all loaded gqw modules."""
        for layer in LAYERS:
            mod = sys.modules[f"gqw.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self.wrapped[obj] = self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, mname, self._wrap(
                                meth, layer, f"{layer}.{name}.{mname}"))
        self._add_probes()
        self._rebind(self.wrapped)

    def _rebind(self, mapping) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "gqw" and not modname.startswith("gqw."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in mapping:
                    setattr(mod, name, mapping[obj])

    def _probe(self, module: str, name: str, make) -> None:
        """Put ``make(generic wrapper)`` in place of a function's wrapper."""
        orig = getattr(sys.modules[f"gqw.{module}"], name)
        self.wrapped[orig] = functools.wraps(orig)(make(self.wrapped[orig]))

    def _add_probes(self) -> None:
        clock = self.clock

        def hamiltonian_vf(inner):
            def w(f, s, *args, **kwargs):
                self.hvf_seen.add((f, id(s)))
                return inner(f, s, *args, **kwargs)
            return w

        def lift_path(inner):
            def w(path, steps, *args, **kwargs):
                self.lift_steps += steps
                return inner(path, steps, *args, **kwargs)
            return w

        def mat_exp(inner):
            def w(*args, **kwargs):
                t = clock()
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.mat_exp_s += clock() - t
            return w

        def expr_equal(inner):
            def w(*args, **kwargs):
                draws = self.draws
                self._in_equal += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._in_equal -= 1
                    if self.draws == draws:
                        self.structural += 1
                    else:
                        self.sampled += 1
            return w

        def evalf(inner):
            def w(*args, **kwargs):
                if not self._in_equal or self._in_admissible:
                    return inner(*args, **kwargs)
                out = inner(*args, **kwargs)
                self.points += 1  # a residual evaluated at an accepted draw
                return out
            return w

        self._probe("symplectic", "hamiltonian_vf", hamiltonian_vf)
        self._probe("mpc_group", "lift_path", lift_path)
        self._probe("mpc_group", "mat_exp", mat_exp)
        self._probe("sample", "expr_equal", expr_equal)
        self._probe("expr", "evalf", evalf)

        sampler = sys.modules["gqw.sample"].DomainSampler
        admissible = sampler.admissible

        @functools.wraps(admissible)
        def admissible_probe(this, point):
            if not self._in_equal:
                return admissible(this, point)
            self.draws += 1
            self._in_admissible += 1
            try:
                ok = admissible(this, point)
            finally:
                self._in_admissible -= 1
            self.accepted += bool(ok)
            return ok

        sampler.admissible = admissible_probe

        builders = sys.modules["gqw.suites"]._SUITE_BUILDERS
        for suite, build in list(builders.items()):
            builders[suite] = self._timed_builder(suite, build)

    def _timed_builder(self, suite: str, build):
        def timed(fn):
            def run():
                t = self.clock()
                try:
                    return fn()
                finally:
                    self.suite_s[suite] += self.clock() - t
            return run

        def builder(spec):
            t = self.clock()
            try:
                checks = build(spec)
            finally:
                self.suite_s[suite] += self.clock() - t
            return [(cid, anchor, timed(fn)) for cid, anchor, fn in checks]

        return builder

    # -- results ---------------------------------------------------------

    def finish(self) -> dict:
        """Close the root span and return the per-layer metrics (the caller
        adds the process-level ones) and the span edges."""
        root = self.stack[0]
        self.self_s[ROOT] = self.clock() - root[1] - root[2]
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_s[layer]
            m[f"{layer}.calls"] = sum(
                n for k, n in self.calls.items() if k.split(".", 1)[0] == layer)
        for key in NAMED_CALLS:
            m[f"{key}.calls"] = self.calls.get(key, 0)
        hvf = self.calls.get("symplectic.hamiltonian_vf", 0)
        m["symplectic.hamiltonian_vf.distinct"] = len(self.hvf_seen)
        m["symplectic.hamiltonian_vf.distinct_ratio"] = len(self.hvf_seen) / hvf if hvf else 0.0
        m["sample.structural"] = self.structural
        m["sample.sampled"] = self.sampled
        m["sample.draws"] = self.draws
        m["sample.accepted"] = self.accepted
        m["sample.accept_ratio"] = self.accepted / self.draws if self.draws else 0.0
        m["sample.points_evaluated"] = self.points
        m["mpc_group.mat_exp.self_s"] = self.mat_exp_s
        m["mpc_group.lift_path.steps"] = self.lift_steps
        for suite in SUITES:
            m[f"suites.{suite}.s"] = self.suite_s[suite]
        edges = [[p, c, n, s] for (p, c), (n, s) in sorted(self.edges.items())]
        return {"metrics": m, "root_self_s": self.self_s[ROOT], "edges": edges}
