"""Per-layer tracing of gqd from outside the program.

The traced run replaces module-level functions of the gqd layers with
wrappers that record spans (name, start, end, parent, attributes), timers
(calls and seconds) or plain call counts.  Nothing in ``src/`` is edited.

A function object is replaced in *every* gqd module that binds it, so calls
through ``from .core import x`` copies are caught as well as calls through
the defining module.  Intra-module calls resolve through the module's
globals, which is the same dictionary a module attribute lives in; install
checks that for every binding it patches.  A wrapped attribute that no
longer exists is skipped and reported under ``missing``.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType


def _hook_cli_main(attrs, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    attrs["command"] = argv[0] if argv else None


def _hook_ground(attrs, args, kwargs, result):
    # (vector, degenerate) as of commit 68e19aa; other shapes record nothing.
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], bool):
        attrs["degenerate"] = result[1]


def _hook_build(attrs, args, kwargs, result):
    nnz = getattr(result, "nnz", None)
    if nnz is not None:
        attrs["nnz"] = int(nnz)


def _hook_gqd(attrs, args, kwargs, result):
    attrs["strategy"] = getattr(result, "strategy", None)
    basis = getattr(result, "basis", None)
    attrs["n"] = len(basis) if basis is not None else None
    attrs["evaluations"] = int(getattr(result, "evaluations", 0))
    attrs["converged"] = bool(getattr(result, "converged", False))


# (module, attribute, span name, result hook).  Spans nest; they are kept
# for calls made at most a few hundred times per second.
SPANS = (
    ("gqd.cli", "main", "cli.main", _hook_cli_main),
    ("gqd.cli", "_emit", "cli.emit", None),
    ("gqd.selftest", "run_selftest", "selftest.run", None),
    ("gqd.ashkin_teller", "gqd_scan", "at.scan", None),
    ("gqd.ashkin_teller", "_ground_vector", "at.ground", _hook_ground),
    ("gqd.ashkin_teller", "build_hamiltonian_sparse", "at.build", _hook_build),
    ("gqd.ashkin_teller", "reduce_to_group", "at.reduce", None),
    ("gqd.correlations", "gqd", "corr.gqd", _hook_gqd),
    ("gqd.correlations", "symmetric_discord", "corr.symmetric", None),
    ("gqd.correlations", "discord_asymmetric", "corr.asym", None),
    ("gqd.correlations", "_minimize_over_angles", "corr.optimize", None),
    ("gqd.correlations", "_scipy_minimize", "corr.refine", None),
)

# Calls and total seconds only, for functions called thousands of times.
TIMERS = (
    ("gqd.core", "DensityOperator.__post_init__", "core.density_ctor"),
    ("gqd.core", "eig_hermitian", "core.eig_hermitian"),
    ("gqd.core", "partial_trace", "core.partial_trace"),
    ("gqd.core", "relative_entropy", "core.relative_entropy"),
    ("gqd.measurement", "dephase", "meas.dephase"),
    ("gqd.measurement", "reduced_eigenbasis", "meas.reduced_eigenbasis"),
    ("gqd.states", "werner_ghz", "states.werner_ghz"),
    ("gqd.states", "random_density", "states.random_density"),
)

# Call counts only, for functions on the per-evaluation hot path.
COUNTERS = (
    ("gqd.core", "shannon_entropy", "core.shannon"),
    ("gqd.measurement", "qubit_unitary", "meas.qubit_unitary"),
)


class Tracer:
    """In-memory recorder; spans are ``[name, start, end, parent, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.timers: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def root(self, name: str, **attrs):
        """Span around one unit of benchmark work; its descendants share its id."""
        rec = [name, perf_counter(), 0.0, None, dict(attrs)]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, {}]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(rec[4], args, kwargs, result)
            return result

        return wrapper

    def _timer(self, name, fn):
        slot = self.timers.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += perf_counter() - t
                slot[0] += 1

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        self.missing = []
        for module, attr, name, hook in SPANS:
            self._patch(module, attr, lambda fn, n=name, h=hook: self._span(n, fn, h))
        for module, attr, name in TIMERS:
            self._patch(module, attr, lambda fn, n=name: self._timer(n, fn))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _patch(self, module_name: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{attr}")
            return
        path, _, key = attr.rpartition(".")
        for part in path.split(".") if path else ():
            owner = getattr(owner, part, None)
        original = getattr(owner, key, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        if isinstance(owner, ModuleType):
            packages = [m for n, m in list(sys.modules.items())
                        if n == "gqd" or n.startswith("gqd.")]
            targets = [(m, k) for m in packages for k, v in list(vars(m).items())
                       if v is original]
        else:
            targets = [(owner, key)]
        for target, name in targets:
            setattr(target, name, wrapper)
            self._restore.append((target, name, original))
            # A call inside the module looks the name up in its globals.
            if isinstance(target, ModuleType) and eval(name, vars(target)) is not wrapper:
                raise RuntimeError(f"{target.__name__}.{name} is not reached through globals")

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "timers": self.timers,
            "counts": self.counts,
            "missing": self.missing,
        }


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, items: int, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit).

    ``_s`` metrics are mean seconds per call of the layer function; ``_n``
    and ``_calls`` metrics are calls per benchmark item.  A layer the
    workload never reaches reads 0.
    """
    spans = tracer.spans
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def nearest(i, match):
        """Index of the closest ancestor whose name satisfies ``match``."""
        p = spans[i][3]
        while p is not None and not match(spans[p][0]):
            p = spans[p][3]
        return p

    def mean_dur(name):
        return _mean(dur(i) for i in by_name[name])

    def inner_total(outer, inner):
        """Seconds of ``inner`` spans under each ``outer`` span, by outer index."""
        total = dict.fromkeys(by_name[outer], 0.0)
        for i in by_name[inner]:
            p = nearest(i, outer.__eq__)
            if p is not None:
                total[p] += dur(i)
        return total

    def timer(name):
        calls, seconds = tracer.timers.get(name, (0, 0.0))
        return calls, (seconds / calls if calls else 0.0)

    def per_item(calls):
        return calls / items if items else 0.0

    m: dict[str, tuple[float, str]] = {}

    builds = inner_total("at.ground", "at.build")
    m["at.build_s"] = (mean_dur("at.build"), "s")
    m["at.ground_s"] = (mean_dur("at.ground"), "s")
    m["at.solve_s"] = (_mean(dur(i) - b for i, b in builds.items()), "s")
    m["at.reduce_s"] = (mean_dur("at.reduce"), "s")
    m["at.points"] = (len(by_name["at.ground"]), "count")
    m["at.degenerate_points"] = (
        sum(spans[i][4].get("degenerate", False) for i in by_name["at.ground"]), "count")
    m["at.h_nnz"] = (_mean(spans[i][4].get("nnz", 0) for i in by_name["at.build"]), "count")

    minimized = [i for i in by_name["corr.gqd"] if spans[i][4]["strategy"] == "minimize"]
    for n in (2, 3, 4):
        mine = [i for i in minimized if spans[i][4]["n"] == n]
        m[f"corr.minimize_s.n{n}"] = (_mean(dur(i) for i in mine), "s")
        m[f"corr.evals.n{n}"] = (_mean(spans[i][4]["evaluations"] for i in mine), "count")
    evals = sum(spans[i][4]["evaluations"] for i in minimized)
    m["corr.eval_us"] = (1e6 * sum(dur(i) for i in minimized) / evals if evals else 0.0, "us")
    refine = inner_total("corr.optimize", "corr.refine")
    m["corr.refine_s"] = (_mean(refine.values()), "s")
    m["corr.coarse_s"] = (_mean(dur(i) - r for i, r in refine.items()), "s")
    m["corr.converged_frac"] = (_mean(spans[i][4]["converged"] for i in minimized), "ratio")
    m["corr.symmetric_s"] = (mean_dur("corr.symmetric"), "s")
    m["corr.asym_s"] = (mean_dur("corr.asym"), "s")
    m["corr.fixed_s"] = (
        _mean(dur(i) for i in by_name["corr.gqd"] if spans[i][4]["strategy"] != "minimize"), "s")

    calls, seconds = timer("core.density_ctor")
    m["core.density_ctor_n"] = (per_item(calls), "count/item")
    m["core.density_ctor_s"] = (seconds, "s")
    calls, seconds = timer("core.eig_hermitian")
    m["core.eig_hermitian_n"] = (per_item(calls), "count/item")
    m["core.eig_hermitian_s"] = (seconds, "s")
    m["core.partial_trace_s"] = (timer("core.partial_trace")[1], "s")
    m["core.relative_entropy_s"] = (timer("core.relative_entropy")[1], "s")
    m["core.shannon_calls"] = (per_item(tracer.counts.get("core.shannon", 0)), "count/item")

    m["meas.dephase_s"] = (timer("meas.dephase")[1], "s")
    m["meas.reduced_eigenbasis_n"] = (per_item(timer("meas.reduced_eigenbasis")[0]), "count/item")
    m["meas.qubit_unitary_n"] = (per_item(tracer.counts.get("meas.qubit_unitary", 0)), "count/item")

    m["states.werner_ghz_s"] = (timer("states.werner_ghz")[1], "s")
    m["states.random_density_s"] = (timer("states.random_density")[1], "s")

    # Wall time of an at-scan command outside its outermost at./corr. spans.
    def layered(name):
        return name.startswith(("at.", "corr."))

    outside = {i: dur(i) for i in by_name["cli.main"] if spans[i][4].get("command") == "at-scan"}
    for i, s in enumerate(spans):
        if layered(s[0]):
            p = nearest(i, lambda name: name == "cli.main" or layered(name))
            if p in outside:
                outside[p] -= dur(i)
    m["cli.emit_s"] = (mean_dur("cli.emit"), "s")
    m["cli.overhead_s"] = (_mean(outside.values()), "s")

    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0, "ratio")
    m["trace.missing_n"] = (len(tracer.missing), "count")
    return m
