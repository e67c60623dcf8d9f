"""Per-layer tracing of rcmlab from outside the package.

``Tracer.install()`` replaces selected public functions of connfn, simulator,
stats, quadrature, moments, acceptance and cli with wrappers that record a
span (name, start, end, parent) and a few counts at each call.  Each function
is replaced in every rcmlab module (and class) that holds a reference to it,
including tuples such as ``acceptance.CRITERIA``; ``uninstall()`` puts every
original back.  Nothing under ``src/`` is modified.

Spans are kept in memory and written out once, at the end.  A span's self
time is its duration minus the time its child spans cover.  Bookkeeping that
is not a count (the independent kd-tree count of candidate pairs) runs off
the span clock, so it adds nothing to any span.

Only the process that installed the tracer records: forked pool workers
inherit the wrappers but call straight through.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute path, span name)
TARGETS = (
    ("rcmlab.connfn", "ConnectionFunction.eval", "connfn.eval"),
    ("rcmlab.connfn", "ConnectionFunction.tail_radius", "connfn.tail_radius"),
    ("rcmlab.simulator", "simulate_graph", "simulator.simulate_graph"),
    ("rcmlab.simulator", "sample_points", "simulator.sample_points"),
    ("rcmlab.simulator", "connect", "simulator.connect"),
    ("rcmlab.simulator", "pair_uniform", "simulator.pair_uniform"),
    ("rcmlab.simulator", "regraph", "simulator.regraph"),
    ("rcmlab.simulator", "count_isolated", "simulator.count"),
    ("rcmlab.simulator", "count_truncation_family", "simulator.count"),
    ("rcmlab.simulator", "count_components", "simulator.count"),
    ("rcmlab.stats", "replicate_many", "stats.replicate_many"),
    ("rcmlab.quadrature", "adaptive_quad", "quadrature.adaptive_quad"),
    ("rcmlab.quadrature", "overlap_integral", "quadrature.overlap_integral"),
    ("rcmlab.quadrature", "covariogram_shell_mass", "quadrature.covariogram_shell_mass"),
    ("rcmlab.quadrature", "radial_integral", "quadrature.radial_integral"),
    ("rcmlab.moments", "pair_factor", "moments.pair_factor"),
    ("rcmlab.moments", "isolation_prob", "moments.isolation_prob"),
    ("rcmlab.acceptance", "run_all", "acceptance.run_all"),
    ("rcmlab.cli", "main", "cli.main"),
)
N_CRITERIA = 14

# name -> unit, in report order
PER_LAYER = {
    "connfn.tail_radius.calls": "count",
    "connfn.tail_radius.s": "s",
    "connfn.eval.points": "count",
    "simulator.simulate_graph.self_s": "s",
    "simulator.sample_points.s": "s",
    "simulator.points": "count",
    "simulator.connect.self_s": "s",
    "simulator.candidate_pairs": "count",
    "simulator.all_pairs": "count",
    "simulator.candidate_frac": "1",
    "simulator.edges": "count",
    "simulator.edge_yield": "1",
    "simulator.pair_uniform.calls": "count",
    "simulator.pair_uniform.pairs": "count",
    "simulator.pair_uniform.s": "s",
    "simulator.regraph.calls": "count",
    "simulator.regraph.s": "s",
    "simulator.count.s": "s",
    "stats.replicate_many.calls": "count",
    "stats.replications": "count",
    "stats.replicate_many.self_s": "s",
    "stats.pools": "count",
    "stats.pool_start_s": "s",
    "stats.pool_s": "s",
    "quadrature.adaptive_quad.calls": "count",
    "quadrature.adaptive_quad.self_s": "s",
    "quadrature.integrand_points": "count",
    "quadrature.overlap_integral.calls": "count",
    "quadrature.overlap_integral.s": "s",
    "quadrature.overlap_integral.repeat_frac": "1",
    "quadrature.covariogram_shell_mass.calls": "count",
    "quadrature.covariogram_shell_mass.s": "s",
    "quadrature.radial_integral.calls": "count",
    "quadrature.radial_integral.s": "s",
    "quadrature.over_tol": "count",
    "quadrature.errors": "count",
    "moments.pair_factor.calls": "count",
    "moments.pair_factor.s": "s",
    "moments.isolation_prob.calls": "count",
    **{f"acceptance.c{k:02d}_s": "s" for k in range(1, N_CRITERIA + 1)},
    "acceptance.failed": "count",
    "cli.main.self_s": "s",
    "trace.overhead": "1",
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_nested = array("b")  # inside a span of the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._off_clock = 0.0
        self._seen_overlaps: set = set()
        self._saved: dict[tuple[int, str], tuple[object, str, object]] = {}
        self.active = False

    # -- spans -------------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._off_clock

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_nested.append(self._depth[nid] > 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(self.now())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = self.now()
        self._stack.pop()
        self._depth[self.span_name[idx]] -= 1

    def new_op(self):
        """Op boundary: overlap repeats are counted within one op."""
        self._seen_overlaps.clear()

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(tracer, args, kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(exc)
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        wrapper.rcmbench_span = name
        return wrapper

    def _on_error(self, exc: Exception):
        from rcmlab.quadrature import QuadratureError

        if isinstance(exc, QuadratureError) and not getattr(exc, "rcmbench_counted", False):
            exc.rcmbench_counted = True
            self.counts["quadrature.errors"] += 1

    # -- counts taken at the layer boundaries -------------------------------

    def _hooks(self):
        from rcmlab.quadrature import DEFAULT_SPEC
        from scipy.spatial import cKDTree

        def eval_points(tr, args, kwargs):
            tr.counts["connfn.eval.points"] += np.size(_arg(args, kwargs, 1, "x"))
            return args

        def sampled(tr, result, args, kwargs):
            tr.counts["simulator.points"] += result.shape[0]

        def connected(tr, result, args, kwargs):
            t0 = time.perf_counter()
            points = _arg(args, kwargs, 0, "points")
            reach = _arg(args, kwargs, 3, "reach")
            n = points.shape[0]
            tr.counts["simulator.all_pairs"] += n * (n - 1) // 2
            if n >= 2:
                tr.counts["simulator.candidate_pairs"] += len(
                    cKDTree(points).query_pairs(reach, output_type="ndarray")
                )
            tr.counts["simulator.edges"] += result.edge_i.size
            tr._off_clock += time.perf_counter() - t0

        def coin_pairs(tr, args, kwargs):
            tr.counts["simulator.pair_uniform.pairs"] += np.size(_arg(args, kwargs, 1, "i"))
            return args

        def replications(tr, args, kwargs):
            tr.counts["stats.replications"] += _arg(args, kwargs, 2, "m")
            return args

        def quad_in(tr, args, kwargs):
            f = _arg(args, kwargs, 0, "f")

            def counted(x):
                tr.counts["quadrature.integrand_points"] += np.size(x)
                return f(x)

            return (counted, *args[1:]) if args else args

        def quad_out(tr, result, args, kwargs):
            spec = _arg(args, kwargs, 3, "spec", DEFAULT_SPEC)
            if result.error > max(spec.abs_tol, spec.rel_tol * abs(result.value)):
                tr.counts["quadrature.over_tol"] += 1

        def overlap_seen(tr, args, kwargs):
            key = (
                *(_arg(args, kwargs, k, n) for k, n in enumerate(("h1", "h2", "s", "d"))),
                _arg(args, kwargs, 4, "spec", DEFAULT_SPEC),
            )
            if key in tr._seen_overlaps:
                tr.counts["overlap.repeats"] += 1
            else:
                tr._seen_overlaps.add(key)
            return args

        def criterion_done(tr, result, args, kwargs):
            if not result.passed:
                tr.counts["acceptance.failed"] += 1

        return {
            "connfn.eval": (eval_points, None),
            "simulator.sample_points": (None, sampled),
            "simulator.connect": (None, connected),
            "simulator.pair_uniform": (coin_pairs, None),
            "stats.replicate_many": (replications, None),
            "quadrature.adaptive_quad": (quad_in, quad_out),
            "quadrature.overlap_integral": (overlap_seen, None),
            "acceptance.criterion": (None, criterion_done),
        }

    # -- patching ------------------------------------------------------------

    def _holders(self):
        """Every rcmlab module, and every class defined in one."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "rcmlab" or n.startswith("rcmlab.")]
        classes = [
            v for m in mods for v in vars(m).values()
            if isinstance(v, type) and v.__module__ == m.__name__
        ]
        return mods + classes

    def _replace(self, original, wrapper):
        for holder in self._holders():
            for attr, value in list(vars(holder).items()):
                if value is original:
                    new = wrapper
                elif isinstance(value, tuple) and any(v is original for v in value):
                    new = tuple(wrapper if v is original else v for v in value)
                else:
                    continue
                self._saved.setdefault((id(holder), attr), (holder, attr, value))
                setattr(holder, attr, new)

    def install(self):
        import importlib

        from rcmlab import acceptance, cli  # noqa: F401  (loads every module)

        hooks = self._hooks()
        for modname, path, name in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            before, after = hooks.get(name, (None, None))
            original = vars(owner)[attr]
            self._replace(original, self._wrap(name, original, before, after))
        before, after = hooks["acceptance.criterion"]
        for k, criterion in enumerate(acceptance.CRITERIA, start=1):
            self._replace(criterion, self._wrap(f"acceptance.c{k:02d}", criterion, before, after))
        self._patch_pool()
        os.register_at_fork(after_in_child=self._deactivate)
        self.active = True

    def _deactivate(self):
        self.active = False

    def _patch_pool(self):
        from rcmlab import stats

        base = stats.ProcessPoolExecutor
        tracer = self
        nid = self._id("stats.pool")

        class TracedPool(base):
            """Counts pools and times, parent side, starting and running them."""

            def __init__(self, *args, **kwargs):
                self._span = None
                if tracer.active:
                    tracer.counts["stats.pools"] += 1
                    self._span = tracer.open(nid)
                t0 = time.perf_counter()
                super().__init__(*args, **kwargs)
                if self._span is not None:
                    tracer.counts["stats.pool_start_s"] += time.perf_counter() - t0

            def submit(self, *args, **kwargs):
                t0 = time.perf_counter()
                future = super().submit(*args, **kwargs)
                if self._span is not None:
                    tracer.counts["stats.pool_start_s"] += time.perf_counter() - t0
                return future

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.close(self._span)
                        self._span = None

        self._saved[(id(stats), "ProcessPoolExecutor")] = (stats, "ProcessPoolExecutor", base)
        stats.ProcessPoolExecutor = TracedPool

    def uninstall(self):
        self.active = False
        for holder, attr, value in self._saved.values():
            setattr(holder, attr, value)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.intc).copy(),
            "nested": np.frombuffer(self.span_nested, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def write(self, path: Path):
        """Spans as arrays plus the name table, in one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, overhead: float) -> dict:
        sp = self.arrays()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child

        def sel(name):
            nid = self._ids.get(name)
            return sp["name"] == nid if nid is not None else np.zeros(dur.size, bool)

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        def total(name):  # outermost spans only, so recursion is not double counted
            return float(dur[sel(name) & ~sp["nested"]].sum())

        def self_s(name, outermost=False):
            mask = sel(name) & ~sp["nested"] if outermost else sel(name)
            return float(self_time[mask].sum())

        c = self.counts
        overlaps = calls("quadrature.overlap_integral")
        out = {
            "connfn.tail_radius.calls": calls("connfn.tail_radius"),
            "connfn.tail_radius.s": total("connfn.tail_radius"),
            "connfn.eval.points": c["connfn.eval.points"],
            "simulator.simulate_graph.self_s": self_s("simulator.simulate_graph"),
            "simulator.sample_points.s": total("simulator.sample_points"),
            "simulator.points": c["simulator.points"],
            "simulator.connect.self_s": self_s("simulator.connect"),
            "simulator.candidate_pairs": c["simulator.candidate_pairs"],
            "simulator.all_pairs": c["simulator.all_pairs"],
            "simulator.candidate_frac": _ratio(c["simulator.candidate_pairs"], c["simulator.all_pairs"]),
            "simulator.edges": c["simulator.edges"],
            "simulator.edge_yield": _ratio(c["simulator.edges"], c["simulator.candidate_pairs"]),
            "simulator.pair_uniform.calls": calls("simulator.pair_uniform"),
            "simulator.pair_uniform.pairs": c["simulator.pair_uniform.pairs"],
            "simulator.pair_uniform.s": total("simulator.pair_uniform"),
            "simulator.regraph.calls": calls("simulator.regraph"),
            "simulator.regraph.s": total("simulator.regraph"),
            "simulator.count.s": total("simulator.count"),
            "stats.replicate_many.calls": calls("stats.replicate_many"),
            "stats.replications": c["stats.replications"],
            "stats.replicate_many.self_s": self_s("stats.replicate_many"),
            "stats.pools": c["stats.pools"],
            "stats.pool_start_s": c["stats.pool_start_s"],
            "stats.pool_s": total("stats.pool"),
            "quadrature.adaptive_quad.calls": calls("quadrature.adaptive_quad"),
            "quadrature.adaptive_quad.self_s": self_s("quadrature.adaptive_quad"),
            "quadrature.integrand_points": c["quadrature.integrand_points"],
            "quadrature.overlap_integral.calls": overlaps,
            "quadrature.overlap_integral.s": total("quadrature.overlap_integral"),
            "quadrature.overlap_integral.repeat_frac": _ratio(c["overlap.repeats"], overlaps),
            "quadrature.covariogram_shell_mass.calls": calls("quadrature.covariogram_shell_mass"),
            "quadrature.covariogram_shell_mass.s": total("quadrature.covariogram_shell_mass"),
            "quadrature.radial_integral.calls": calls("quadrature.radial_integral"),
            "quadrature.radial_integral.s": total("quadrature.radial_integral"),
            "quadrature.over_tol": c["quadrature.over_tol"],
            "quadrature.errors": c["quadrature.errors"],
            "moments.pair_factor.calls": calls("moments.pair_factor"),
            "moments.pair_factor.s": total("moments.pair_factor"),
            "moments.isolation_prob.calls": calls("moments.isolation_prob"),
            **{
                f"acceptance.c{k:02d}_s": total(f"acceptance.c{k:02d}")
                for k in range(1, N_CRITERIA + 1)
            },
            "acceptance.failed": c["acceptance.failed"],
            # the verify-all call itself; c14's own cli.main calls belong to c14
            "cli.main.self_s": self_s("cli.main", outermost=True),
            "trace.overhead": overhead,
        }
        return {
            name: {"value": int(out[name]) if unit == "count" else float(out[name]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
