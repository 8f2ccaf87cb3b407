"""Span tracing of countdag from outside the package.

The tracer replaces the module-level names through which one countdag layer
calls the next with thin wrappers. A wrapper opens a span, calls the
original with the same arguments, closes the span and reads a few fields of
the returned value; exceptions are re-raised unchanged. Spans stay in
memory, in flat arrays, until the run ends.

Each span has a name, a start, an end, the index of its parent span (-1 for
none) and the workload unit it ran in (-1 for set-up), plus four integer
fields that only some spans fill: rows and width of the problem, Newton
iterations, and flag bits.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

# Flag bits of a span.
FAILED = 1          # the call raised
SINGULAR = 2        # ... and the exception was glm.SingularInformation
NONCONVERGED = 4    # glm fit returned converged=False
LP_CAPPED = 8       # glm fit hit the linear-predictor cap
DIVERGED = 16       # glm fit froze at least one coefficient at -theta_cap


class NullTracer:
    """Stand-in used by untraced runs: spans cost one no-op context."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_unit = array("i")
        self.rows = array("q")
        self.width = array("q")
        self.iters = array("q")
        self.flags = array("q")
        self.unit = -1  # the workload unit running, -1 in set-up
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.span_unit.append(self.unit)
        self.rows.append(0)
        self.width.append(0)
        self.iters.append(0)
        self.flags.append(0)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int, flags: int = 0) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        self.flags[index] = flags

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes."""
        index = self._open(self._id(name))
        try:
            yield
        except BaseException:
            self._close(index, FAILED)
            raise
        self._close(index)

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`restore`.

        ``describe(tracer, index, arguments, result)`` fills the span's
        integer fields from the call's arguments bound to the parameter names
        of ``original``; ``result`` is None when the call raised.
        """
        original = getattr(module, attr)
        name_id = self._id(name)
        params = list(inspect.signature(original).parameters)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self._close(index, FAILED | (SINGULAR if _is_singular(exc) else 0))
                if describe is not None:
                    describe(self, index, {**dict(zip(params, args)), **kwargs}, None)
                raise
            self._close(index)
            if describe is not None:
                describe(self, index, {**dict(zip(params, args)), **kwargs}, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def count(self, name: str) -> int:
        if name not in self._ids:
            return 0
        return int(np.count_nonzero(np.frombuffer(self.name_id, dtype=np.int32) == self._ids[name]))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "unit": np.frombuffer(self.span_unit, dtype=np.int32),
            "rows": np.frombuffer(self.rows, dtype=np.int64),
            "width": np.frombuffer(self.width, dtype=np.int64),
            "iters": np.frombuffer(self.iters, dtype=np.int64),
            "flags": np.frombuffer(self.flags, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _is_singular(exc: BaseException) -> bool:
    from countdag.glm import SingularInformation

    return isinstance(exc, SingularInformation)


# ---------------------------------------------------------------------------
# What each wrapper reads from the arguments and the returned value.
# ---------------------------------------------------------------------------


def _describe_fit(tracer: Tracer, index: int, args, result) -> None:
    rows, width = args["X"].shape
    tracer.rows[index] = rows
    tracer.width[index] = width
    if result is None:
        return
    tracer.iters[index] = result.iterations
    flags = 0
    if not result.converged:
        flags |= NONCONVERGED
    if result.lp_capped:
        flags |= LP_CAPPED
    if result.diverged.any():
        flags |= DIVERGED
    tracer.flags[index] |= flags


def _describe_wald(tracer: Tracer, index: int, args, result) -> None:
    tracer.width[index] = len(args["fit"].covariates)


def _describe_sample(tracer: Tracer, index: int, args, result) -> None:
    tracer.rows[index] = args["n"]
    tracer.width[index] = args["wdag"].dag.p


def _describe_csv(tracer: Tracer, index: int, args, result) -> None:
    if result is not None:
        tracer.rows[index] = result.n
        tracer.width[index] = result.p


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark traces."""
    from countdag import bench, cli, learn, scores

    simulate = importlib.import_module("countdag.simulate")

    tracer.wrap(learn, "_fit_core", "glm.fit", _describe_fit)
    tracer.wrap(scores, "_fit_core", "glm.fit", _describe_fit)
    tracer.wrap(learn, "wald", "glm.wald", _describe_wald)
    # simulate.sample_data is the name the benchmark's own set-up calls;
    # bench binds its own reference at import.
    tracer.wrap(simulate, "sample_data", "simulate.sample_data", _describe_sample)
    tracer.wrap(bench, "sample_data", "simulate.sample_data", _describe_sample)
    tracer.wrap(bench, "compare", "graphs.compare")
    tracer.wrap(bench, "run", "bench.run")
    tracer.wrap(bench, "or_ppgm", "learn.or_ppgm")
    tracer.wrap(bench, "or_lpgm", "learn.or_lpgm")
    tracer.wrap(bench, "pk2", "scores.pk2")
    tracer.wrap(cli, "counts_from_csv", "data.counts_from_csv", _describe_csv)
    tracer.wrap(cli, "or_ppgm_detailed", "learn.or_ppgm")
    tracer.wrap(cli, "or_lpgm_detailed", "learn.or_lpgm")
    tracer.wrap(cli, "pk2_detailed", "scores.pk2")


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans.
# ---------------------------------------------------------------------------


def layer_metrics(
    tracer: Tracer, setups: int, calls: list[int], untraced_wall: float, traced_wall: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Times and counts are per set-up plus one round of the workload's units:
    a set-up span weighs ``1 / setups`` and a span in unit ``u`` weighs
    ``1 / calls[u]``, the number of times that unit was called. Means and
    percentiles over spans use the same weights.
    """
    a = tracer.arrays()
    names = tracer.names
    total = len(a["start"])
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=total)
    self_time = dur - child_time
    unit = a["unit"]
    per_call = 1.0 / np.array([setups, *calls], dtype=np.float64)
    weight = per_call[unit + 1]
    flags = a["flags"]

    def named(name: str) -> np.ndarray:
        if name not in names:
            return np.zeros(total, dtype=bool)
        return a["name_id"] == names.index(name)

    parent_name = np.full(total, -1)
    parent_name[has_parent] = a["name_id"][parent[has_parent]]

    def under(mask: np.ndarray, name: str) -> np.ndarray:
        if name not in names:
            return np.zeros(total, dtype=bool)
        return mask & (parent_name == names.index(name))

    def per_run(values: np.ndarray, mask: np.ndarray) -> float:
        return float((values[mask] * weight[mask]).sum())

    def count(mask: np.ndarray) -> float:
        return _exact(float(weight[mask].sum()))

    def pct(mask: np.ndarray, q: float) -> float:
        if not mask.any():
            return 0.0
        return float(np.percentile(dur[mask], q, weights=weight[mask], method="inverted_cdf")) * 1e6

    def mean(values: np.ndarray, mask: np.ndarray) -> float:
        return float(np.average(values[mask], weights=weight[mask])) if mask.any() else 0.0

    def frac(part: np.ndarray, whole: np.ndarray) -> float:
        return float(weight[part].sum() / weight[whole].sum()) if whole.any() else 0.0

    fit = named("glm.fit")
    wald = named("glm.wald")
    width = a["width"]
    fits = count(fit)
    cells = (a["rows"] * width * (a["iters"] + 1)).astype(np.float64)
    fit_time = per_run(dur, fit)
    cell_iters = per_run(cells, fit)

    ppgm_fit = under(fit, "learn.or_ppgm")
    ppgm_wald = under(wald, "learn.or_ppgm")
    learners = named("learn.or_ppgm") | named("learn.or_lpgm")
    pk2 = named("scores.pk2")
    csv = named("data.counts_from_csv")
    sample = named("simulate.sample_data")
    bench_run = named("bench.run")
    csv_time = per_run(dur, csv)
    sample_time = per_run(dur, sample)

    m: dict[str, tuple[float, str]] = {
        "glm.fits": (fits, "count"),
        "glm.fit_s": (fit_time, "s"),
        "glm.fit_us.p50": (pct(fit, 50), "us"),
        "glm.fit_us.p99": (pct(fit, 99), "us"),
        "glm.fit_us.k1": (mean(dur, fit & (width == 1)) * 1e6, "us"),
        "glm.fit_us.k2to4": (mean(dur, fit & (width >= 2) & (width <= 4)) * 1e6, "us"),
        "glm.fit_us.kwide": (mean(dur, fit & (width >= 5)) * 1e6, "us"),
        "glm.newton_iters_per_fit": (mean(a["iters"], fit), "iter/fit"),
        "glm.ns_per_cell_iter": (fit_time / cell_iters * 1e9 if cell_iters else 0.0, "ns"),
        "glm.nonconverged": (count(fit & (flags & NONCONVERGED > 0)), "count"),
        "glm.lp_capped": (count(fit & (flags & LP_CAPPED > 0)), "count"),
        "glm.diverged": (count(fit & (flags & DIVERGED > 0)), "count"),
        "glm.nonconverged_frac": (frac(fit & (flags & NONCONVERGED > 0), fit), "fraction"),
        "glm.lp_capped_frac": (frac(fit & (flags & LP_CAPPED > 0), fit), "fraction"),
        "glm.diverged_frac": (frac(fit & (flags & DIVERGED > 0), fit), "fraction"),
        "glm.wald_calls": (count(wald), "count"),
        "glm.wald_s": (per_run(dur, wald), "s"),
        "glm.wald_us.p50": (pct(wald, 50), "us"),
        "glm.wald_us.p99": (pct(wald, 99), "us"),
        "glm.singular": (count((fit | wald) & (flags & SINGULAR > 0)), "count"),
        "learn.tests": (count(ppgm_wald), "count"),
        "learn.cache_hit_frac": (
            1.0 - frac(ppgm_fit, ppgm_wald) if ppgm_wald.any() else 0.0, "fraction"),
    }
    for level in range(4):
        at = width == level + 1
        m[f"learn.ppgm_level{level}_s"] = (
            per_run(dur, ppgm_fit & at) + per_run(dur, ppgm_wald & at), "s")
    m.update({
        "learn.self_s": (per_run(self_time, learners), "s"),
        "scores.fits": (count(under(fit, "scores.pk2")), "count"),
        "scores.self_s": (per_run(self_time, pk2), "s"),
        "data.csv_parse_s": (csv_time, "s"),
        "data.csv_cells_per_s": (
            per_run((a["rows"] * width).astype(np.float64), csv) / csv_time if csv_time else 0.0,
            "1/s"),
        "simulate.sample_s": (sample_time, "s"),
        "simulate.rows_per_s": (
            per_run(a["rows"].astype(np.float64), sample) / sample_time if sample_time else 0.0,
            "1/s"),
        "graphs.compare_s": (per_run(dur, named("graphs.compare")), "s"),
        "bench.replicate_s.p50": (_replicate_p50(a, names, bench_run, sample), "s"),
        "bench.self_s": (per_run(self_time, bench_run), "s"),
        "cli.self_s": (per_run(self_time, named("cli.main")), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "fraction"),
    })
    return m


def _replicate_p50(a, names, bench_run: np.ndarray, sample: np.ndarray) -> float:
    """Median replicate time inside bench.run: a replicate starts at its
    sample_data call and ends where the next one starts (or the run ends)."""
    spans = []
    for run_index in np.flatnonzero(bench_run):
        starts = a["start"][sample & (a["parent"] == run_index)]
        edges = np.append(np.sort(starts), a["end"][run_index])
        spans.extend(np.diff(edges))
    return float(np.median(spans)) if spans else 0.0


def _exact(value: float) -> float | int:
    """Counts averaged over identical calls are whole: report them as ints."""
    rounded = round(value)
    return int(rounded) if abs(value - rounded) < 1e-9 else value
