"""Monte-Carlo experiment runner and table reporting.

An :class:`Experiment` pins a simulation configuration, a list of learners,
and a replicate count. Each replicate samples a dataset (from one shared
graph when ``fixed_graph`` is set, matching the benchmark protocol of one
graph per structure with repeated data draws), runs every learner, and
scores the estimate against the truth. Aggregates are per-replicate means:
precision/recall left undefined in a replicate (zero denominator) are
excluded from their averages, and F1 of such replicates is 0, so table
cells never contain NaN.

The learners of a replicate fit through one
:class:`~countdag.learn.NodeFitter` over its data, so each node regression
is fitted once per replicate. A fit is the same whichever learner makes
it, so every estimate is that of the learner run alone. But a learner's
runtime excludes the fits that an earlier learner of the replicate already
made, so ``runtime_mean`` depends on the learner order. PKBIC and PKAIC
also end a child's forward phase unfitted once OR-LPGM's fit of the child
on all its precedents shows that no candidate can be accepted (see
:func:`countdag.scores._nll_floor`), so they make fewer fits after OR-LPGM
than before it, for the same estimate.

Replicates run in worker processes when asked; every replicate derives its
own Philox substream and records are kept in replicate order, so output
other than runtimes is identical for any worker count.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Sequence, get_args, get_type_hints

from .data import CountMatrix
from .graphs import Dag, Ordering, RecoveryMetrics, compare
from .learn import LearnConfig, NodeFitter, or_lpgm, or_ppgm
from .scores import ScoreConfig, pk2
from .simulate import SimConfig, WeightedDag, gen_graph, gen_weights, make_rng, sample_data

_LPGM_KEYS = frozenset({"alpha", "alpha_b"})
_PPGM_KEYS = _LPGM_KEYS | {"m"}
_SCORE_KEYS = frozenset({"max_parents"})

#: Learner algorithms the harness can dispatch, each with its config type
#: and the option keys an experiment's learner entry may give it. "oracle"
#: returns the true graph and "empty" the edgeless graph; both serve as
#: reference rows and take no config.
ALGORITHMS: dict[str, tuple[type | None, frozenset[str]]] = {
    "or_ppgm": (LearnConfig, _PPGM_KEYS),
    "or_lpgm": (LearnConfig, _LPGM_KEYS),
    "pkbic": (ScoreConfig, _SCORE_KEYS),
    "pkaic": (ScoreConfig, _SCORE_KEYS),
    "oracle": (None, frozenset()),
    "empty": (None, frozenset()),
}

_METRIC_FIELDS = ("tp", "fp", "fn", "precision", "recall", "f1")


@dataclass(frozen=True)
class LearnerSpec:
    """A named learner. A pkbic/pkaic spec without a config gets the default
    ScoreConfig, and its criterion always follows the algorithm."""

    name: str
    algo: str
    config: LearnConfig | ScoreConfig | None = None

    def __post_init__(self) -> None:
        algo = self.algo.replace("-", "_")
        object.__setattr__(self, "algo", algo)
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown learner algorithm {self.algo!r}")
        config_type, _ = ALGORITHMS[algo]
        config = self.config
        if config is None and config_type is ScoreConfig:
            config = ScoreConfig()
        if not isinstance(config, config_type or type(None)):
            wanted = f"a {config_type.__name__}" if config_type else "no config"
            raise ValueError(f"{algo} takes {wanted}, got {type(config).__name__}")
        if config_type is ScoreConfig:
            criterion = "bic" if algo == "pkbic" else "aic"
            object.__setattr__(self, "config", replace(config, criterion=criterion))

    def run(self, data: CountMatrix, ordering: Ordering, truth: Dag, fitter: NodeFitter) -> Dag:
        """The estimate on ``data``, fitting through ``fitter``, a NodeFitter
        over ``data`` shared with the replicate's other learners."""
        if self.algo == "oracle":
            return truth
        if self.algo == "empty":
            return Dag(truth.p, frozenset(), truth.labels)
        if self.algo == "or_ppgm":
            return or_ppgm(data, ordering, self.config, fitter=fitter)
        if self.algo == "or_lpgm":
            return or_lpgm(data, ordering, self.config, fitter=fitter)
        return pk2(data, ordering, self.config, fitter=fitter)


@dataclass(frozen=True)
class Experiment:
    sim: SimConfig
    learners: tuple[LearnerSpec, ...]
    replicates: int = 50
    fixed_graph: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "learners", tuple(self.learners))
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        names = [spec.name for spec in self.learners]
        if len(set(names)) != len(names):
            raise ValueError("learner names must be unique")


@dataclass(frozen=True)
class ReplicateRecord:
    """One learner's outcome on one replicate. ``runtime`` covers the
    learner call and the comparison with the truth; it excludes the fits
    that an earlier learner of the same replicate already made, and for
    PK2 also the forward steps that OR-LPGM's fits, if it ran earlier,
    close unfitted."""

    replicate: int
    learner: str
    metrics: RecoveryMetrics | None
    runtime: float
    error: str | None = None


@dataclass(frozen=True)
class LearnerSummary:
    """Per-learner Monte-Carlo means and standard errors."""

    name: str
    replicates_used: int
    failures: int
    mean: dict[str, float | None]
    se: dict[str, float | None]
    runtime_mean: float


@dataclass(frozen=True)
class AggregateResult:
    n: int
    p: int
    label: str
    replicates: int
    summaries: tuple[LearnerSummary, ...]

    def summary(self, learner: str) -> LearnerSummary:
        for s in self.summaries:
            if s.name == learner:
                return s
        raise KeyError(learner)


@dataclass(frozen=True)
class RunResult:
    experiment: Experiment
    truth: tuple[WeightedDag, ...]
    records: tuple[ReplicateRecord, ...]

    def aggregate(self, label: str | None = None) -> AggregateResult:
        sim = self.experiment.sim
        return _aggregate(
            self.records,
            [spec.name for spec in self.experiment.learners],
            n=sim.n,
            p=sim.p,
            label=label or sim.graph_kind,
            replicates=self.experiment.replicates,
        )


def _mean_se(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    k = len(values)
    mean = math.fsum(values) / k
    if k == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
    return mean, math.sqrt(var / k)


def _aggregate(
    records: Sequence[ReplicateRecord],
    learner_names: Sequence[str],
    *,
    n: int,
    p: int,
    label: str,
    replicates: int,
) -> AggregateResult:
    summaries = []
    for name in learner_names:
        rows = [r for r in records if r.learner == name]
        ok = [r for r in rows if r.metrics is not None]
        mean: dict[str, float | None] = {}
        se: dict[str, float | None] = {}
        for metric in _METRIC_FIELDS:
            values = [
                float(v)
                for r in ok
                if (v := getattr(r.metrics, metric)) is not None
            ]
            mean[metric], se[metric] = _mean_se(values)
        runtimes = [r.runtime for r in ok]
        summaries.append(
            LearnerSummary(
                name=name,
                replicates_used=len(ok),
                failures=len(rows) - len(ok),
                mean=mean,
                se=se,
                runtime_mean=math.fsum(runtimes) / len(runtimes) if runtimes else 0.0,
            )
        )
    return AggregateResult(
        n=n, p=p, label=label, replicates=replicates, summaries=tuple(summaries)
    )


def make_truth(exp: Experiment, index: int) -> tuple[WeightedDag, Ordering]:
    """The weighted graph and ordering of replicate ``index``: one shared
    graph when ``exp.fixed_graph`` is set, else one per replicate."""
    sim = exp.sim
    key = (0,) if exp.fixed_graph else (0, index)
    rng = make_rng(sim.seed, *key)
    dag, ordering = gen_graph(sim, rng)
    return gen_weights(dag, rng), ordering


def run_replicate(
    exp: Experiment, shared: tuple[WeightedDag, Ordering] | None, r: int
) -> tuple[WeightedDag, list[ReplicateRecord]]:
    """Sample replicate ``r``'s data and run every learner on it, in order,
    all fitting through one NodeFitter over the data. ``shared`` is the
    fixed graph, or None to draw the replicate's own."""
    sim = exp.sim
    wdag, ordering = shared if shared is not None else make_truth(exp, r)
    data = sample_data(wdag, ordering, sim.n, sim, make_rng(sim.seed, 1, r))
    fitter = NodeFitter(data)
    records = []
    for spec in exp.learners:
        start = time.perf_counter()
        try:
            estimate = spec.run(data, ordering, wdag.dag, fitter)
            metrics: RecoveryMetrics | None = compare(estimate, wdag.dag)
            error = None
        except Exception as exc:  # noqa: BLE001 - failure isolation by contract
            metrics = None
            error = f"{type(exc).__name__}: {exc}"
        records.append(
            ReplicateRecord(r, spec.name, metrics, time.perf_counter() - start, error)
        )
    return wdag, records


def _process_context():
    """Workers fork from a server that imported countdag once, so a pool
    starts in milliseconds and never forks a process running threads;
    spawn where the platform has no fork server. multiprocessing is
    imported here, so a serial run never loads it."""
    import multiprocessing

    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([__name__])
    return context


def run(exp: Experiment, threads: int = 1) -> RunResult:
    """Execute every replicate and collect per-replicate recovery records.

    ``threads`` counts worker processes. Above 1, replicates run in a
    process pool of at most one worker per replicate and per CPU, so
    replicates do not compete for a core and each runtime compares with a
    serial one; records stay in replicate order either way.

    A learner failure inside one replicate is recorded and excluded from the
    aggregates; the run aborts only if a learner fails in every replicate.
    """
    shared = make_truth(exp, 0) if exp.fixed_graph else None
    indices = range(exp.replicates)
    workers = min(threads, exp.replicates, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=_process_context()) as pool:
            outcomes = list(pool.map(partial(run_replicate, exp, shared), indices))
    else:
        outcomes = [run_replicate(exp, shared, r) for r in indices]

    records = tuple(rec for _, batch in outcomes for rec in batch)
    for spec in exp.learners:
        if all(r.metrics is None for r in records if r.learner == spec.name):
            failures = [r.error for r in records if r.learner == spec.name]
            raise RuntimeError(
                f"learner {spec.name!r} failed in all {exp.replicates} replicates; "
                f"first error: {failures[0]}"
            )
    truths = (shared[0],) if shared is not None else tuple(wdag for wdag, _ in outcomes)
    return RunResult(experiment=exp, truth=truths, records=records)


def pool_results(results: Sequence[RunResult], label: str = "pooled") -> AggregateResult:
    """Aggregate per-replicate metrics across several runs (e.g. one per
    graph structure), matching the pooled 'marginal means' table semantics."""
    if not results:
        raise ValueError("no results to pool")
    names = [spec.name for spec in results[0].experiment.learners]
    for res in results[1:]:
        if [spec.name for spec in res.experiment.learners] != names:
            raise ValueError("pooled runs must share the same learner list")
    records = [rec for res in results for rec in res.records]
    sims = [res.experiment.sim for res in results]
    return _aggregate(
        records,
        names,
        n=sims[0].n,
        p=sims[0].p,
        label=label,
        replicates=sum(res.experiment.replicates for res in results),
    )


# ---------------------------------------------------------------------------
# Table rendering: one row per (n, algorithm) with TP FP FN P R F1 columns.
# The text table prints 3 decimals like the benchmark tables; the CSV keeps
# full precision so it re-parses to the in-memory values exactly.
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = ("n", "algorithm", "tp", "fp", "fn", "precision", "recall", "f1")


@dataclass(frozen=True)
class TableRow:
    n: int
    algorithm: str
    tp: float | None
    fp: float | None
    fn: float | None
    precision: float | None
    recall: float | None
    f1: float | None


def table_rows(results: Sequence[AggregateResult]) -> list[TableRow]:
    rows = []
    for result in results:
        for summary in result.summaries:
            rows.append(
                TableRow(
                    n=result.n,
                    algorithm=summary.name,
                    **{m: summary.mean[m] for m in _METRIC_FIELDS},
                )
            )
    return rows


def render_text(rows: Sequence[TableRow]) -> str:
    header = ["n", "Algorithm", "TP", "FP", "FN", "P", "R", "F1"]
    body = [
        [
            str(row.n),
            row.algorithm,
            *(_fmt3(getattr(row, m)) for m in _METRIC_FIELDS),
        ]
        for row in rows
    ]
    widths = [max(len(line[i]) for line in [header, *body]) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" if i < 2 else f"{{:>{w}}}" for i, w in enumerate(widths))
    lines = [fmt.format(*header)]
    lines.extend(fmt.format(*line) for line in body)
    return "\n".join(lines) + "\n"


def _fmt3(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def render_csv(rows: Sequence[TableRow]) -> str:
    lines = [",".join(_TABLE_COLUMNS)]
    for row in rows:
        cells = [str(row.n), row.algorithm]
        cells.extend(
            "" if (v := getattr(row, m)) is None else repr(float(v))
            for m in _METRIC_FIELDS
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[TableRow]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != ",".join(_TABLE_COLUMNS):
        raise ValueError("not a results table CSV")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(_TABLE_COLUMNS):
            raise ValueError(f"bad table row: {line!r}")
        metrics = {
            m: (None if cell == "" else float(cell))
            for m, cell in zip(_METRIC_FIELDS, cells[2:])
        }
        rows.append(TableRow(n=int(cells[0]), algorithm=cells[1], **metrics))
    return rows


def table_report(results: Sequence[AggregateResult]) -> str:
    """Aligned-text table over all result rows (CSV via :func:`render_csv`)."""
    return render_text(table_rows(results))


# ---------------------------------------------------------------------------
# JSON experiment description:
# {"seed": int, "replicates": int, "fixed_graph": bool,
#  "sim": {"graph_kind", "p", "n", optional generator parameters},
#  "learners": [{"name", "algo", learner options...}]}
# ---------------------------------------------------------------------------

#: The sim block's keys: every SimConfig field but the top-level seed.
_SIM_KEYS = {f.name for f in fields(SimConfig)} - {"seed"}


def _build(config_type: type, opts: dict, where: str = ""):
    """``config_type(**opts)`` from JSON values: a field typed int or bool takes
    exactly that type (or None where allowed), and a field typed float no bool."""
    hints = get_type_hints(config_type)
    for key, value in opts.items():
        allowed = (hints[key], *get_args(hints[key]))
        if (int in allowed or bool in allowed) and type(value) not in allowed:
            kind = "an integer" if int in allowed else "a boolean"
            raise ValueError(f"{where}{key!r} must be {kind}, got {value!r}")
        if float in allowed and type(value) is bool:
            raise ValueError(f"{where}{key!r} must be a number, got {value!r}")
    return config_type(**opts)


def learner_from_dict(obj: dict) -> LearnerSpec:
    if "algo" not in obj:
        raise ValueError(f"learner entry missing 'algo': {obj}")
    algo = str(obj["algo"]).replace("-", "_")
    name = str(obj.get("name", obj["algo"]))
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown learner algorithm {obj['algo']!r}")
    config_type, keys = ALGORITHMS[algo]
    opts = {k: v for k, v in obj.items() if k not in ("name", "algo")}
    unknown = set(opts) - keys
    if unknown:
        raise ValueError(f"learner {name!r}: unknown keys {sorted(unknown)}")
    config = None if config_type is None else _build(config_type, opts, f"learner {name!r}: ")
    return LearnerSpec(name=name, algo=algo, config=config)


def experiment_from_dict(obj: dict) -> Experiment:
    for key in ("seed", "sim", "learners"):
        if key not in obj:
            raise ValueError(f"experiment config missing {key!r}")
    unknown = set(obj) - {"seed", "sim", "learners", "replicates", "fixed_graph"}
    if unknown:
        raise ValueError(f"experiment config: unknown keys {sorted(unknown)}")
    sim_obj = dict(obj["sim"])
    unknown = set(sim_obj) - _SIM_KEYS
    if unknown:
        raise ValueError(f"sim block: unknown keys {sorted(unknown)}")
    sim = _build(SimConfig, {"seed": obj["seed"], **sim_obj})
    learners = tuple(learner_from_dict(entry) for entry in obj["learners"])
    if not learners:
        raise ValueError("experiment config needs at least one learner")
    given = {k: obj[k] for k in ("replicates", "fixed_graph") if k in obj}
    return _build(Experiment, {"sim": sim, "learners": learners, **given})
