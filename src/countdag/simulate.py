"""Benchmark graph generation and recursive Poisson count sampling.

Graphs are generated as undirected skeletons (Erdos-Renyi, hub, or
scale-free preferential attachment), then oriented by a uniformly random
topological ordering. Edge weights are i.i.d. Uniform([-0.5, 0.5]), and data
rows are sampled recursively: a parentless node draws Pois(exp(theta_root)),
every other node draws Pois(exp(sum_t theta_ts x_t)) over its sampled
parents.

All randomness flows through a counter-based Philox generator; substreams
are derived with explicit spawn keys so any row chunk can be (re)drawn
independently of scheduling, which keeps output byte-identical across runs
and worker counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import CountMatrix
from .graphs import Dag, GraphError, Ordering, default_labels, is_consistent

GRAPH_KINDS = ("scale_free", "hub", "erdos_renyi")

_CHUNK = 1024
_MAX_ROW_ATTEMPTS = 1000


class RowRejectionLimit(RuntimeError):
    """Too many sampled rows exceeded the overflow threshold."""


@dataclass(frozen=True)
class SimConfig:
    graph_kind: str
    p: int
    n: int
    seed: int
    er_gamma: float = 0.2
    hub_count: int = 2
    sf_power: float = 0.01
    sf_zero_appeal: float | None = None  # None: p, matching the benchmark setup
    root_log_rate: float = 0.0
    overflow_threshold: float = 1e9

    def __post_init__(self) -> None:
        if self.graph_kind not in GRAPH_KINDS:
            raise ValueError(f"graph_kind must be one of {GRAPH_KINDS}")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.graph_kind == "erdos_renyi" and not 0.0 <= self.er_gamma <= 1.0:
            raise ValueError("er_gamma must lie in [0, 1]")
        if self.graph_kind == "hub" and not 1 <= self.hub_count <= self.p:
            raise ValueError("hub_count must lie in [1, p]")
        if self.graph_kind == "scale_free":
            if not (math.isfinite(self.zero_appeal) and self.zero_appeal > 0):
                raise ValueError("sf_zero_appeal must be finite and positive")
            if not (math.isfinite(self.sf_power) and self.sf_power >= 0):
                raise ValueError("sf_power must be finite and >= 0")
        if not math.isfinite(self.root_log_rate):
            raise ValueError("root_log_rate must be finite")
        if not self.overflow_threshold > 0:
            raise ValueError("overflow_threshold must be positive")
        if self.root_log_rate > math.log(self.overflow_threshold):
            # A root's rate above the threshold rejects (nearly) every row.
            raise ValueError("root_log_rate must be at most log(overflow_threshold)")

    @property
    def zero_appeal(self) -> float:
        return self.sf_zero_appeal if self.sf_zero_appeal is not None else float(self.p)


@dataclass(frozen=True)
class WeightedDag:
    """A DAG together with one log-rate coefficient per edge."""

    dag: Dag
    weights: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        if set(self.weights) != set(self.dag.edges):
            raise GraphError("weights must be keyed exactly by the DAG edges")

    def weight_matrix(self) -> np.ndarray:
        """Dense (p, p) matrix W with W[t, s] = theta_ts."""
        W = np.zeros((self.dag.p, self.dag.p))
        for (t, s), w in self.weights.items():
            W[t, s] = w
        return W


def make_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Philox generator for the given seed and substream key."""
    ss = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def gen_graph(cfg: SimConfig, rng: np.random.Generator) -> tuple[Dag, Ordering]:
    """Undirected skeleton per cfg.graph_kind, oriented by a random ordering."""
    p = cfg.p
    pairs: list[tuple[int, int]] = []
    if cfg.graph_kind == "erdos_renyi":
        for i in range(p):
            for j in range(i + 1, p):
                if rng.random() < cfg.er_gamma:
                    pairs.append((i, j))
    elif cfg.graph_kind == "hub":
        # Hubs are nodes 0..hub_count-1; the rest are attached round-robin.
        for j in range(cfg.hub_count, p):
            pairs.append(((j - cfg.hub_count) % cfg.hub_count, j))
    else:  # scale_free
        degree = np.zeros(p)
        for k in range(1, p):
            attach = degree[:k] ** cfg.sf_power + cfg.zero_appeal
            j = int(rng.choice(k, p=attach / attach.sum()))
            pairs.append((j, k))
            degree[j] += 1
            degree[k] += 1

    ordering = Ordering(tuple(int(v) for v in rng.permutation(p)))
    edges = []
    for a, b in pairs:
        if ordering.position(a) < ordering.position(b):
            edges.append((a, b))
        else:
            edges.append((b, a))
    return Dag(p, frozenset(edges), default_labels(p)), ordering


def gen_weights(dag: Dag, rng: np.random.Generator) -> WeightedDag:
    """i.i.d. Uniform([-0.5, 0.5]) weight per edge, drawn in sorted edge order."""
    weights = {edge: float(rng.uniform(-0.5, 0.5)) for edge in sorted(dag.edges)}
    return WeightedDag(dag=dag, weights=weights)


def sample_data(
    wdag: WeightedDag,
    ordering: Ordering,
    n: int,
    cfg: SimConfig,
    rng: np.random.Generator,
) -> CountMatrix:
    """Draw n i.i.d. rows by recursive Poisson sampling along the ordering.

    A row containing any count above ``cfg.overflow_threshold`` is rejected
    and redrawn from a fresh substream, keeping accepted rows exactly
    model-distributed conditional on boundedness. More than 10% rejected
    rows overall (or a single row re-drawn 1000 times) raises
    :class:`RowRejectionLimit`.
    """
    dag = wdag.dag
    if not is_consistent(dag, ordering):
        raise GraphError("weighted DAG is not consistent with the ordering")
    p = dag.p
    W = wdag.weight_matrix()
    parents = [np.array(dag.parents(s), dtype=np.intp) for s in range(p)]
    threshold = cfg.overflow_threshold
    # Rates above this bound make a below-threshold draw astronomically
    # unlikely; reject directly instead of asking the sampler for them.
    direct_reject = threshold + 40.0 * math.sqrt(threshold)

    # Substreams are keyed by (chunk, attempt) off a master key drawn once,
    # so redraw behaviour never depends on scheduling order.
    master = [int(v) for v in rng.integers(0, 2**63 - 1, size=2)]

    out = np.zeros((n, p), dtype=np.int64)
    rejected = 0
    attempted = 0
    for chunk_index, start in enumerate(range(0, n, _CHUNK)):
        rows = np.arange(start, min(start + _CHUNK, n))
        attempt = 0
        while rows.size:
            if attempt >= _MAX_ROW_ATTEMPTS:
                raise RowRejectionLimit(
                    f"row(s) {rows[:5].tolist()} redrawn {attempt} times; "
                    "weight configuration is explosive"
                )
            g = np.random.Generator(
                np.random.Philox(
                    np.random.SeedSequence(master, spawn_key=(chunk_index, attempt))
                )
            )
            vals = np.zeros((rows.size, p), dtype=np.float64)
            bad = np.zeros(rows.size, dtype=bool)
            for s in ordering.perm:
                pa = parents[s]
                if pa.size == 0:
                    lam = np.full(rows.size, math.exp(cfg.root_log_rate))
                else:
                    with np.errstate(over="ignore"):
                        lam = np.exp(vals[:, pa] @ W[pa, s])
                unsafe = ~np.isfinite(lam) | (lam > direct_reject)
                bad |= unsafe
                lam = np.where(unsafe, 1.0, lam)
                vals[:, s] = g.poisson(lam)
            bad |= (vals > threshold).any(axis=1)
            attempted += rows.size
            accepted = rows[~bad]
            out[accepted] = vals[~bad].astype(np.int64)
            rejected += int(bad.sum())
            rows = rows[bad]
            attempt += 1
    if rejected > 0.1 * attempted:
        raise RowRejectionLimit(
            f"{rejected} of {attempted} attempted rows exceeded the overflow "
            "threshold; weight configuration is explosive"
        )
    return CountMatrix(out, dag.labels)


def simulate(cfg: SimConfig) -> tuple[WeightedDag, Ordering, CountMatrix]:
    """Convenience wrapper: graph, weights, and data from cfg.seed alone."""
    graph_rng = make_rng(cfg.seed, 0)
    dag, ordering = gen_graph(cfg, graph_rng)
    wdag = gen_weights(dag, graph_rng)
    data = sample_data(wdag, ordering, cfg.n, cfg, make_rng(cfg.seed, 1))
    return wdag, ordering, data
