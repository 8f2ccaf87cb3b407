"""Directed acyclic graphs, topological orderings, and edge-recovery metrics.

Nodes are 0-based integer indices internally; string labels are attached only
at the I/O boundary. ``Dag`` and ``Ordering`` are immutable: mutation means
building a new value, so instances are safe to share across threads.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence


class GraphError(ValueError):
    """Invalid graph construction or mismatched graph/ordering sizes."""


class CycleError(GraphError):
    """Edge set contains a directed cycle."""


def _check_labels(p: int, labels: Sequence[str] | None) -> tuple[str, ...] | None:
    if labels is None:
        return None
    labels = tuple(labels)
    if len(labels) != p:
        raise GraphError(f"expected {p} labels, got {len(labels)}")
    if len(set(labels)) != p:
        raise GraphError("node labels must be unique")
    return labels


def default_labels(p: int) -> tuple[str, ...]:
    return tuple(f"X{i + 1}" for i in range(p))


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over ``p`` nodes.

    ``edges`` holds ordered pairs ``(t, s)`` meaning t -> s (t is a parent
    of s). Acyclicity and absence of self-loops are verified on construction.
    """

    p: int
    edges: frozenset[tuple[int, int]] = frozenset()
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.p < 0:
            raise GraphError("node count must be non-negative")
        edges = frozenset((int(t), int(s)) for t, s in self.edges)
        object.__setattr__(self, "edges", edges)
        for t, s in edges:
            if t == s:
                raise GraphError(f"self-loop on node {t}")
            if not (0 <= t < self.p and 0 <= s < self.p):
                raise GraphError(f"edge ({t}, {s}) out of range for p={self.p}")
        object.__setattr__(self, "labels", _check_labels(self.p, self.labels))
        self.topological_sort()  # raises CycleError on a cycle

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def parents(self, s: int) -> tuple[int, ...]:
        """Parent set pa(s), ascending by node index."""
        return tuple(sorted(t for t, c in self.edges if c == s))

    def topological_sort(self) -> list[int]:
        """Kahn's algorithm; raises :class:`CycleError` if no order exists."""
        indeg = [0] * self.p
        out: list[list[int]] = [[] for _ in range(self.p)]
        for t, s in self.edges:
            indeg[s] += 1
            out[t].append(s)
        queue = deque(i for i in range(self.p) if indeg[i] == 0)
        order: list[int] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != self.p:
            raise CycleError("edge set contains a directed cycle")
        return order


@dataclass(frozen=True)
class Ordering:
    """Topological ordering: ``perm[k]`` is the node in position k."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = tuple(int(v) for v in self.perm)
        object.__setattr__(self, "perm", perm)
        if sorted(perm) != list(range(len(perm))):
            raise GraphError("ordering must be a permutation of 0..p-1")
        pos = {v: k for k, v in enumerate(perm)}
        object.__setattr__(self, "_pos", pos)

    @property
    def p(self) -> int:
        return len(self.perm)

    def position(self, s: int) -> int:
        """ord(s): 0-based position of node s in the ordering."""
        return self._pos[s]

    def precedents(self, s: int) -> tuple[int, ...]:
        """pre(s): nodes strictly before s, ascending by node index."""
        k = self._pos[s]
        return tuple(sorted(self.perm[:k]))


@dataclass(frozen=True)
class RecoveryMetrics:
    """Directed-edge recovery counts and derived rates.

    ``precision`` is None when tp+fp = 0 and ``recall`` is None when tp+fn = 0
    (undefined, excluded from Monte-Carlo averaging). ``f1`` is 0 whenever the
    harmonic mean is undefined or its denominator vanishes, so aggregate
    statistics never contain NaN.
    """

    tp: int
    fp: int
    fn: int
    precision: float | None = field(init=False)
    recall: float | None = field(init=False)
    f1: float = field(init=False)

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("negative edge counts")
        prec = self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else None
        rec = self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else None
        if prec is not None and rec is not None and prec + rec > 0:
            f1 = 2.0 * prec * rec / (prec + rec)
        else:
            f1 = 0.0
        object.__setattr__(self, "precision", prec)
        object.__setattr__(self, "recall", rec)
        object.__setattr__(self, "f1", f1)


def is_consistent(dag: Dag, ordering: Ordering) -> bool:
    """True iff every edge points from an earlier to a later ordering position."""
    if dag.p != ordering.p:
        raise GraphError(f"dag has {dag.p} nodes but ordering has {ordering.p}")
    return all(ordering.position(t) < ordering.position(s) for t, s in dag.edges)


def complete_dag(ordering: Ordering, labels: Sequence[str] | None = None) -> Dag:
    """Fully connected DAG oriented by the ordering: p(p-1)/2 edges."""
    perm = ordering.perm
    edges = [(perm[i], perm[j]) for i in range(len(perm)) for j in range(i + 1, len(perm))]
    return Dag(ordering.p, frozenset(edges), _check_labels(ordering.p, labels))


def compare(estimated: Dag, reference: Dag) -> RecoveryMetrics:
    """Directed-pair comparison: a reversed edge counts as one FP and one FN."""
    if estimated.p != reference.p:
        raise GraphError(
            f"estimated graph has {estimated.p} nodes, reference has {reference.p}"
        )
    tp = len(estimated.edges & reference.edges)
    fp = len(estimated.edges - reference.edges)
    fn = len(reference.edges - estimated.edges)
    return RecoveryMetrics(tp=tp, fp=fp, fn=fn)


# ---------------------------------------------------------------------------
# File formats: edge lists ("t -> s" per line), 0/1 adjacency CSV, ordering
# files (one line of comma-separated labels, earliest first).
# ---------------------------------------------------------------------------


def edges_to_text(dag: Dag) -> str:
    labels = dag.labels or default_labels(dag.p)
    lines = [f"{labels[t]} -> {labels[s]}" for t, s in sorted(dag.edges)]
    return "\n".join(lines) + ("\n" if lines else "")

def edges_from_text(text: str, labels: Sequence[str]) -> Dag:
    labels = tuple(labels)
    index = {name: i for i, name in enumerate(labels)}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split("->")]
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'parent -> child', got {raw!r}")
        for name in parts:
            if name not in index:
                raise GraphError(f"line {lineno}: unknown node label {name!r}")
        edges.append((index[parts[0]], index[parts[1]]))
    return Dag(len(labels), frozenset(edges), labels)


def ordering_to_text(ordering: Ordering, labels: Sequence[str] | None = None) -> str:
    labels = tuple(labels) if labels is not None else default_labels(ordering.p)
    return ",".join(labels[v] for v in ordering.perm) + "\n"

def ordering_from_text(text: str, labels: Sequence[str]) -> Ordering:
    labels = tuple(labels)
    index = {name: i for i, name in enumerate(labels)}
    names = [name.strip() for name in text.strip().split(",") if name.strip()]
    missing = [name for name in names if name not in index]
    if missing:
        raise GraphError(f"ordering labels not found in data columns: {missing}")
    if sorted(names) != sorted(labels):
        raise GraphError("ordering must list every data column exactly once")
    return Ordering(tuple(index[name] for name in names))
