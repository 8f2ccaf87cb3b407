import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countdag.graphs import (
    CycleError,
    Dag,
    GraphError,
    Ordering,
    RecoveryMetrics,
    compare,
    complete_dag,
    edges_from_text,
    edges_to_text,
    is_consistent,
    ordering_from_text,
    ordering_to_text,
)


def orderings(max_p=8):
    return st.integers(1, max_p).flatmap(
        lambda p: st.permutations(range(p)).map(lambda perm: Ordering(tuple(perm)))
    )


class TestDag:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Dag(3, {(1, 1)})

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Dag(3, {(0, 3)})

    def test_rejects_two_cycle(self):
        with pytest.raises(CycleError):
            Dag(2, {(0, 1), (1, 0)})

    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_rejects_random_cycles(self, p, rnd):
        nodes = list(range(p))
        rnd.shuffle(nodes)
        cycle_len = rnd.randint(2, p)
        cycle = nodes[:cycle_len]
        edges = {(cycle[i], cycle[(i + 1) % cycle_len]) for i in range(cycle_len)}
        # extra forward edges do not break the cycle
        for _ in range(rnd.randint(0, 3)):
            a, b = rnd.sample(range(p), 2)
            if (b, a) not in edges and a != b:
                edges.add((a, b))
        if _has_cycle(p, edges):
            with pytest.raises(CycleError):
                Dag(p, edges)

    def test_parents_and_edges_agree(self):
        g = Dag(4, {(0, 2), (1, 2), (2, 3)})
        assert g.parents(2) == (0, 1)
        assert g.parents(3) == (2,)
        assert g.parents(0) == ()
        rebuilt = {(t, s) for s in range(4) for t in g.parents(s)}
        assert rebuilt == set(g.edges)


def _has_cycle(p, edges):
    try:
        Dag(p, frozenset())  # cheap sanity
    except GraphError:
        return False
    color = [0] * p
    adj = [[] for _ in range(p)]
    for t, s in edges:
        adj[t].append(s)

    def visit(v):
        color[v] = 1
        for w in adj[v]:
            if color[w] == 1 or (color[w] == 0 and visit(w)):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in range(p))


class TestOrdering:
    def test_rejects_non_permutation(self):
        with pytest.raises(GraphError):
            Ordering((0, 0, 1))

    def test_precedents(self):
        o = Ordering((2, 0, 1))
        assert o.precedents(2) == ()
        assert o.precedents(0) == (2,)
        assert o.precedents(1) == (0, 2)
        assert o.position(1) == 2


class TestIsConsistent:
    def test_empty_graph_vacuous(self):
        assert is_consistent(Dag(3), Ordering((0, 1, 2)))

    def test_chain_follows_order(self):
        assert is_consistent(Dag(3, {(0, 1), (1, 2)}), Ordering((0, 1, 2)))

    def test_violating_edge(self):
        assert not is_consistent(Dag(3, {(2, 0)}), Ordering((0, 1, 2)))

    def test_size_mismatch_raises(self):
        with pytest.raises(GraphError):
            is_consistent(Dag(3), Ordering((0, 1)))


class TestCompleteDag:
    def test_p1_empty(self):
        assert complete_dag(Ordering((0,))).edge_count == 0

    def test_p10_has_45_edges(self):
        assert complete_dag(Ordering(tuple(range(10)))).edge_count == 45

    def test_permuted_orientation(self):
        # ordering (1, 0, 2) in 0-based node ids
        g = complete_dag(Ordering((1, 0, 2)))
        assert set(g.edges) == {(1, 0), (1, 2), (0, 2)}

    @given(orderings())
    def test_always_consistent(self, o):
        assert is_consistent(complete_dag(o), o)


class TestCompare:
    def test_identity(self):
        g = complete_dag(Ordering(tuple(range(5))))  # 10 edges
        m = compare(g, g)
        assert (m.tp, m.fp, m.fn) == (10, 0, 0)
        assert m.precision == m.recall == m.f1 == 1.0

    def test_reversed_edge_counts_fp_and_fn(self):
        m = compare(Dag(3, {(0, 1), (1, 2)}), Dag(3, {(0, 1), (2, 1)}))
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)
        assert m.precision == m.recall == m.f1 == 0.5

    def test_table_f1_from_p_and_r(self):
        # Reported pair P=1.000, R=0.882: direct harmonic mean 0.937, while
        # the per-replicate average in the table is 0.936.
        p, r = 1.000, 0.882
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.937, abs=0.002)

    def test_node_count_mismatch(self):
        with pytest.raises(GraphError):
            compare(Dag(3), Dag(4))

    def test_empty_estimate_has_undefined_precision(self):
        m = compare(Dag(3), Dag(3, {(0, 1)}))
        assert m.precision is None
        assert m.recall == 0.0
        assert m.f1 == 0.0

    @given(orderings(6), st.data())
    @settings(max_examples=60)
    def test_swap_symmetry(self, o, data):
        full = sorted(complete_dag(o).edges)
        est = Dag(o.p, frozenset(data.draw(st.sets(st.sampled_from(full)))) if full else frozenset())
        ref = Dag(o.p, frozenset(data.draw(st.sets(st.sampled_from(full)))) if full else frozenset())
        m1, m2 = compare(est, ref), compare(ref, est)
        assert m1.tp == m2.tp
        assert (m1.fp, m1.fn) == (m2.fn, m2.fp)

    def test_reference_edge_count_identity(self):
        est = Dag(4, {(0, 1), (0, 2)})
        ref = Dag(4, {(0, 1), (1, 2), (2, 3)})
        m = compare(est, ref)
        assert m.tp + m.fn == ref.edge_count


class TestMetrics:
    def test_all_wrong_f1_zero(self):
        m = RecoveryMetrics(tp=0, fp=3, fn=2)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            RecoveryMetrics(tp=-1, fp=0, fn=0)


class TestFileFormats:
    def test_edge_list_round_trip(self):
        g = Dag(3, {(0, 1), (1, 2)}, labels=("a", "b", "c"))
        text = edges_to_text(g)
        assert "a -> b" in text
        assert edges_from_text(text, g.labels) == g

    def test_edge_list_bad_label(self):
        with pytest.raises(GraphError, match="unknown node label"):
            edges_from_text("a -> z\n", ("a", "b"))

    def test_ordering_round_trip(self):
        labels = ("n1", "n2", "n3")
        o = Ordering((2, 0, 1))
        assert ordering_from_text(ordering_to_text(o, labels), labels) == o

    def test_ordering_unknown_label(self):
        with pytest.raises(GraphError, match="not found"):
            ordering_from_text("bogus,n1,n2\n", ("n1", "n2", "n3"))
