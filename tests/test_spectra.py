import random

import pytest

from laced.exactlin import Definiteness, definiteness
from laced.spectra import (
    SignedGraph,
    affine_marks,
    connected_without,
    is_connected,
    smith_classify,
    two_i_minus_adjacency_rows,
)
from ratref import adjacency
from shapes import affine_shape, cycle_graph, finite_shape, fork_graph, path_graph, star_graph

PD = Definiteness.POSITIVE_DEFINITE
PSD = Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR
INDEF = Definiteness.INDEFINITE

FINITE_LABELS = [("A", n) for n in range(1, 10)] + [("D", n) for n in range(4, 10)] + [
    ("E", 6),
    ("E", 7),
    ("E", 8),
]
AFFINE_LABELS = [("A", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)] + [
    ("E", 6),
    ("E", 7),
    ("E", 8),
]


def test_signed_graph_validation():
    with pytest.raises(ValueError):
        SignedGraph(2, [(1, 0, 1)])
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 1, 1), (0, 1, -1)])
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        SignedGraph(0, [])


def test_adjacency_examples():
    assert adjacency(SignedGraph(2, [(0, 1, 1)])).entries == ((0, 1), (1, 0))
    assert adjacency(SignedGraph(2, [(0, 1, -1)])).entries == ((0, -1), (-1, 0))
    assert adjacency(SignedGraph(3, [])).entries == tuple((0,) * 3 for _ in range(3))


def test_adjacency_symmetric_and_sign_negation():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 6)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                pick = rng.choice([0, 1, -1])
                if pick:
                    edges.append((u, v, pick))
        g = SignedGraph(n, edges)
        a = adjacency(g)
        assert a.is_symmetric()
        assert all(a.entries[i][i] == 0 for i in range(n))
        flipped = adjacency(SignedGraph(n, [(u, v, -s) for u, v, s in edges]))
        assert all(
            flipped.entries[i][j] == -a.entries[i][j]
            for i in range(n)
            for j in range(n)
            if i != j
        )


def test_smith_examples():
    assert smith_classify(path_graph(4)).label == "A4"
    c4 = smith_classify(cycle_graph(4))
    assert c4.label == "Atilde3"
    assert c4.marks == (1, 1, 1, 1)
    assert smith_classify(star_graph(5)).kind == "exceeds"
    k4 = SignedGraph.unsigned(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert smith_classify(k4).kind == "exceeds"


def test_smith_rejects_bad_input():
    with pytest.raises(ValueError):
        smith_classify(SignedGraph(3, [(0, 1, 1)]))  # disconnected
    with pytest.raises(ValueError):
        smith_classify(SignedGraph(2, [(0, 1, -1)]))  # signed


def test_single_vertex_is_a1():
    assert smith_classify(SignedGraph(1, [])).label == "A1"


def test_finite_shapes_positive_definite():
    for family, n in FINITE_LABELS:
        g = finite_shape(family, n)
        st = smith_classify(g)
        assert (st.kind, st.family, st.rank) == ("finite", family, n)
        assert definiteness(two_i_minus_adjacency_rows(g)) is PD


def test_affine_shapes_semidefinite_with_valid_marks():
    for family, n in AFFINE_LABELS:
        g = affine_shape(family, n)
        st = smith_classify(g)
        assert (st.kind, st.family, st.rank) == ("affine", family, n)
        assert definiteness(two_i_minus_adjacency_rows(g)) is PSD
        alpha = st.marks
        assert alpha is not None and min(alpha) == 1
        rows = g.adjacency_rows()
        for i in range(g.n):
            assert sum(rows[i][j] * alpha[j] for j in range(g.n)) == 2 * alpha[i]


def test_marks_examples():
    assert affine_marks(cycle_graph(5)) == (1, 1, 1, 1, 1)
    assert affine_marks(star_graph(4)) == (2, 1, 1, 1, 1)
    # one branch vertex (index 0), legs of lengths 1, 2, 5
    e8_affine = fork_graph(1, 2, 5)
    assert affine_marks(e8_affine) == (6, 3, 4, 2, 5, 4, 3, 2, 1)


def test_marks_rejects_non_affine():
    with pytest.raises(ValueError):
        affine_marks(path_graph(3))
    with pytest.raises(ValueError):
        affine_marks(star_graph(5))


def test_double_fork_recognition():
    assert smith_classify(affine_shape("D", 5)).label == "Dtilde5"
    assert smith_classify(affine_shape("D", 8)).label == "Dtilde8"
    # long arms at both branch vertices is not the affine D shape
    h = SignedGraph.unsigned(
        10,
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (3, 6), (6, 7), (0, 8), (3, 9)],
    )
    assert smith_classify(h).kind == "exceeds"


def test_near_miss_leg_patterns_exceed():
    for legs in [(1, 2, 6), (2, 2, 3), (1, 3, 4), (3, 3, 3), (2, 2, 2, 1)]:
        assert smith_classify(fork_graph(*legs)).kind == "exceeds"


def test_connected_without():
    g = cycle_graph(4)
    adj = g.neighbor_sets()
    assert all(connected_without(adj, v) for v in range(4))
    p = path_graph(3)
    assert connected_without(p.neighbor_sets(), 2)
    assert not connected_without(p.neighbor_sets(), 1)


def test_is_connected():
    assert is_connected(path_graph(5))
    assert not is_connected(SignedGraph(4, [(0, 1, 1), (2, 3, 1)]))
    assert is_connected(SignedGraph(1, []))


def test_is_connected_counts_edges_before_building_neighbor_sets(monkeypatch):
    # a graph with fewer than n - 1 edges is disconnected; deciding that must
    # not build one set per vertex of a huge header
    def refuse(g):
        raise AssertionError(f"neighbor sets built for n = {g.n}")

    monkeypatch.setattr(SignedGraph, "neighbor_sets", refuse)
    assert not is_connected(SignedGraph(10**12, []))


def test_smith_classify_builds_the_neighbor_sets_once(monkeypatch):
    # the connectivity check and the shape recognition share one build
    calls = []
    build = SignedGraph.neighbor_sets

    def counted(g):
        calls.append(g.n)
        return build(g)

    monkeypatch.setattr(SignedGraph, "neighbor_sets", counted)
    for g, kind in [(finite_shape("E", 7), "finite"), (affine_shape("D", 6), "affine")]:
        calls.clear()
        assert smith_classify(g).kind == kind
        assert calls == [g.n]
