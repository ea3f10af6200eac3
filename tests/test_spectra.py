import random
from collections import Counter
from pathlib import Path

import pytest

import laced.roots
import laced.spectra
from laced.cli import root_set_from_text
from laced.embed import embed
from laced.errors import InvariantError
from laced.exactlin import Definiteness, definiteness
from laced.roots import classify, closure, find_base, gen, isometry_to_canonical, signed_permute
from laced.spectra import (
    SignedGraph,
    affine_marks,
    connected_without,
    is_connected,
    smith_classify,
    two_i_minus_adjacency_rows,
    unsigned_shape,
)
from ratref import adjacency
from shapes import (
    affine_shape,
    cycle_graph,
    finite_shape,
    fork_graph,
    path_graph,
    star_graph,
    switched_line_graph_of_complete,
)

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


def test_smith_classify_runs_one_elimination(monkeypatch):
    # the definiteness cross-check and the affine marks share one elimination
    # of 2I - A, built once; rows built from the graph skip the input checks
    # of symmetric_elimination and go straight to its eliminator
    calls = []
    eliminate = laced.spectra._eliminate
    build = laced.spectra.two_i_minus_adjacency_rows

    def counted(rows):
        calls.append("eliminate")
        return eliminate(rows)

    def built(g):
        calls.append("build")
        return build(g)

    monkeypatch.setattr(laced.spectra, "_eliminate", counted)
    monkeypatch.setattr(laced.spectra, "two_i_minus_adjacency_rows", built)
    cases = [(finite_shape("E", 7), "finite"), (affine_shape("D", 6), "affine"), (star_graph(5), "exceeds")]
    for g, kind in cases:
        calls.clear()
        assert smith_classify(g).kind == kind
        assert calls == ["build", "eliminate"], kind


def test_shape_and_definiteness_disagreement_is_an_invariant_error(monkeypatch):
    # a recognizer that misreports the shape is caught by the elimination,
    # both ways round
    for g, claim in [(finite_shape("E", 7), ("affine", "E", 7)), (affine_shape("D", 6), ("finite", "D", 7))]:
        monkeypatch.setattr(laced.spectra, "_recognize", lambda g, adj, claim=claim: claim)
        with pytest.raises(InvariantError, match="disagreement"):
            smith_classify(g)
        with pytest.raises(InvariantError, match="disagreement"):
            affine_marks(g)


# --- the shape memo ----------------------------------------------------------


def shape_memo_batch():
    """Embeds and classifies whose base growth meets finite and affine
    shapes: each one's certificate, or its base, type and isometry as the
    CLI prints them."""
    rng = random.Random(15)
    out = []
    for k in (5, 6, 8):
        cert = embed(switched_line_graph_of_complete(rng, k))
        out.append((cert.intrinsic_type, cert.vectors))
    for label in ("A4", "D5", "E6", "E7", "E8"):
        phi = gen(label)
        dim = phi.space.dim
        perm = list(range(dim))
        rng.shuffle(perm)
        omega = signed_permute(phi, perm, [rng.choice((1, -1)) for _ in range(dim)])
        t, iso = isometry_to_canonical(omega)
        out.append((tuple(find_base(omega)), t, [[str(x) for x in row] for row in iso.matrix]))
    text = (Path(__file__).resolve().parent / "golden" / "a2_d4_e6_base.vec").read_text()
    out.append(classify(closure(root_set_from_text(text))))
    return out


def test_shape_memo_entries_match_a_fresh_reading(monkeypatch):
    unsigned_shape.cache_clear()
    entries = {}

    def recording(n, pairs):
        entries[n, pairs] = unsigned_shape(n, pairs)
        return entries[n, pairs]

    monkeypatch.setattr(laced.roots, "unsigned_shape", recording)
    shape_memo_batch()
    assert unsigned_shape.cache_info().currsize == len(entries)
    for (n, pairs), (g, st) in entries.items():
        fresh = SignedGraph.unsigned(n, pairs)
        assert g == fresh
        assert st == smith_classify(fresh)
    assert {st.kind for _, st in entries.values()} == {"finite", "affine"}


def test_shape_memo_changes_no_result(monkeypatch):
    def cold(n, pairs):
        unsigned_shape.cache_clear()
        return unsigned_shape(n, pairs)

    with monkeypatch.context() as m:
        m.setattr(laced.roots, "unsigned_shape", cold)
        want = shape_memo_batch()
    unsigned_shape.cache_clear()
    assert shape_memo_batch() == want
    assert unsigned_shape.cache_info().hits
    assert shape_memo_batch() == want  # every reading warm


def test_shape_memo_reads_each_graph_once(monkeypatch):
    unsigned_shape.cache_clear()
    read = Counter()
    classify_shape = laced.spectra.smith_classify

    def counted(g):
        read[g] += 1
        return classify_shape(g)

    monkeypatch.setattr(laced.spectra, "smith_classify", counted)
    shape_memo_batch()
    shape_memo_batch()
    assert read and set(read.values()) == {1}
    info = unsigned_shape.cache_info()
    assert info.misses == len(read) < info.hits
    assert info.maxsize == laced.spectra._SHAPE_MEMO_SIZE
    # a failed reading is not kept: a graph without a Dynkin shape is read,
    # and raises, on every call
    kept = info.currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="not connected"):
            unsigned_shape(2, ())
    assert read[SignedGraph(2, [])] == 2
    assert unsigned_shape.cache_info().currsize == kept
