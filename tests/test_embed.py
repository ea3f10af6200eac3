import itertools
from fractions import Fraction as Q

import pytest

from laced.embed import (
    EmbeddingCertificate,
    LEAST_EIGENVALUE_DIAGNOSTIC,
    check_least_eigenvalue,
    embed,
    verify_certificate,
)
from laced.exactlin import Definiteness, RatMatrix, kernel_basis, primitive_integer_vector, rank
from laced.roots import DynkinType
from laced.spectra import SignedGraph, is_connected, shifted_gram_rows

PD = Definiteness.POSITIVE_DEFINITE
PSD = Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR
INDEF = Definiteness.INDEFINITE


def all_negative_clique(n):
    return SignedGraph(n, [(u, v, -1) for u, v in itertools.combinations(range(n), 2)])


def test_check_least_eigenvalue_examples():
    assert check_least_eigenvalue(SignedGraph(1, [])) is PD
    assert check_least_eigenvalue(all_negative_clique(3)) is PSD
    assert check_least_eigenvalue(all_negative_clique(5)) is INDEF


def test_embed_single_vertex():
    cert = embed(SignedGraph(1, []))
    assert cert.intrinsic_type == DynkinType("A", 1)
    assert cert.ambient_type == DynkinType("D", 2)
    assert cert.root_count == 2
    (v,) = cert.vectors
    assert sum(x * x for x in v) == 2
    assert sorted(map(abs, v)) == [1, 1]  # a +-e_i +- e_j vector of D2
    assert verify_certificate(SignedGraph(1, []), cert)


def test_embed_all_negative_triangle():
    g = all_negative_clique(3)
    cert = embed(g)
    assert cert.intrinsic_type == DynkinType("A", 2)
    assert cert.ambient_type == DynkinType("D", 3)
    assert cert.root_count == 6
    # the three vertex vectors satisfy v1 + v2 + v3 = 0
    assert all(sum(v[k] for v in cert.vectors) == 0 for k in range(3))
    assert verify_certificate(g, cert)


def test_embed_positive_edge_pair():
    g = SignedGraph(2, [(0, 1, 1)])
    cert = embed(g)
    assert cert.intrinsic_type == DynkinType("A", 2)
    assert cert.ambient_type == DynkinType("D", 3)
    v1, v2 = cert.vectors
    assert sum(a * b for a, b in zip(v1, v2)) == 1
    # flipping the edge sign does not change the type
    neg = embed(SignedGraph(2, [(0, 1, -1)]))
    assert neg.intrinsic_type == cert.intrinsic_type
    assert neg.ambient_type == cert.ambient_type


def test_embed_rejects_below_minus_two():
    with pytest.raises(ValueError, match="least eigenvalue below -2"):
        embed(all_negative_clique(5))
    assert LEAST_EIGENVALUE_DIAGNOSTIC == "least eigenvalue below -2"


def test_embed_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        embed(SignedGraph(3, [(0, 1, 1)]))


def test_verify_rejects_tampered_negation():
    g = SignedGraph(2, [(0, 1, 1)])
    cert = embed(g)
    bad = EmbeddingCertificate(
        intrinsic_type=cert.intrinsic_type,
        ambient_type=cert.ambient_type,
        vectors=(cert.vectors[0], tuple(-x for x in cert.vectors[1])),
        root_count=cert.root_count,
    )
    assert not verify_certificate(g, bad)


def test_verify_rejects_wrong_norm_vector():
    g = SignedGraph(1, [])
    cert = embed(g)
    bad = EmbeddingCertificate(
        intrinsic_type=cert.intrinsic_type,
        ambient_type=cert.ambient_type,
        vectors=((Q(2), Q(0)),),  # squared norm 4
        root_count=cert.root_count,
    )
    assert not verify_certificate(g, bad)


def test_verify_rejects_norm_two_vector_outside_ambient_system():
    g = all_negative_clique(3)
    cert = embed(g)
    # (4/3, 1/3, 1/3) has squared norm 2 but is not a D3 root; patch it in at
    # vertex 0 and break membership (the Gram row changes too, so patch all
    # three checks by lying consistently is impossible)
    bad_vec = (Q(4, 3), Q(1, 3), Q(1, 3))
    bad = EmbeddingCertificate(
        intrinsic_type=cert.intrinsic_type,
        ambient_type=cert.ambient_type,
        vectors=(bad_vec,) + cert.vectors[1:],
        root_count=cert.root_count,
    )
    assert not verify_certificate(g, bad)
    # even a full certificate of such vectors fails on membership alone
    spoof = EmbeddingCertificate(
        intrinsic_type=DynkinType("A", 1),
        ambient_type=DynkinType("D", 3),
        vectors=(bad_vec,),
        root_count=2,
    )
    assert not verify_certificate(SignedGraph(1, []), spoof)


def test_verify_rejects_a_half_step_in_an_e8_certificate():
    # the E8 Dynkin tree with negative edges: A + 2I is the E8 Cartan matrix
    tree = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
    g = SignedGraph(8, [(u, v, -1) for u, v in tree])
    cert = embed(g)
    assert cert.ambient_type == DynkinType("E", 8)
    assert verify_certificate(g, cert)
    for i in range(8):
        for k in range(8):
            vecs = [list(v) for v in cert.vectors]
            vecs[i][k] += Q(1, 2)
            bad = EmbeddingCertificate(
                cert.intrinsic_type, cert.ambient_type, tuple(map(tuple, vecs)), cert.root_count
            )
            assert not verify_certificate(g, bad), (i, k)


def test_verify_rejects_bad_shapes():
    g = SignedGraph(1, [])
    cert = embed(g)
    wrong_count = EmbeddingCertificate(cert.intrinsic_type, cert.ambient_type, (), 2)
    assert not verify_certificate(g, wrong_count)
    wrong_ambient = EmbeddingCertificate(cert.intrinsic_type, DynkinType("A", 1), cert.vectors, 2)
    assert not verify_certificate(g, wrong_ambient)
    wrong_dim = EmbeddingCertificate(cert.intrinsic_type, DynkinType("D", 3), cert.vectors, 2)
    assert not verify_certificate(g, wrong_dim)


def test_ambient_type_is_never_a_or_e6_e7():
    graphs = [
        SignedGraph(1, []),
        SignedGraph(2, [(0, 1, 1)]),
        all_negative_clique(3),
        SignedGraph(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1)]),
        SignedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]),
    ]
    for g in graphs:
        cert = embed(g)
        t = cert.ambient_type
        assert t.family == "D" or (t.family == "E" and t.rank == 8)


def test_rank_and_kernel_consistency():
    g = all_negative_clique(3)
    cert = embed(g)
    gram = RatMatrix(shifted_gram_rows(g, 2))
    r = rank(gram)
    vec_rank = rank(RatMatrix([list(v) for v in cert.vectors]))
    assert r == vec_rank == 2
    for w in kernel_basis(gram):
        alpha = primitive_integer_vector(w)
        combo = [sum(a * v[k] for a, v in zip(alpha, cert.vectors)) for k in range(3)]
        assert all(x == 0 for x in combo)


def test_exhaustive_small_graphs():
    for n in (1, 2, 3):
        pairs = list(itertools.combinations(range(n), 2))
        for signs in itertools.product((0, 1, -1), repeat=len(pairs)):
            edges = [(u, v, s) for (u, v), s in zip(pairs, signs) if s]
            g = SignedGraph(n, edges)
            if not is_connected(g):
                continue
            d = check_least_eigenvalue(g)
            if d is INDEF:
                with pytest.raises(ValueError, match="least eigenvalue below -2"):
                    embed(g)
            else:
                cert = embed(g)
                assert verify_certificate(g, cert)
