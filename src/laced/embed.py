"""Embedding connected signed graphs with least eigenvalue >= -2 into root
systems.

For such a graph, A + 2I is positive semidefinite, hence the Gram matrix of n
norm-2 vectors with integer inner products.  Those vectors are handled
intrinsically (the form is all we need; the factor B with A + 2I = B B^T is
never formed, its entries are irrational in general).  Their reflection
closure is an irreducible root system, classified and mapped onto a canonical
model, and the canonical inclusions A_k in D_{k+1}, E_6/E_7 in E_8 place every
vertex vector inside D_m or E_8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import InvariantError
from .exactlin import Definiteness, definiteness, symmetric_elimination
from .roots import (
    DynkinType,
    FormSpace,
    RootSet,
    _irreducible,
    _unit_roots,
    closure,
    gen,
)
from .spectra import SignedGraph, is_connected, shifted_gram_rows

Q = Fraction

LEAST_EIGENVALUE_DIAGNOSTIC = "least eigenvalue below -2"


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Per-vertex roots in a canonical ambient system whose pairwise inner
    products reproduce A + 2I; independently checkable by verify_certificate."""

    intrinsic_type: DynkinType
    ambient_type: DynkinType
    vectors: tuple[tuple[Fraction, ...], ...]
    root_count: int


def check_least_eigenvalue(g: SignedGraph) -> Definiteness:
    """Exact trichotomy of A + 2I; Indefinite means the least eigenvalue of
    the signed adjacency lies below -2."""
    return definiteness(shifted_gram_rows(g, 2))


def _ambient_type(intrinsic: DynkinType) -> DynkinType:
    if intrinsic.family == "A":
        return DynkinType("D", intrinsic.rank + 1)
    if intrinsic.family == "D":
        return intrinsic
    return DynkinType("E", 8)


def embed(g: SignedGraph) -> EmbeddingCertificate:
    """Roots v_1..v_n with Gram matrix A + 2I, placed inside D_m or E_8.

    Raises ValueError for a disconnected graph or one whose least eigenvalue
    lies below -2.
    """
    if not is_connected(g):
        raise ValueError("embedding requires a connected graph")
    rows = shifted_gram_rows(g, 2)
    # the one elimination of A + 2I decides definiteness and gives the
    # pivot frame that the intrinsic roots are stored over
    kind, frame = symmetric_elimination(rows)
    if kind is Definiteness.INDEFINITE:
        raise ValueError(LEAST_EIGENVALUE_DIAGNOSTIC)
    space = FormSpace._trusted(tuple(map(tuple, rows)), frame)
    generators = _unit_roots(space)
    seed = RootSet.of(space, generators, validate=False)
    phi = closure(seed)
    # phi is irreducible: the generators are connected, and a root system
    # split into orthogonal parts puts each connected set in one part
    analysis = _irreducible(phi)
    intrinsic, iso = analysis.type, analysis.isometry()
    ambient = _ambient_type(intrinsic)
    vectors = tuple(iso.apply(v).coords for v in generators)
    cert = EmbeddingCertificate(
        intrinsic_type=intrinsic,
        ambient_type=ambient,
        vectors=vectors,
        root_count=len(phi),
    )
    if not verify_certificate(g, cert):
        raise InvariantError("freshly built certificate failed verification")
    return cert


def verify_certificate(g: SignedGraph, cert: EmbeddingCertificate) -> bool:
    """Recompute everything the certificate claims; False on any mismatch.

    Checks that the pairwise inner products of the vectors equal A + 2I
    entrywise, that the ambient slot is D_m or E8, and that every vector is a
    root of the canonical ambient system.  Pure recomputation, sharing no
    state with embed.
    """
    if len(cert.vectors) != g.n:
        return False
    t = cert.ambient_type
    if not (t.family == "D" or (t.family == "E" and t.rank == 8)):
        return False
    dim = t.ambient_dim
    # embed's coordinates are Fractions already; wrap only the others
    vecs = [tuple(x if isinstance(x, Q) else Q(x) for x in v) for v in cert.vectors]
    if any(len(v) != dim for v in vecs):
        return False
    # v_i = w_i / d_i with integer w_i, so <v_i, v_j> = e_ij iff
    # <w_i, w_j> = e_ij * d_i * d_j in plain integers
    dens = [math.lcm(*(x.denominator for x in v)) for v in vecs]
    nums = [tuple(x.numerator * (d // x.denominator) for x in v) for v, d in zip(vecs, dens)]
    expected = shifted_gram_rows(g, 2)
    for i in range(g.n):
        for j in range(i, g.n):
            if sum(map(mul, nums[i], nums[j])) != expected[i][j] * dens[i] * dens[j]:
                return False
    # (w_i, d_i) is in lowest terms, since each coordinate's Fraction is and
    # d_i is the lcm of their denominators, so it is the key an ambient root
    # of the same coordinates carries
    keys = gen(t).keys()
    return all(key in keys for key in zip(nums, dens))
