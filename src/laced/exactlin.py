"""Exact linear algebra on integer matrices.

One fraction-free elimination in Bareiss form on arbitrary-precision
integers, where each division by the previous pivot is exact, so no rational
is ever built.  symmetric_elimination, left-looking, gives in one call the
trichotomy of a symmetric matrix and, for a positive semidefinite Gram form,
its pivot frame, the pivots and every index's coefficients over them; kernel
vectors and dual bases are read off its frames.
Floating point never appears here; tests cross-check the trichotomy and the
frame against a floating eigensolver, a rational eliminator and the
right-looking elimination, but the trusted path is exact.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import mul
from typing import Optional, Sequence

from .errors import InvariantError


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE_SINGULAR = "positive_semidefinite_singular"
    INDEFINITE = "indefinite"


def _integer_rows(rows: Sequence[Sequence[int]], who: str, what: str = "matrix") -> list[list[int]]:
    """The rows as lists of ints.  Raises ValueError on an entry that is not
    an integral value, which int() would otherwise truncate."""
    a = [list(map(int, r)) for r in rows]
    if a != [list(r) for r in rows]:
        raise ValueError(f"{who} requires an integer {what}")
    return a


Frame = tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]]


def definiteness(rows: Sequence[Sequence[int]]) -> Definiteness:
    """Exact trichotomy of a symmetric integer matrix, by
    symmetric_elimination."""
    return symmetric_elimination(rows)[0]


def symmetric_elimination(rows: Sequence[Sequence[int]]) -> tuple[Definiteness, Optional[Frame]]:
    """Exact trichotomy of a symmetric integer matrix M and, unless M is
    indefinite, its pivot frame (P, D, coefficients).

    Fraction-free elimination in Bareiss form, left-looking: the indices are
    taken in order, and index j's column is carried through the stages of
    the pivots p_1..p_k found so far, a_xj <- (d_s * a_xj - a_sx * a_sj) /
    d_{s-1} for x = p_{s+1}..p_k, j, with every division exact.  d_s is the
    s-th pivot, the determinant of the minor on p_1..p_s (d_0 = 1), and
    a_sx is row p_s of the upper factor U, stored with that pivot.  An entry
    that is zero with a zero cross term stays zero and is skipped.  The
    residual w_j = a_jj is the determinant of the minor on p_1..p_k, j, so
    it has the sign of the rational pivot: j becomes a pivot when w_j > 0,
    and M is indefinite when w_j < 0.  Each index costs O(k^2).

    When w_j = 0, j is dependent.  Its coefficients c_j over the pivots
    solve G_PP c = G_Pj, and since the stages carry G into U, d_k * c_j is
    an integer vector found by back substitution on the column just
    computed and the stored pivot rows, with exact divisions.  Then
    x_j = d_k * e_j - d_k * c_j has x_j^T M x_j = d_k * w_j = 0, which in a
    positive semidefinite M forces M x_j = 0.  That check, run on the
    nonzero entries of M in the rows after j, catches an indefinite M such
    as [[0, 1], [1, 0]]; it is the right-looking test that a zero pivot's
    residual row vanishes.  Positive pivots and M x_j = 0 for every
    dependent j is exactly positive semidefiniteness: in the basis
    {e_p} + {x_j}, M is the positive definite G_PP plus zero.

    P holds the pivots, taken greedily in index order.  For a Gram form G of
    vectors v_0..v_{n-1}, the v_p, p in P, are independent, and each
    dependent v_j is, modulo the radical of G, the combination sum c_jp v_p
    over the pivots p < j.  D is the lcm of the reduced denominators of all
    c_j (1 when M is nonsingular), and index i's coefficients are returned
    scaled by D, as a tuple of length |P|: D times a unit vector for a pivot.
    """
    a = _integer_rows(rows, "definiteness")
    # a list equal to its transpose is square and symmetric
    if not a or list(map(list, zip(*a))) != a:
        raise ValueError("definiteness requires a symmetric matrix")
    return _eliminate(a)


def _eliminate(a: Sequence[Sequence[int]]) -> tuple[Definiteness, Optional[Frame]]:
    """symmetric_elimination of rows already checked to be a nonempty,
    square and symmetric matrix of ints."""
    n = len(a)
    pivots: list[int] = []
    dets = [1]  # dets[s]: the determinant of the minor on the first s pivots
    tails: list[list[int]] = []  # tails[s]: U[p_s][p_t] for the pivots p_t after p_s
    solved: dict[int, tuple[list[int], int]] = {}  # dependent j -> (d * c_j, d), in lowest terms
    # row q's nonzero columns after the dependent index that first needs
    # them, last first; built only on demand
    later: list[Optional[list[int]]] = [None] * n
    for j in range(n):
        aj = a[j]
        col = [aj[p] for p in pivots]
        w = aj[j]
        for s, tail in enumerate(tails):
            u = col[s]
            d, prev = dets[s + 1], dets[s]
            for t, f in enumerate(tail, s + 1):
                x = col[t]
                if x or (f and u):
                    x, rem = divmod(d * x - f * u, prev)
                    if rem:
                        raise InvariantError("inexact division in symmetric Bareiss elimination")
                    col[t] = x
            if w or u:
                w, rem = divmod(d * w - u * u, prev)
                if rem:
                    raise InvariantError("inexact division in symmetric Bareiss elimination")
        if w > 0:
            for tail, u in zip(tails, col):
                tail.append(u)
            tails.append([])
            pivots.append(j)
            dets.append(w)
            continue
        if w < 0:
            return Definiteness.INDEFINITE, None
        k = len(col)
        d = dets[k]
        y = [0] * k
        for s in range(k - 1, -1, -1):
            y[s], rem = divmod(d * col[s] - sum(map(mul, tails[s], y[s + 1 :])), dets[s + 1])
            if rem:
                raise InvariantError("inexact division in the pivot back substitution")
        if j + 1 < n:
            # -M x_j on the rows after j.  The rows up to j vanish already: a
            # pivot's by the solve, j's as x_j^T M x_j = 0, and an earlier
            # dependent i's as M x_i = 0 and e_i is x_i / d_i plus pivots.
            image = [0] * n
            for q, c in zip([j, *pivots], [-d, *y]):
                if c:
                    aq = a[q]
                    nz = later[q]
                    if nz is None:
                        nz = later[q] = [i for i in range(n - 1, j, -1) if aq[i]]
                    for i in nz:
                        if i <= j:
                            break
                        image[i] += c * aq[i]
            if any(image):
                return Definiteness.INDEFINITE, None
        g = math.gcd(d, *y)
        solved[j] = ([v // g for v in y], d // g)
    r = len(pivots)
    den = math.lcm(*(q for _, q in solved.values()))
    coeffs = []
    b = 0  # pivots before j
    for j in range(n):
        if j in solved:
            y, q = solved[j]
            f = den // q
            coeffs.append(tuple(v * f for v in y) + (0,) * (r - len(y)))
        else:
            coeffs.append((0,) * b + (den,) + (0,) * (r - b - 1))
            b += 1
    kind = Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR if solved else Definiteness.POSITIVE_DEFINITE
    return kind, (tuple(pivots), den, tuple(coeffs))
