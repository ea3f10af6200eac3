"""Exact linear algebra on integer matrices.

Every decision that matters downstream (definiteness and the pivot frame of
a Gram form, and the inverse) is fraction-free elimination in Bareiss form on
arbitrary-precision integers: each division by the previous pivot is exact,
so no rational is ever built.
Floating point never appears here; tests cross-check the definiteness
trichotomy against a floating eigensolver and a rational eliminator, but the
trusted path is exact.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import mul
from typing import Sequence

from .errors import InvariantError


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE_SINGULAR = "positive_semidefinite_singular"
    INDEFINITE = "indefinite"


def _integer_rows(rows: Sequence[Sequence[int]], who: str) -> list[list[int]]:
    """The rows as lists of ints.  Raises ValueError on an entry that is not
    an integral value, which int() would otherwise truncate."""
    a = [list(map(int, r)) for r in rows]
    if a != [list(r) for r in rows]:
        raise ValueError(f"{who} requires an integer matrix")
    return a


def definiteness(rows: Sequence[Sequence[int]]) -> Definiteness:
    """Exact trichotomy of a symmetric integer matrix, by
    symmetric_elimination."""
    return symmetric_elimination(rows)[0]


def symmetric_elimination(rows: Sequence[Sequence[int]]) -> tuple[Definiteness, list[list[int]]]:
    """Exact trichotomy of a symmetric integer matrix, with the rows it leaves.

    Fraction-free symmetric elimination in Bareiss form, processing the
    diagonal in order: a_ij <- (d * a_ij - a_ki * a_kj) / prev, where d is
    the current pivot and prev the last nonzero one, and every division is
    exact.  Since every earlier pivot was positive, d has the sign of the
    rational pivot.  A zero pivot is deferred: if its entire residual row
    vanishes the matrix can still be positive semidefinite and the index is
    skipped without changing prev, otherwise a 2x2 indefinite block has been
    found.  No pivot permutation is performed.

    Unless the matrix is indefinite, the returned rows are the upper factor
    of the elimination: row k, from column k on, is row k as it stood when k
    was processed, so its diagonal entry is the pivot (the determinant of
    the minor on the nonzero pivots up to k) or 0 at a skipped index.
    pivot_frame reads the dependencies of the skipped indices off it.
    """
    a = _integer_rows(rows, "definiteness")
    n = len(a)
    if n == 0 or any(len(r) != n for r in a) or any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("definiteness requires a symmetric matrix")
    prev = 1
    saw_zero = False
    for k in range(n):
        ak = a[k]
        d = ak[k]
        if d < 0:
            return Definiteness.INDEFINITE, a
        if d == 0:
            # residual row must vanish, else [[0, x], [x, *]] is indefinite
            if any(ak[j] != 0 for j in range(k + 1, n)):
                return Definiteness.INDEFINITE, a
            saw_zero = True
            continue
        # Schur complement update; only the upper triangle is maintained,
        # every later read goes through a[min][max].
        for i in range(k + 1, n):
            f = ak[i]
            ai = a[i]
            for j in range(i, n):
                q, rem = divmod(d * ai[j] - f * ak[j], prev)
                if rem:
                    raise InvariantError("inexact division in symmetric Bareiss elimination")
                ai[j] = q
        prev = d
    if saw_zero:
        return Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR, a
    return Definiteness.POSITIVE_DEFINITE, a


def pivot_frame(upper: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]]:
    """Pivots P, denominator D and every index's coefficients over P, read
    off the upper factor that symmetric_elimination leaves for a positive
    semidefinite Gram form G of vectors v_0..v_{n-1}.

    P holds the indices with a nonzero pivot; the v_p, p in P, are
    independent and each skipped v_j is, modulo the radical of G, the
    combination sum c_jp v_p over the pivots p < j.  Row operations carry G
    into the upper factor U, so c_j solves the triangular system
    U[p][j] = sum over q in P, p <= q < j, of U[p][q] c_jq for p in P, p < j.
    Its matrix has determinant d, the last pivot before j, and d * c_j is an
    integer vector found by back substitution with exact divisions.  D is
    the lcm of the reduced denominators of all c_j (1 when G is
    nonsingular), and index i's coefficients are returned scaled by D, as a
    tuple of length |P|: D times a unit vector for a pivot.
    """
    n = len(upper)
    pivots = tuple(k for k in range(n) if upper[k][k])
    r = len(pivots)
    # tails[a] = U[p_a][p_b] for the pivots p_b after p_a
    tails = [[upper[p][q] for q in pivots[a + 1 :]] for a, p in enumerate(pivots)]
    solved: dict[int, tuple[list[int], int]] = {}  # skipped index j -> (d * c_j, d)
    k = 0  # pivots before j
    for j in range(n):
        if k < r and pivots[k] == j:
            k += 1
            continue
        if k == 0:
            solved[j] = ([], 1)
            continue
        d = upper[pivots[k - 1]][pivots[k - 1]]
        y = [0] * k
        for a in range(k - 1, -1, -1):
            row = upper[pivots[a]]
            y[a], rem = divmod(d * row[j] - sum(map(mul, tails[a], y[a + 1 :])), row[pivots[a]])
            if rem:
                raise InvariantError("inexact division in the pivot back substitution")
        g = math.gcd(d, *y)
        solved[j] = ([v // g for v in y], d // g)
    den = math.lcm(1, *(q for _, q in solved.values()))
    coeffs = []
    a = 0
    for j in range(n):
        if j in solved:
            y, q = solved[j]
            f = den // q
            coeffs.append(tuple(v * f for v in y) + (0,) * (r - len(y)))
        else:
            coeffs.append((0,) * a + (den,) + (0,) * (r - a - 1))
            a += 1
    return pivots, den, tuple(coeffs)


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Inverse of an integer matrix as (numerator grid, positive denominator).

    Fraction-free Gauss-Jordan elimination in Bareiss form: every row other
    than the pivot row is updated as (p * row - f * pivot_row) / prev, where
    the division by the previous pivot is exact.  At the end the left block is
    d * I and the right block d * inverse, with d = +-det; the result is
    reduced by the gcd of d and every entry.  Raises ValueError on a
    non-integer entry or when the matrix is singular.
    """
    a = _integer_rows(rows, "integer_inverse")
    n = len(a)
    aug = [row + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        prow = aug[c]
        p = prow[c]
        for i in range(n):
            if i == c:
                continue
            row = aug[i]
            f = row[c]
            for j in range(c + 1, 2 * n):
                row[j] = (p * row[j] - f * prow[j]) // prev
            row[c] = 0
        prev = p
    den = prev
    num = [row[n:] for row in aug]
    if den < 0:
        den = -den
        num = [[-x for x in row] for row in num]
    g = den
    for row in num:
        for x in row:
            g = math.gcd(g, x)
    return [[x // g for x in row] for row in num], den // g

