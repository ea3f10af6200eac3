"""Exact linear algebra on integer matrices.

Every decision that matters downstream (definiteness, determinant, inverse,
kernel) is fraction-free elimination in Bareiss form on arbitrary-precision
integers: each division by the previous pivot is exact, so no rational is
ever built.  The one exception is the short-vector enumeration, an
independent test oracle for the reflection closure, whose LDL^T bounds need
true rationals.  Floating point never appears here; tests cross-check the
definiteness trichotomy against a floating eigensolver and a rational
eliminator, but the trusted path is exact.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import InvariantError

Q = Fraction


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
    """Exact trichotomy of a symmetric integer matrix.

    Fraction-free symmetric elimination in Bareiss form, processing the
    diagonal in order: a_ij <- (d * a_ij - a_ki * a_kj) / prev, where d is
    the current pivot and prev the last nonzero one, and every division is
    exact.  Since every earlier pivot was positive, d has the sign of the
    rational pivot.  A zero pivot is deferred: if its entire residual row
    vanishes the matrix can still be positive semidefinite and the index is
    skipped without changing prev, otherwise a 2x2 indefinite block has been
    found.  No pivot permutation is performed.
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
            return Definiteness.INDEFINITE
        if d == 0:
            # residual row must vanish, else [[0, x], [x, *]] is indefinite
            if any(ak[j] != 0 for j in range(k + 1, n)):
                return Definiteness.INDEFINITE
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
        return Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR
    return Definiteness.POSITIVE_DEFINITE


def _sqrt_upper(r: Fraction) -> Fraction:
    """A rational upper bound on sqrt(r) for r >= 0."""
    return Q(math.isqrt(r.numerator * r.denominator) + 1, r.denominator)


def short_vectors(rows: Sequence[Sequence[int]], target) -> list[tuple[int, ...]]:
    """All integer vectors x with x^T G x == target, for the positive
    definite integer matrix G given by its rows.

    Bound-propagating enumeration over an exact LDL^T decomposition: the
    coefficient ranges come from rational square-root over-approximations and
    every candidate is filtered by the exact form, so completeness never
    depends on rounding.  The result contains no duplicates and is closed
    under negation.
    """
    if definiteness(rows) is not Definiteness.POSITIVE_DEFINITE:
        raise ValueError("short vector enumeration requires a positive definite form")
    t = Q(target)
    if t < 0:
        return []
    n = len(rows)
    # G = L D L^T with L unit lower triangular, D positive.
    a = [[Q(x) for x in row] for row in rows]
    low = [[Q(0)] * n for _ in range(n)]
    diag = [Q(0)] * n
    for k in range(n):
        d = a[k][k]
        diag[k] = d
        low[k][k] = Q(1)
        for i in range(k + 1, n):
            low[i][k] = a[i][k] / d
        for i in range(k + 1, n):
            lik = low[i][k]
            if lik:
                ai = a[i]
                ak = a[k]
                for j in range(k + 1, n):
                    ai[j] -= lik * ak[j]
    results: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, rem: Fraction) -> None:
        # rem = target - sum_{k>i} d_k (x_k + c_k)^2, all remaining terms >= 0
        if i < 0:
            if rem == 0:
                results.append(tuple(x))
            return
        c = sum((low[j][i] * x[j] for j in range(i + 1, n)), Q(0))
        bound = _sqrt_upper(rem / diag[i])
        lo = math.ceil(-c - bound)
        hi = math.floor(-c + bound)
        for v in range(lo, hi + 1):
            y = v + c
            used = diag[i] * y * y
            if used <= rem:
                x[i] = v
                descend(i - 1, rem - used)
        x[i] = 0

    descend(n - 1, t)
    return sorted(results)


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix (fraction-free Bareiss elimination)."""
    a = _integer_rows(rows, "integer_determinant")
    n = len(a)
    if n == 0 or any(len(r) != n for r in a):
        raise ValueError("square matrix required")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (akk * ai[j] - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


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


def primitive_kernel_vector(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The primitive integer vector spanning the kernel of a square integer
    matrix of corank 1, with its first nonzero entry positive.

    The minor that leaves out the last row and column must be nonsingular:
    the kernel vector is (-inv(minor) c, 1) for the last column's head c,
    cleared of the inverse's denominator.  Raises ValueError on a
    non-integer entry, when that minor is singular (corank >= 2 among others)
    or when the vector fails the last row (corank 0).
    """
    n = len(rows)
    if n < 2 or any(len(r) != n for r in rows):
        raise ValueError("square matrix of size >= 2 required")
    rows = _integer_rows(rows, "primitive_kernel_vector")
    head = [r[:-1] for r in rows[:-1]]
    col = [r[-1] for r in rows[:-1]]
    try:
        inv_num, inv_den = integer_inverse(head)
    except ValueError:
        raise ValueError("the minor leaving out the last index is singular")
    vec = [-sum(map(mul, row, col)) for row in inv_num] + [inv_den]
    if sum(map(mul, rows[-1], vec)) != 0:
        raise ValueError("the matrix is nonsingular")
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)
