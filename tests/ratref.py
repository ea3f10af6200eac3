"""Rational reference implementations for the test suite.

The package works on integer matrices only.  The rational matrix toolkit it
used before lives on here unchanged, as an independent reference: RatMatrix
with rank, solve, kernel_basis and primitive_integer_vector, the signed
adjacency as a RatMatrix, the symmetric elimination with Fraction pivots that
integer definiteness must agree with, the Fraction formula for the isometry
matrix, the short-vector enumeration that is an independent oracle for the
reflection closure, the Fraction-per-token vector-file reader that the
scaled-integer one must agree with, and the intrinsic root over all n
generators of a Gram form that the roots over pivot generators must order
exactly as.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from laced.cli import ParseError, _meaningful_lines
from laced.exactlin import Definiteness, definiteness, integer_inverse
from laced.roots import (
    AmbientSpace,
    FormSpace,
    Root,
    RootSet,
    _canonical_base_order,
    _canonical_ordered_base,
    _idot,
    _integral_dot,
    _make_ambient_normalized,
    _norm_is_2,
)
from laced.spectra import SignedGraph

Q = Fraction

QVector = tuple[Fraction, ...]


class RatMatrix:
    """Immutable matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]) -> None:
        grid = tuple(tuple(Q(x) for x in row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged matrix rows")
        self.rows = len(grid)
        self.cols = width
        self.entries = grid

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, row)) for row in self.entries]})"

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self.entries)))

    def mul_vec(self, v: Sequence) -> QVector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        w = [Q(x) for x in v]
        return tuple(sum(row[j] * w[j] for j in range(self.cols)) for row in self.entries)

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.entries))
        return RatMatrix(
            [[sum(row[k] * col[k] for k in range(self.cols)) for col in cols] for row in self.entries]
        )


def rank(m: RatMatrix) -> int:
    """Rank over the rationals, exact."""
    rows = [list(r) for r in m.entries]
    _, pivots = _echelon(rows, m.cols)
    return len(pivots)


def solve(m: RatMatrix, b: Sequence) -> Optional[QVector]:
    """One exact solution of M x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is unique exactly when M has
    full column rank.
    """
    rhs = [Q(x) for x in b]
    if len(rhs) != m.rows:
        raise ValueError("right-hand side has wrong length")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(m.entries)]
    nc = m.cols
    rows, pivots = _echelon(aug, nc)
    for i in range(len(pivots), m.rows):
        if rows[i][nc] != 0:
            return None
    x = [Q(0)] * nc
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        acc = rows[r][nc] - sum(rows[r][j] * x[j] for j in range(c + 1, nc))
        x[c] = acc / rows[r][c]
    return tuple(x)


def _echelon(rows: list[list[Fraction]], nc: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place forward elimination with pivots among the first nc columns."""
    nr = len(rows)
    width = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = 1 / prow[c]
        for i in range(r + 1, nr):
            f = rows[i][c]
            if f:
                fi = f * inv
                row = rows[i]
                for j in range(c, width):
                    row[j] -= fi * prow[j]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def kernel_basis(m: RatMatrix) -> list[QVector]:
    """Exact basis of the right null space; empty iff full column rank."""
    nc = m.cols
    rows = [list(r) for r in m.entries]
    rows, pivots = _echelon(rows, nc)
    pivot_set = set(pivots)
    free_cols = [c for c in range(nc) if c not in pivot_set]
    basis: list[QVector] = []
    for fc in free_cols:
        v = [Q(0)] * nc
        v[fc] = Q(1)
        # back-substitute the pivot coordinates
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            acc = -sum(rows[r][j] * v[j] for j in range(c + 1, nc))
            v[c] = acc / rows[r][c]
        basis.append(tuple(v))
    return basis


def rational_definiteness(m: RatMatrix) -> Definiteness:
    """Exact trichotomy of a symmetric matrix.

    Symmetric elimination with rational pivots, processing the diagonal in
    order.  A zero pivot is deferred: if its entire residual row vanishes the
    matrix can still be positive semidefinite, otherwise a 2x2 indefinite
    block has been found.  No pivot permutation is performed.
    """
    if not m.is_symmetric():
        raise ValueError("definiteness requires a symmetric matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
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
            if f:
                fd = f / d
                ai = a[i]
                for j in range(i, n):
                    ai[j] -= fd * ak[j]
    if saw_zero:
        return Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR
    return Definiteness.POSITIVE_DEFINITE


def primitive_integer_vector(vec: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector.

    Denominators are cleared, the content is divided out, and the sign is
    normalized so the first nonzero entry is positive.
    """
    fracs = [Q(x) for x in vec]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive form")
    den = 1
    for x in fracs:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in fracs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    ints = [v // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def adjacency(g: SignedGraph) -> RatMatrix:
    """Signed adjacency matrix: entries in {-1, 0, 1}, zero diagonal."""
    return RatMatrix(g.adjacency_rows())


def isometry_matrix(omega, base, t) -> tuple[tuple[Fraction, ...], ...]:
    """The isometry matrix of roots._isometry, built with Fraction sums from
    the same base: Y Ginv B for the target base columns Y, the inverse Gram
    matrix of the canonically ordered base and its inner-product rows B."""
    ordered = _canonical_base_order(base)
    target = _canonical_ordered_base(t)
    m = len(ordered)
    gram = [[_idot(a, b) for b in ordered] for a in ordered]
    inv_num, inv_den = integer_inverse(gram)
    domain = omega.space
    if type(domain) is FormSpace:
        in_dim = domain.n
        b_rows = [[Q(v) for v in r.dvec] for r in ordered]
    else:
        in_dim = domain.dim
        b_rows = [list(r.coords) for r in ordered]
    # coords -> base coefficients: Ginv @ B
    coeff_rows = [
        [sum(Q(inv_num[a][j]) * b_rows[j][k] for j in range(m)) / inv_den for k in range(in_dim)]
        for a in range(m)
    ]
    codomain = AmbientSpace(t.ambient_dim)
    y_cols = [r.coords for r in target]
    return tuple(
        tuple(sum(y_cols[a][i] * coeff_rows[a][k] for a in range(m)) for k in range(in_dim))
        for i in range(codomain.dim)
    )


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


def ambient_root(space: AmbientSpace, coords: Sequence) -> Root:
    """Build an ambient root from exact rational coordinates."""
    fracs = [Q(x) for x in coords]
    if len(fracs) != space.dim:
        raise ValueError(f"expected {space.dim} coordinates, got {len(fracs)}")
    den = 1
    for x in fracs:
        den = den * x.denominator // math.gcd(den, x.denominator)
    nums = tuple(int(x * den) for x in fracs)
    return _make_ambient_normalized(space, nums, den)


def parse_vector_file(text: str) -> list[tuple[int, tuple[Fraction, ...]]]:
    """Parse a vector-set file into (line number, vector) pairs."""
    rows: list[tuple[int, tuple[Fraction, ...]]] = []
    for lineno, line in _meaningful_lines(text):
        toks = line.split()
        try:
            vec = tuple(Q(tok) for tok in toks)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: cannot parse rational vector {line!r}")
        rows.append((lineno, vec))
    if not rows:
        raise ParseError("input contains no vectors")
    width = len(rows[0][1])
    for lineno, vec in rows:
        if len(vec) != width:
            raise ParseError(f"line {lineno}: expected {width} entries, got {len(vec)}")
    return rows


def root_set_from_text(text: str) -> RootSet:
    """Parse and validate a vector-set file, attributing errors to lines."""
    rows = parse_vector_file(text)
    space = AmbientSpace(len(rows[0][1]))
    roots: list[tuple[int, Root]] = []
    for lineno, vec in rows:
        r = ambient_root(space, vec)
        if not _norm_is_2(r):
            raise ValueError(f"line {lineno}: vector has squared norm {r.norm2()}, expected 2")
        roots.append((lineno, r))
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            li, x = roots[i]
            lj, y = roots[j]
            if not _integral_dot(x, y):
                raise ValueError(f"lines {li} and {lj}: non-integer inner product {x.dot(y)}")
    return RootSet.of(space, [r for _, r in roots], validate=False)


# --- intrinsic roots over all n generators of a Gram form


def full_form(gram: Sequence[Sequence[int]]) -> FormSpace:
    """The Gram form with every generator as a stored coordinate.

    Its roots are intrinsic roots as laced stored them before it moved to
    pivot generators: ``nums`` are the n generator coefficients, ``den`` is
    1, and ``dvec`` and ``key`` are G @ nums, the inner products with all n
    generators.  The package's closure, base growth and isometry build read
    only nums, dvec and den, so they run on these roots unchanged.  The
    space equals FormSpace(gram), since equality reads the Gram form only:
    keep its roots apart from the package's.
    """
    space = FormSpace(gram)  # validates the form
    n = space.n
    full = object.__new__(FormSpace)
    full.gram = space.gram
    full._hash = space._hash
    full.pivots = tuple(range(n))
    full.pivot_gram = space.gram
    full.den = 1
    full._units = tuple(tuple(int(k == i) for k in range(n)) for i in range(n))
    return full


def full_lattice_root(space: FormSpace, coeffs: Sequence[int]) -> Root:
    """The root sum(coeffs[i] * e_i) over a full_form, keyed by G @ coeffs."""
    nums = tuple(int(c) for c in coeffs)
    dvec = tuple(sum(a * b for a, b in zip(row, nums)) for row in space.gram)
    r = object.__new__(Root)
    r.space = space
    r.nums = nums
    r.den = 1
    r.dvec = dvec
    r.key = dvec
    r._hash = hash((space._hash, dvec))
    return r


def full_unit_roots(space: FormSpace) -> list[Root]:
    """The generators e_1..e_n of a full_form as roots."""
    n = space.n
    return [full_lattice_root(space, [int(k == i) for k in range(n)]) for i in range(n)]


def full_dvec(r: Root) -> tuple[int, ...]:
    """The inner products of one of the package's intrinsic roots with all n
    generators of its form: what its dvec and key are over a full_form.
    The root stores D times its coefficients over the pivots P, so
    <r, e_i> = sum over p in P of G[i][p] * nums_p / D."""
    sp = r.space
    out = []
    for row in sp.gram:
        q, rem = divmod(sum(row[p] * v for p, v in zip(sp.pivots, r.nums)), sp.den)
        if rem:
            raise ValueError("inner product with a generator is not an integer")
        out.append(q)
    return tuple(out)
