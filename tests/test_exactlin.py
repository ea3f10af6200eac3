import itertools
import math
import random
from fractions import Fraction as Q
from operator import mul

import numpy as np
import pytest

from laced.exactlin import (
    Definiteness,
    definiteness,
    integer_inverse,
    pivot_frame,
    primitive_kernel_vector,
    symmetric_elimination,
)
from laced.spectra import two_i_minus_adjacency_rows
from ratref import (
    RatMatrix,
    kernel_basis,
    primitive_integer_vector,
    rank,
    rational_definiteness,
    short_vectors,
    solve,
)
from shapes import affine_shape, finite_shape

PD = Definiteness.POSITIVE_DEFINITE
PSD = Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR
INDEF = Definiteness.INDEFINITE

TRIANGLE_GRAM = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def brute_force_short_vectors(rows, target, bound):
    """Independent oracle: full box scan over |x_i| <= bound."""
    n = len(rows)
    out = []
    for x in itertools.product(range(-bound, bound + 1), repeat=n):
        val = sum(rows[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if val == target:
            out.append(x)
    return sorted(out)


def min_eigenvalue(rows) -> float:
    return float(np.linalg.eigvalsh(np.array(rows, dtype=float)).min())


def random_symmetric(rng, n, lo=-3, hi=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


# --- rank ---------------------------------------------------------------


def test_rank_identity():
    assert rank(RatMatrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(RatMatrix([[0] * 3 for _ in range(3)])) == 0


def test_rank_triangle_gram():
    # rows sum to zero, any 2x2 leading minor is 3
    assert rank(RatMatrix(TRIANGLE_GRAM)) == 2


def test_rank_plus_kernel_dimension_is_columns():
    rng = random.Random(101)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = RatMatrix([[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
        assert rank(m) + len(kernel_basis(m)) == nc


# --- solve --------------------------------------------------------------


def test_solve_identity():
    assert solve(RatMatrix.identity(2), [3, 5]) == (3, 5)


def test_solve_inconsistent():
    assert solve(RatMatrix([[1], [1]]), [1, 2]) is None


def test_solve_two_by_two():
    # direct substitution: x = (1, 1)
    assert solve(RatMatrix([[2, -1], [-1, 2]]), [1, 1]) == (1, 1)


def test_solve_satisfies_system_exactly():
    rng = random.Random(202)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = RatMatrix([[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)])
        x0 = [rng.randint(-3, 3) for _ in range(nc)]
        b = m.mul_vec(x0)
        x = solve(m, b)
        assert x is not None
        assert m.mul_vec(x) == b


# --- kernel_basis -------------------------------------------------------


def test_kernel_identity_empty():
    assert kernel_basis(RatMatrix.identity(3)) == []


def test_kernel_triangle_gram_is_ones():
    basis = kernel_basis(RatMatrix(TRIANGLE_GRAM))
    assert len(basis) == 1
    assert primitive_integer_vector(basis[0]) == (1, 1, 1)


def test_kernel_four_cycle():
    # 2I - A for the 4-cycle: every vertex has two neighbours, so A 1 = 2 1
    rows = [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
    basis = kernel_basis(RatMatrix(rows))
    assert len(basis) == 1
    assert primitive_integer_vector(basis[0]) == (1, 1, 1, 1)


def test_kernel_vectors_are_annihilated():
    rng = random.Random(303)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        m = RatMatrix([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.mul_vec(v))


# --- definiteness -------------------------------------------------------


def test_definiteness_examples():
    # pivots 2, 3/2
    assert definiteness([[2, -1], [-1, 2]]) is PD
    # K_3 has eigenvalues 2, -1, -1 so 2I - A has 0, 3, 3
    assert definiteness(TRIANGLE_GRAM) is PSD
    # K_{1,5} has largest eigenvalue sqrt(5) > 2
    star = [[0] * 6 for _ in range(6)]
    for i in range(1, 6):
        star[0][i] = star[i][0] = 1
    two_i_minus = [[2 * (i == j) - star[i][j] for j in range(6)] for i in range(6)]
    assert definiteness(two_i_minus) is INDEF


def test_definiteness_rejects_non_symmetric():
    with pytest.raises(ValueError):
        definiteness([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        definiteness([[1, 2, 3], [4, 5, 6]])


def test_definiteness_rejects_non_integer_entries():
    # the rational answer would be indefinite; truncation would hide that
    with pytest.raises(ValueError, match="integer matrix"):
        definiteness([[Q(-1, 2)]])
    with pytest.raises(ValueError, match="integer matrix"):
        short_vectors([[Q(5, 2), 1], [1, 2]], 2)
    assert definiteness([[Q(2), Q(-1)], [Q(-1), Q(2)]]) is PD


def test_determinant_inverse_and_kernel_reject_non_integer_entries():
    # int() would truncate this: inv [[3/2]] to [[1]]
    with pytest.raises(ValueError, match="integer matrix"):
        integer_inverse([[Q(3, 2)]])
    with pytest.raises(ValueError, match="integer matrix"):
        primitive_kernel_vector([[2, -1], [-1, Q(1, 2)]])
    with pytest.raises(ValueError, match="integer matrix"):
        primitive_kernel_vector([[2, Q(-1, 2)], [Q(-1, 2), 2]])
    assert integer_inverse([[Q(2)]]) == ([[1]], 2)
    assert primitive_kernel_vector([[Q(2), Q(-2)], [Q(-2), Q(2)]]) == (1, 1)


def test_definiteness_zero_pivot_cases():
    assert definiteness([[0, 0], [0, 1]]) is PSD
    assert definiteness([[0, 1], [1, 1]]) is INDEF
    assert definiteness([[0]]) is PSD
    assert definiteness([[1, 2], [2, 1]]) is INDEF


def test_definiteness_matches_kernel():
    rng = random.Random(404)
    pd_seen = psd_seen = 0
    for _ in range(200):
        rows = random_symmetric(rng, rng.randint(1, 5))
        d = definiteness(rows)
        ker = kernel_basis(RatMatrix(rows))
        if d is PD:
            pd_seen += 1
            assert ker == []
        elif d is PSD:
            psd_seen += 1
            assert ker
            for v in ker:
                quad = sum(rows[i][j] * v[i] * v[j] for i in range(len(rows)) for j in range(len(rows)))
                assert quad == 0
    assert pd_seen and psd_seen


def test_definiteness_agrees_with_floating_eigensolver():
    rng = random.Random(505)
    cases = [TRIANGLE_GRAM, [[2, -1], [-1, 2]], [[0, 1], [1, 1]]]
    cases += [random_symmetric(rng, rng.randint(1, 6)) for _ in range(300)]
    for rows in cases:
        d = definiteness(rows)
        lam = min_eigenvalue(rows)
        if d is PD:
            assert lam > -1e-9
        elif d is PSD:
            assert abs(lam) <= 1e-9
        else:
            assert lam < 1e-9


# --- short_vectors ------------------------------------------------------


def test_short_vectors_one_dimensional():
    assert short_vectors([[2]], 2) == [(-1,), (1,)]


def test_short_vectors_a2_gram():
    got = short_vectors([[2, -1], [-1, 2]], 2)
    assert got == brute_force_short_vectors([[2, -1], [-1, 2]], 2, 2)
    assert len(got) == 6


def test_short_vectors_requires_positive_definite():
    with pytest.raises(ValueError):
        short_vectors(TRIANGLE_GRAM, 2)
    with pytest.raises(ValueError):
        short_vectors([[0, 1], [1, 1]], 2)


def test_short_vectors_negation_closed_no_duplicates():
    rng = random.Random(606)
    found = 0
    while found < 10:
        n = rng.randint(1, 4)
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice([-1, 0, 1])
        if definiteness(rows) is not PD:
            continue
        found += 1
        got = short_vectors(rows, 2)
        assert len(set(got)) == len(got)
        as_set = set(got)
        assert as_set == {tuple(-x for x in v) for v in as_set}
        # independent box-scan oracle with a float-safe bound
        lam = min_eigenvalue(rows)
        assert lam > 1e-3
        bound = int((2 / (lam - 1e-6)) ** 0.5) + 1
        assert got == brute_force_short_vectors(rows, 2, bound)


def test_short_vectors_nonstandard_target():
    rows = [[2, 0], [0, 2]]
    assert short_vectors(rows, 4) == sorted(
        [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    )
    assert short_vectors(rows, 0) == [(0, 0)]
    assert short_vectors(rows, 1) == []
    assert short_vectors(rows, -2) == []


# --- integer helpers ----------------------------------------------------


def test_integer_inverse_round_trip():
    rng = random.Random(808)
    done = 0
    while done < 20:
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if fraction_inverse(rows) is None:
            with pytest.raises(ValueError):
                integer_inverse(rows)
            continue
        num, den = integer_inverse(rows)
        assert den > 0
        done += 1
        prod = [
            [sum(rows[i][k] * num[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[den if i == j else 0 for j in range(n)] for i in range(n)]


def fraction_inverse(rows):
    """Reference: Gauss-Jordan over Fractions, or None when singular."""
    n = len(rows)
    aug = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def test_integer_inverse_matches_fraction_elimination():
    # the result is the inverse over its least common denominator, singular
    # matrices included
    rng = random.Random(909)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        lo, hi = rng.choice([(-1, 1), (-3, 3), (-9, 9), (0, 2)])
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if n > 2 and rng.random() < 0.2:
            rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]
        want = fraction_inverse(rows)
        if want is None:
            singular += 1
            with pytest.raises(ValueError, match="matrix is singular"):
                integer_inverse(rows)
            continue
        den = math.lcm(*(x.denominator for row in want for x in row))
        assert integer_inverse(rows) == ([[int(x * den) for x in row] for row in want], den)
    assert singular > 20


def test_primitive_integer_vector():
    assert primitive_integer_vector([Q(1, 2), Q(1, 2), Q(1, 2)]) == (1, 1, 1)
    assert primitive_integer_vector([Q(-2), Q(4)]) == (1, -2)
    assert primitive_integer_vector([Q(0), Q(-3, 2)]) == (0, 1)
    with pytest.raises(ValueError):
        primitive_integer_vector([Q(0), Q(0)])


def test_rat_matrix_shape_validation():
    with pytest.raises(ValueError):
        RatMatrix([])
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]])


# --- integer elimination against the rational reference ----------------


def random_gram(rng, n):
    """Gram matrix of n random integer vectors; singular when they are
    dependent, with zero vectors and combinations of earlier ones mixed in."""
    dim = rng.randint(1, n + 1)
    vecs = []
    for _ in range(n):
        pick = rng.random()
        if pick < 0.1:
            vecs.append([0] * dim)
        elif pick < 0.25 and vecs:
            a, b = rng.choice(vecs), rng.choice(vecs)
            c = rng.randint(-2, 2)
            vecs.append([x + c * y for x, y in zip(a, b)])
        else:
            vecs.append([rng.randint(-2, 2) for _ in range(dim)])
    return [[sum(map(mul, u, v)) for v in vecs] for u in vecs]


def test_definiteness_matches_rational_elimination():
    rng = random.Random(1968)
    seen = {PD: 0, PSD: 0, INDEF: 0}
    leading_zero = 0
    for case in range(6000):
        n = rng.randint(1, 9)
        kind = case % 4
        if kind == 0:
            rows = random_symmetric(rng, n, *rng.choice([(-1, 1), (-3, 3), (-9, 9), (0, 2)]))
        elif kind == 1:
            rows = random_gram(rng, n)
        elif kind == 2:
            # shifted adjacency of a random signed graph, as embed meets it
            rows = random_symmetric(rng, n, -1, 1)
            for i in range(n):
                rows[i][i] = 2
        else:
            # leading zero pivots: a zero first diagonal entry, with its row
            # cleared (deferred) or not (indefinite)
            rows = random_gram(rng, n) if rng.random() < 0.5 else random_symmetric(rng, n)
            rows[0][0] = 0
            if rng.random() < 0.5:
                for j in range(n):
                    rows[0][j] = rows[j][0] = 0
        if rows[0][0] == 0:
            leading_zero += 1
        want = rational_definiteness(RatMatrix(rows))
        assert definiteness(rows) is want, rows
        seen[want] += 1
    assert min(seen.values()) >= 500, seen
    assert leading_zero >= 1000


# --- primitive_kernel_vector ----------------------------------------------


def reference_kernel_vector(rows):
    basis = kernel_basis(RatMatrix(rows))
    assert len(basis) == 1
    return primitive_integer_vector(basis[0])


def test_kernel_vector_of_every_affine_shape():
    rng = random.Random(1111)
    labels = [("A", n) for n in range(2, 13)] + [("D", n) for n in range(4, 13)]
    labels += [("E", 6), ("E", 7), ("E", 8)]
    for family, rk in labels:
        g = affine_shape(family, rk)
        rows = two_i_minus_adjacency_rows(g)
        assert primitive_kernel_vector(rows) == reference_kernel_vector(rows), (family, rk)
        # relabelled copies leave out a different vertex
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            moved = [[rows[perm[i]][perm[j]] for j in range(g.n)] for i in range(g.n)]
            assert primitive_kernel_vector(moved) == reference_kernel_vector(moved), (family, rk)


def test_kernel_vector_of_affine_exchange_grams(monkeypatch):
    import laced.roots
    import laced.spectra

    met = []

    def recording(rows):
        met.append([list(r) for r in rows])
        return primitive_kernel_vector(rows)

    monkeypatch.setattr(laced.spectra, "primitive_kernel_vector", recording)
    rng = random.Random(2008)
    labels = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(2, 9)] + ["E6", "E7", "E8"]
    for label in labels:
        phi = laced.roots.gen(label)
        laced.roots.find_base(phi)
        dim = phi.space.dim
        for _ in range(4):
            perm = list(range(dim))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(dim)]
            laced.roots.find_base(laced.roots.signed_permute(phi, perm, signs))
    assert met
    for rows in met:
        assert primitive_kernel_vector(rows) == reference_kernel_vector(rows)


def test_kernel_vector_requires_corank_one():
    # corank 0
    for rows in ([[2, -1], [-1, 2]], [[1, 0], [0, 1]], two_i_minus_adjacency_rows(finite_shape("E", 8))):
        with pytest.raises(ValueError):
            primitive_kernel_vector(rows)
    # corank >= 2: the minor leaving out the last index is singular
    two_cycles = [[2, -1, -1, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [-1, -1, 2, 0, 0, 0],
                  [0, 0, 0, 2, -1, -1], [0, 0, 0, -1, 2, -1], [0, 0, 0, -1, -1, 2]]
    for rows in (two_cycles, [[0, 0], [0, 0]], [[0] * 3 for _ in range(3)]):
        with pytest.raises(ValueError):
            primitive_kernel_vector(rows)
    assert primitive_kernel_vector(TRIANGLE_GRAM) == (1, 1, 1)
    assert primitive_kernel_vector([[1, 2], [2, 4]]) == (2, -1)


def test_pivot_frame_matches_rational_solves():
    """Pivots taken greedily (an index is a pivot when it raises the rank of
    the minor on the pivots before it), and each index's coefficients over
    them from a Fraction solve of G_PP c = G_Pj, against pivot_frame on the
    rows that symmetric_elimination leaves.  Random Gram matrices with zero
    vectors and dependent ones mixed in, so some need D > 1."""
    rng = random.Random(1976)
    dens = set()
    for _ in range(150):
        rows = random_gram(rng, rng.randint(1, 7))
        kind, upper = symmetric_elimination(rows)
        assert kind is definiteness(rows) is not INDEF
        pivots, den, coeffs = pivot_frame(upper)
        want = []
        for j in range(len(rows)):
            trial = want + [j]
            if rank(RatMatrix([[rows[a][b] for b in trial] for a in trial])) == len(trial):
                want = trial
        assert list(pivots) == want
        assert (kind is PD) == (len(pivots) == len(rows))
        if pivots:
            minor = RatMatrix([[rows[a][b] for b in pivots] for a in pivots])
            exact = [solve(minor, [rows[p][j] for p in pivots]) for j in range(len(rows))]
        else:  # the zero form
            exact = [()] * len(rows)
        assert all(c is not None for c in exact)
        assert all(c[i] == 0 for j, c in enumerate(exact) for i, p in enumerate(pivots) if p > j)
        assert den == math.lcm(1, *(x.denominator for c in exact for x in c))
        assert coeffs == tuple(tuple(int(x * den) for x in c) for c in exact)
        dens.add(den)
    assert 1 in dens and max(dens) > 1
