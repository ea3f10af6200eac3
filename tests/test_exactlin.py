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
    lattice_gram_divisible,
    symmetric_elimination,
)
from laced.spectra import SignedGraph, affine_marks, shifted_gram_rows, smith_classify, two_i_minus_adjacency_rows
from ratref import (
    RatMatrix,
    kernel_basis,
    primitive_integer_vector,
    rank,
    rational_definiteness,
    right_looking_elimination,
    short_vectors,
    solve,
)
from shapes import affine_shape

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


# --- affine marks -------------------------------------------------------


def reference_kernel_vector(rows):
    basis = kernel_basis(RatMatrix(rows))
    assert len(basis) == 1
    return primitive_integer_vector(basis[0])


def test_kernel_vector_of_every_affine_shape():
    # smith_classify and affine_marks read the marks off the elimination of
    # 2I - A that cross-checks the shape
    rng = random.Random(1111)
    labels = [("A", n) for n in range(2, 13)] + [("D", n) for n in range(4, 13)]
    labels += [("E", 6), ("E", 7), ("E", 8)]
    for family, rk in labels:
        g = affine_shape(family, rk)
        # relabelled copies put a different vertex last
        for moved in [g] + [relabelled(g, rng) for _ in range(3)]:
            want = reference_kernel_vector(two_i_minus_adjacency_rows(moved))
            assert smith_classify(moved).marks == want, (family, rk)
            assert affine_marks(moved) == want, (family, rk)


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SignedGraph.unsigned(g.n, [sorted((perm[u], perm[v])) for u, v, _ in g.edges])


def test_kernel_vector_of_affine_exchange_grams(monkeypatch):
    import laced.roots

    met = []
    read_shape = laced.roots.unsigned_shape

    # recorded at the shape memo's entry point, which every growth step
    # passes through, whether or not its graph was read before
    def recording(n, pairs):
        g, st = read_shape(n, pairs)
        if st.kind == "affine":
            met.append((g, st.marks))
        return g, st

    monkeypatch.setattr(laced.roots, "unsigned_shape", recording)
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
    for g, marks in met:
        assert marks == reference_kernel_vector(two_i_minus_adjacency_rows(g))


def test_pivot_frame_matches_rational_solves():
    """Pivots taken greedily (an index is a pivot when it raises the rank of
    the minor on the pivots before it), and each index's coefficients over
    them from a Fraction solve of G_PP c = G_Pj, against the frame that
    symmetric_elimination returns.  Random Gram matrices with zero vectors
    and dependent ones mixed in, so some need D > 1."""
    rng = random.Random(1976)
    dens = set()
    for _ in range(150):
        rows = random_gram(rng, rng.randint(1, 7))
        kind, (pivots, den, coeffs) = symmetric_elimination(rows)
        assert kind is definiteness(rows) is not INDEF
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


def test_left_looking_frame_matches_right_looking():
    """The trichotomy, the pivots P, the denominator D and every coefficient
    equal those read off the upper factor of the right-looking elimination:
    on random symmetric matrices, Gram matrices with zero and dependent
    vectors, and signed adjacencies with diagonal entries 0 to 3, and on
    A + 2I of the line graphs L(K5), L(K6) and L(K7), singular forms of
    rank 5 to 7 on 10 to 21 generators."""
    rng = random.Random(1968)
    seen = {PD: 0, PSD: 0, INDEF: 0}
    for case in range(3000):
        n = rng.randint(1, 9)
        kind = case % 3
        if kind == 0:
            rows = random_symmetric(rng, n, *rng.choice([(-1, 1), (-3, 3), (0, 2)]))
        elif kind == 1:
            rows = random_gram(rng, n)
        else:
            rows = random_symmetric(rng, n, -1, 1)
            for i in range(n):
                rows[i][i] = rng.randint(0, 3)
        want = right_looking_elimination(rows)[:2]
        assert symmetric_elimination(rows) == want, rows
        seen[want[0]] += 1
    assert min(seen.values()) >= 300, seen
    for k in (5, 6, 7):
        rows = shifted_gram_rows(SignedGraph.unsigned(k * (k - 1) // 2, line_graph_pairs(k)), 2)
        kind, frame = symmetric_elimination(rows)
        assert (kind, len(frame[0])) == (PSD, k)
        assert (kind, frame) == right_looking_elimination(rows)[:2]


def line_graph_pairs(k):
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
    return [(i, j) for i in range(len(edges)) for j in range(i + 1, len(edges)) if set(edges[i]) & set(edges[j])]


def test_indefinite_only_through_a_null_vector():
    """Forms with no negative pivot whose indefiniteness shows only in
    M x_j != 0 for a dependent index j: x_j^T M x_j = 0 there, but x_j is
    not in the kernel."""
    cases = [
        [[0, 1], [1, 0]],
        [[1, 1, 1], [1, 1, 0], [1, 0, 1]],
        # index 1 is dependent on index 0; only the last row breaks M x_1 = 0
        [[1, 1, 0, 0], [1, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 5]],
        # a zero row and column except for the last entry of row 0
        [[0, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 0], [1, 0, 0, 2]],
    ]
    for rows in cases:
        assert rational_definiteness(RatMatrix(rows)) is INDEF
        assert right_looking_elimination(rows)[0] is INDEF
        assert symmetric_elimination(rows) == (INDEF, None), rows
        # the minors on the greedy pivots are all positive definite, so only
        # the null-vector check can decide
        pivots = []
        for j in range(len(rows)):
            trial = pivots + [j]
            if rank(RatMatrix([[rows[a][b] for b in trial] for a in trial])) == len(trial):
                pivots = trial
        if pivots:
            assert rational_definiteness(RatMatrix([[rows[a][b] for b in pivots] for a in pivots])) is PD


def test_lattice_gram_divisible_matches_all_pairs():
    # rows scaled by s, with m | s^2, span a lattice whose inner products m
    # divides, and one added row usually breaks that; entries beyond m
    # exercise the reduction mod m
    rng = random.Random(23)
    outcomes = []
    for _ in range(600):
        m = rng.choice([2, 3, 4, 6, 8, 9, 12, 36])
        s = next(k for k in range(1, m + 1) if k * k % m == 0)
        dim = rng.randint(1, 6)
        rows = [[s * rng.randint(-9, 9) for _ in range(dim)] for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            rows.insert(rng.randrange(len(rows) + 1), [rng.randint(-9, 9) for _ in range(dim)])
        want = all(sum(map(mul, a, b)) % m == 0 for a in rows for b in rows)
        assert lattice_gram_divisible(rows, m) == want, (rows, m)
        assert lattice_gram_divisible(iter(rows), m) == want
        outcomes.append(want)
    assert 0 < sum(outcomes) < len(outcomes)
    assert not lattice_gram_divisible([[1]], 2)
    assert lattice_gram_divisible([[2, 0], [0, 2]], 4)
    assert lattice_gram_divisible([], 4)
