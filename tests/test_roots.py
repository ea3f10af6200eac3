import importlib
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction as Q
from operator import mul
from pathlib import Path

import pytest

import laced.roots
from laced.cli import root_set_from_text
from laced.embed import embed
from laced.errors import InvariantError
from laced.exactlin import Definiteness, definiteness, lattice_gram_divisible
from laced.roots import (
    AmbientSpace,
    DynkinType,
    FormSpace,
    ReducibleType,
    Root,
    RootSet,
    _bases,
    _dual_rows,
    _idot,
    _integral_dot,
    _lowest_terms,
    _make_ambient_normalized,
    _norm_is_2,
    _order_key,
    _reflect,
    _target,
    _unit_roots,
    ambient_root,
    classify,
    closure,
    components,
    find_base,
    gen,
    graph_of,
    is_root_system,
    isometry_to_canonical,
    lattice_root,
    parse_type,
    signed_permute,
)
from laced.spectra import SignedGraph, is_connected, shifted_gram_rows, smith_classify, two_i_minus_adjacency_rows
import ratref
from ratref import (
    RatMatrix,
    is_obtuse,
    isometry_matrix,
    kernel_basis,
    primitive_integer_vector,
    rank,
    short_vectors,
    signed_graph_of,
    solve,
)

# Fixed simple system for E8: a path a1-a3-a4-...-a8 with a2 attached at a4,
# verified below by closure against the canonical 240.
E8_SIMPLE = [
    [Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0],
    [0, 0, -1, 1, 0, 0, 0, 0],
    [0, 0, 0, -1, 1, 0, 0, 0],
    [0, 0, 0, 0, -1, 1, 0, 0],
    [0, 0, 0, 0, 0, -1, 1, 0],
]


def rs(*vectors):
    space = AmbientSpace(len(vectors[0]))
    return RootSet.of(space, [ambient_root(space, v) for v in vectors])


def closure_by_lattice_scan(vectors, bound):
    """Independent oracle: norm-2 integer combinations with |c_i| <= bound."""
    n = len(vectors)
    dim = len(vectors[0])
    out = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=n):
        vec = tuple(sum(Q(c) * Q(v[k]) for c, v in zip(coeffs, vectors)) for k in range(dim))
        if sum(x * x for x in vec) == 2:
            out.add(vec)
    return out


# --- inner products and reflection ---------------------------------------


def test_inner_product_examples():
    space = AmbientSpace(3)
    r12 = ambient_root(space, [1, -1, 0])
    r23 = ambient_root(space, [0, 1, -1])
    assert r12.dot(r12) == 2
    assert r12.dot(r23) == -1
    e8 = AmbientSpace(8)
    a = ambient_root(e8, [0, 0, 0, 0, 0, 0, 1, 1])
    b = ambient_root(e8, [Q(-1, 2)] * 6 + [Q(1, 2), Q(1, 2)])
    assert a.dot(b) == 1


def test_inner_product_rejects_mixed_spaces():
    x = ambient_root(AmbientSpace(2), [1, -1])
    y = ambient_root(AmbientSpace(3), [1, -1, 0])
    with pytest.raises(ValueError):
        x.dot(y)
    form = FormSpace([[2]])
    with pytest.raises(ValueError):
        x.dot(lattice_root(form, [1]))


def reflect(x, y):
    """x - <x,y> y, for roots whose inner product is an integer."""
    return _reflect(x, y, _idot(x, y))


def test_reflect_examples():
    space = AmbientSpace(3)
    x = ambient_root(space, [1, -1, 0])
    assert reflect(x, x) == -x
    y = ambient_root(space, [0, 1, -1])
    assert reflect(x, y) == ambient_root(space, [1, 0, -1])
    orth = ambient_root(space, [1, 1, 0])
    assert x.dot(orth) == 0
    assert reflect(x, orth) == x


def test_reflect_rejects_non_integer_inner_product():
    space = AmbientSpace(3)
    a = ambient_root(space, [Q(4, 3), Q(1, 3), Q(1, 3)])
    b = ambient_root(space, [1, 1, 0])
    assert a.norm2() == 2 and b.norm2() == 2
    # a root set, the only way into closure and so into reflection, refuses
    # the pair; the trusted path's inner product raises on it
    with pytest.raises(ValueError, match="non-integer inner product 5/3"):
        RootSet.of(space, [a, b])
    with pytest.raises(InvariantError, match="non-integer inner product"):
        _idot(a, b)


# --- root set construction ------------------------------------------------


def test_root_set_validation():
    space = AmbientSpace(2)
    with pytest.raises(ValueError):
        RootSet.of(space, [ambient_root(space, [1, 0])])  # norm 1
    other = AmbientSpace(3)
    with pytest.raises(ValueError):
        RootSet.of(space, [ambient_root(other, [1, -1, 0])])
    space3 = AmbientSpace(3)
    a = ambient_root(space3, [Q(4, 3), Q(1, 3), Q(1, 3)])
    b = ambient_root(space3, [1, 1, 0])
    with pytest.raises(ValueError):
        RootSet.of(space3, [a, b])  # non-integer pairwise inner product


def test_root_set_names_a_non_integral_pair_by_input_position():
    # only x meets y non-integrally; the pair is named by where its two
    # vectors stand in the input, whatever order the set sorts them in
    space = AmbientSpace(3)
    x = ambient_root(space, [Q(4, 3), Q(1, 3), Q(1, 3)])
    y = ambient_root(space, [1, 1, 0])
    z = ambient_root(space, [-1, 0, 1])
    assert x.dot(z) == -1 and y.dot(z) == -1
    for vectors, i, j in (([x, y, z], 0, 1), ([y, z, x], 0, 2), ([z, y, x], 1, 2), ([z, x, z, y], 1, 3)):
        with pytest.raises(ValueError, match=f"^vectors {i} and {j} have non-integer inner product 5/3$"):
            RootSet.of(space, vectors)


def test_root_set_dedupes():
    space = AmbientSpace(2)
    r = ambient_root(space, [1, -1])
    s = RootSet.of(space, [r, ambient_root(space, [1, -1]), -r])
    assert len(s) == 2


def test_form_space_validation():
    with pytest.raises(ValueError):
        FormSpace([[2, 1], [0, 2]])  # not symmetric
    with pytest.raises(ValueError):
        FormSpace([[1]])  # diagonal not 2
    with pytest.raises(ValueError):
        FormSpace([[2, 3], [3, 2]])  # indefinite
    fs = FormSpace([[2, -1], [-1, 2]])
    assert fs.n == 2
    with pytest.raises(ValueError):
        lattice_root(fs, [1])  # wrong length


def test_form_space_messages():
    for gram, message in (
        ([[2, Q(1, 2)], [Q(1, 2), 2]], "FormSpace requires an integer matrix"),
        ([], "Gram form must be square"),
        ([[2, -1], [-1]], "Gram form must be square"),
        ([[2, -1, 0], [-1, 2, 0]], "Gram form must be square"),
        ([[2, 1], [0, 2]], "Gram form must be symmetric"),
        ([[2, -1], [-1, 1]], "Gram form must have diagonal 2"),
        ([[2, 3], [3, 2]], "Gram form must be positive semidefinite"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FormSpace(gram)


def test_form_space_rejects_non_integer_entries():
    # int() would read the first as the orthogonal A1+A1 form, and the
    # second as the A2 form
    with pytest.raises(ValueError, match="FormSpace requires an integer matrix"):
        FormSpace([[2, Q(1, 2)], [Q(1, 2), 2]])
    with pytest.raises(ValueError, match="FormSpace requires an integer matrix"):
        FormSpace([[2, -1.7], [-1.7, 2]])
    assert FormSpace([[Q(2), -1.0], [-1, 2]]) == FormSpace([[2, -1], [-1, 2]])


def test_lattice_root_rejects_non_integer_coefficients():
    fs = FormSpace([[2, 0], [0, 2]])
    # int() would read these as the root with coefficients (1, 0)
    with pytest.raises(ValueError, match="lattice_root requires an integer coefficient vector"):
        lattice_root(fs, [1, 0.9])
    with pytest.raises(ValueError, match="lattice_root requires an integer coefficient vector"):
        lattice_root(fs, [1, Q(1, 3)])
    assert lattice_root(fs, [Q(1), 0.0]) == lattice_root(fs, [1, 0])


# --- is_root_system -------------------------------------------------------


def test_is_root_system_examples():
    assert is_root_system(rs([1, -1], [-1, 1]))
    assert not is_root_system(rs([1, -1]))  # missing the negation
    assert is_root_system(rs([1, -1], [-1, 1], [1, 1], [-1, -1]))


def test_empty_set_is_not_a_root_system():
    s = RootSet.of(AmbientSpace(2), [])
    assert not is_root_system(s)


# --- gen -------------------------------------------------------------------


def test_gen_counts():
    assert len(gen("A1")) == 2
    assert len(gen("A2")) == 6
    assert len(gen("D2")) == 4
    assert len(gen("D4")) == 24
    assert len(gen("E6")) == 72
    assert len(gen("E7")) == 126
    assert len(gen("E8")) == 240


def test_gen_equals_the_validated_build_and_its_closure():
    # gen builds its models as trusted sets: each must equal the validated
    # build of the same vectors, in the same order, and be reflection-closed
    labels = [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(2, 13)] + ["E6", "E7", "E8"]
    counts = {"A": lambda n: n * (n + 1), "D": lambda n: 2 * n * (n - 1), "E": {6: 72, 7: 126, 8: 240}.get}
    for label in labels:
        phi = gen(label)
        t = parse_type(label)
        assert len(phi) == counts[t.family](t.rank)
        validated = RootSet.of(phi.space, phi.roots, validate=True)
        assert [r.key for r in phi] == [r.key for r in validated]
        fresh = RootSet.of(phi.space, phi.roots, validate=False)  # no cached flag
        assert closure_all_pairs(fresh) == fresh == phi


def test_gen_rejects_bad_labels():
    for label in ["B2", "A0", "D1", "E5", "E9", "F4", "G2", "A", "8", ""]:
        with pytest.raises(ValueError):
            gen(label)


def test_parse_type():
    assert parse_type("A5") == DynkinType("A", 5)
    assert parse_type(" D10 ") == DynkinType("D", 10)
    with pytest.raises(ValueError):
        parse_type("a5")


def test_gen_vectors_are_integral_or_half_integral():
    for label in ["A3", "D5", "E6", "E7", "E8"]:
        for r in gen(label):
            assert r.den in (1, 2)
            if r.den == 2:
                assert all(v % 2 == 1 for v in map(abs, r.nums))


def test_inner_product_trichotomy_on_generated_systems():
    for label in ["A3", "D4", "E6", "E8"]:
        roots = list(gen(label))
        for i, x in enumerate(roots):
            for y in roots[i + 1 :]:
                t = x.dot(y)
                if y == -x:
                    assert t == -2
                else:
                    assert t in (-1, 0, 1)


# --- graphs and components -------------------------------------------------


def test_graph_of_examples():
    orth = rs([1, -1, 0, 0], [0, 0, 1, -1])
    assert graph_of(orth).edges == ()
    a3 = rs([1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1])
    g = graph_of(a3)
    assert len(g.edges) == 2
    degs = [len(s) for s in g.neighbor_sets()]
    assert sorted(degs) == [1, 1, 2]
    pair = graph_of(gen("A1"))
    assert len(pair.edges) == 1


def test_signed_graph_of_signs():
    s = rs([1, -1, 0], [0, 1, -1], [1, 0, -1])
    g = signed_graph_of(s)
    assert {e[2] for e in g.edges} == {1, -1}


def test_components_examples():
    assert len(components(gen("A2"))) == 1
    two = rs([1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1])
    parts = components(two)
    assert len(parts) == 2
    assert all(len(p) == 2 for p in parts)
    assert components(RootSet.of(AmbientSpace(2), [])) == []


def random_signed_permute(phi, rng):
    dim = phi.space.dim
    perm = list(range(dim))
    rng.shuffle(perm)
    return signed_permute(phi, perm, [rng.choice((1, -1)) for _ in range(dim)])


def components_full_scan(s):
    """The parts of graph_of(s), each as its sorted root indices, in the
    order of their smallest index: a breadth-first search that pops every
    root it reaches."""
    roots = s.roots
    unvisited = set(range(len(roots)))
    parts = []
    while unvisited:
        seed = min(unvisited)
        unvisited.discard(seed)
        stack, part = [seed], [seed]
        while stack:
            u = stack.pop()
            hit = [v for v in unvisited if roots[u].dot(roots[v]) != 0]
            unvisited.difference_update(hit)
            stack.extend(hit)
            part.extend(hit)
        parts.append(sorted(part))
    return parts


def assert_components_match_the_full_scan(s):
    got = [[r.key for r in part] for part in components(s)]
    assert got == [[s.roots[i].key for i in part] for part in components_full_scan(s)]
    return len(got)


def test_components_match_the_full_scan_reference():
    """components reads each part off base growth; the reference is a
    breadth-first search over all pairs.  Inputs: signed-permuted direct
    sums, random validated subsets of them that are not closed (so a part
    is a connected piece of the subset, not of its closure), closures of
    random graph forms, random subsets of their generators, and the empty
    set."""
    rng = random.Random(31)
    subsets = 0
    for labels in (["A2", "D4", "E6"], ["D5", "A3", "A3"], ["E6", "A2"], ["E7", "A1"]):
        for _ in range(3):
            phi = random_signed_permute(direct_sum(labels), rng)
            assert assert_components_match_the_full_scan(phi) == len(labels)
            for _ in range(10):
                picked = rng.sample(phi.roots, rng.randint(1, 16))
                s = RootSet.of(phi.space, [r if rng.random() < 0.5 else -r for r in picked])
                subsets += not is_root_system(s)
                assert_components_match_the_full_scan(s)
    assert subsets >= 100
    for rows in random_semidefinite_graphs(rng, 20):
        fs = FormSpace(rows)
        assert assert_components_match_the_full_scan(intrinsic_closure(rows)) == 1
        units = _unit_roots(fs)
        for _ in range(3):
            assert_components_match_the_full_scan(RootSet.of(fs, rng.sample(units, rng.randint(1, len(units)))))
    assert components(RootSet.of(AmbientSpace(2), [])) == components_full_scan(RootSet.of(AmbientSpace(2), [])) == []


def test_is_obtuse_examples():
    assert is_obtuse(rs([1, -1, 0], [0, 1, -1]))
    assert not is_obtuse(rs([1, -1, 0], [-1, 1, 0]))  # dependent
    assert not is_obtuse(rs([1, -1, 0], [1, 0, -1]))  # inner product +1


# --- closure ----------------------------------------------------------------


def test_closure_single_root():
    c = closure(rs([1, -1, 0]))
    assert len(c) == 2


def test_closure_a2_matches_generator_and_oracle():
    seed = rs([1, -1, 0], [0, 1, -1])
    c = closure(seed)
    assert len(c) == 6
    assert c == gen("A2")
    want = closure_by_lattice_scan([(1, -1, 0), (0, 1, -1)], 3)
    assert {r.coords for r in c} == want


def test_closure_idempotent_and_is_root_system():
    seed = rs([1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1])
    c = closure(seed)
    assert closure(c) == c
    assert closure_all_pairs(c) == c


def test_closure_e8_simple_roots():
    space = AmbientSpace(8)
    seed = RootSet.of(space, [ambient_root(space, v) for v in E8_SIMPLE])
    assert is_obtuse(seed)
    c = closure(seed)
    assert len(c) == 240
    assert c == gen("E8")


def test_closure_rejects_empty():
    with pytest.raises(ValueError):
        closure(RootSet.of(AmbientSpace(2), []))


def test_closure_intrinsic_matches_short_vector_oracle():
    rng = random.Random(99)
    done = 0
    while done < 5:
        n = rng.randint(1, 3)
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice([-1, 0, 1])
        if definiteness(rows) is not Definiteness.POSITIVE_DEFINITE:
            continue
        done += 1
        fs = FormSpace(rows)
        seed = RootSet.of(fs, [lattice_root(fs, [1 if k == i else 0 for k in range(n)]) for i in range(n)])
        got = {r.coeffs for r in closure(seed)}
        assert got == set(short_vectors(rows, 2))


def closure_all_pairs(s):
    """Reference closure: reflect every pair of roots found so far, until no
    pair adds a root.  Quadratic in the closure size; the production closure
    must return the same set."""
    known = {}
    order = []

    def add2(r):
        if r.key not in known:
            known[r.key] = r
            order.append(r)
            m = -r
            known[m.key] = m
            order.append(m)

    for r in s.roots:
        add2(r)
    i = 0
    while i < len(order):
        x = order[i]
        for j in range(i):
            y = order[j]
            t = _idot(x, y)
            if t == 1 or t == -1:
                add2(_reflect(x, y, t))
                add2(_reflect(y, x, t))
            elif t > 2 or t < -2:
                raise InvariantError(f"inner product {t} out of range")
        i += 1
    return RootSet.of(s.space, sorted(known.values(), key=Root.sort_key), validate=False)


def lattice_members(s: list[Root], roots: list[Root]) -> set:
    """Keys of the roots lying in the integer lattice spanned by S."""
    n = len(s)
    gram = RatMatrix([[_idot(a, b) for b in s] for a in s])
    # the columns of Gram(S)^-1, which is symmetric, so also its rows, as
    # integers over their common denominator
    inverse = [solve(gram, [int(i == j) for i in range(n)]) for j in range(n)]
    inv_den = math.lcm(*(c.denominator for row in inverse for c in row))
    inv_num = [[int(c * inv_den) for c in row] for row in inverse]
    members = set()
    for r in roots:
        b = [_idot(x, r) for x in s]
        coeffs = []
        ok = True
        for row in inv_num:
            num = sum(map(mul, row, b))
            c, rem = divmod(num, inv_den)
            if rem:
                ok = False
                break
            coeffs.append(c)
        if ok and combination_key(s, coeffs) == r.key:
            members.add(r.key)
    return members


def combination_key(s: list[Root], coeffs: list[int]):
    """Canonical key of sum(c_i * s_i) without building a Root."""
    space = s[0].space
    if type(space) is FormSpace:
        acc = [0] * len(space.pivots)
        for c, r in zip(coeffs, s):
            if c:
                for k, v in enumerate(r.dvec):
                    acc[k] += c * v
        return tuple(acc)
    den = 1
    for r in s:
        den = den * r.den // math.gcd(den, r.den)
    acc = [0] * space.dim
    for c, r in zip(coeffs, s):
        if c:
            f = c * (den // r.den)
            for k, v in enumerate(r.nums):
                acc[k] += f * v
    return _lowest_terms(tuple(acc), den)


def assert_closure_matches_oracle(seed):
    got = closure(seed)
    want = closure_all_pairs(seed)
    assert got == want
    assert [r.key for r in got] == [r.key for r in want]  # same sorted order
    return got


def random_semidefinite_graphs(rng, count, max_n=8):
    """Random connected signed graphs with A + 2I positive semidefinite."""
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        edges = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]  # a spanning tree
        taken = {(u, v) for u, v, _ in edges}
        for u, v in itertools.combinations(range(n), 2):
            if (u, v) not in taken and rng.random() < 0.15:
                edges.append((u, v, rng.choice((1, -1))))
        g = SignedGraph(n, edges)
        rows = shifted_gram_rows(g, 2)
        if is_connected(g) and definiteness(rows) is not Definiteness.INDEFINITE:
            out.append(rows)
    return out


def test_closure_matches_all_pairs_on_graph_forms():
    rng = random.Random(2024)
    forms = random_semidefinite_graphs(rng, 40)
    kinds = {definiteness(rows) for rows in forms}
    assert kinds == {Definiteness.POSITIVE_DEFINITE, Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR}
    for rows in forms:
        n = len(rows)
        fs = FormSpace(rows)
        units = [lattice_root(fs, [1 if k == i else 0 for k in range(n)]) for i in range(n)]
        assert_closure_matches_oracle(RootSet.of(fs, units, validate=False))
        # seeds that are not unit vectors: norm-2 sums and differences of two
        # generators, which have two nonzero coefficients
        pairs = []
        for i, j in itertools.combinations(range(n), 2):
            if rows[i][j]:
                coeffs = [0] * n
                coeffs[i], coeffs[j] = 1, -rows[i][j]
                pairs.append(lattice_root(fs, coeffs))
        if pairs:
            assert_closure_matches_oracle(RootSet.of(fs, pairs + units[:1]))


def direct_sum(labels):
    """Ambient direct sum of canonical systems, each in its own coordinates."""
    parts = [gen(label) for label in labels]
    dim = sum(p.space.dim for p in parts)
    space = AmbientSpace(dim)
    out = []
    offset = 0
    for p in parts:
        d = p.space.dim
        for r in p:
            coords = [Q(0)] * offset + list(r.coords) + [Q(0)] * (dim - offset - d)
            out.append(ambient_root(space, coords))
        offset += d
    return RootSet.of(space, out, validate=False)


def test_closure_matches_all_pairs_on_permuted_systems_and_bases():
    rng = random.Random(77)
    systems = [gen(f"A{n}") for n in range(1, 9)] + [gen(f"D{n}") for n in range(2, 9)]
    systems += [gen(label) for label in ("E6", "E7", "E8")] + [direct_sum(["A2", "D4", "E6"])]
    for phi in systems:
        dim = phi.space.dim
        perm = list(range(dim))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        scrambled = signed_permute(phi, perm, signs)
        assert assert_closure_matches_oracle(scrambled) == scrambled
        assert assert_closure_matches_oracle(find_base(scrambled)) == scrambled


def test_closure_matches_all_pairs_on_special_seeds():
    space = AmbientSpace(8)
    e8_base = RootSet.of(space, [ambient_root(space, v) for v in E8_SIMPLE])
    assert assert_closure_matches_oracle(e8_base) == gen("E8")
    assert len(assert_closure_matches_oracle(rs([Q(4, 3), Q(1, 3), Q(1, 3)]))) == 2
    # duplicates collapse in RootSet.of; negations and a root already in the
    # orbit of the others are redundant seeds
    a, b = [1, -1, 0, 0], [0, 1, -1, 0]
    redundant = rs(a, a, [-x for x in a], b, [1, 0, -1, 0], [-x for x in b], [0, 0, 1, -1])
    assert assert_closure_matches_oracle(redundant) == gen("A3")
    fs = FormSpace([[2, -1], [-1, 2]])
    x, y = lattice_root(fs, [1, 0]), lattice_root(fs, [0, 1])
    assert len(assert_closure_matches_oracle(RootSet.of(fs, [x, -x, y, x, -y]))) == 6


def test_closure_builds_each_ambient_root_once(monkeypatch):
    # reflections are looked up by key, so only a new root and its negation
    # are ever built
    rng = random.Random(41)
    built = []

    def counting(space, nums, den):
        built.append(nums)
        return _make_ambient_normalized(space, nums, den)

    for label in ("A8", "D8", "E8"):
        phi = random_signed_permute(gen(label), rng)
        base = find_base(phi)
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(laced.roots, "_make_ambient_normalized", counting)
            assert closure(base) == phi
        assert 0 < len(built) <= len(phi), label


NORM_8_SEED = (
    "from laced.roots import AmbientSpace, RootSet, ambient_root, closure\n"
    "from laced.errors import InvariantError\n"
    "space = AmbientSpace(3)\n"
    "seed = RootSet.of(space, [ambient_root(space, v) for v in ((2, 2, 0), (1, 1, 0))], validate=False)\n"
    "try:\n"
    "    closure(seed)\n"
    "except InvariantError:\n"
    "    raise SystemExit(0)\n"
    "raise SystemExit(1)\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_closure_range_check_runs_in_every_mode(flags, tmp_path):
    # a norm-8 vector meets the norm-2 root with inner product 4
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", NORM_8_SEED],
        capture_output=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr


def intrinsic_closure(rows):
    """Closure of the generators of the Gram form given by its rows."""
    fs = FormSpace(rows)
    n = len(rows)
    return closure(RootSet.of(fs, [lattice_root(fs, [int(k == i) for k in range(n)]) for i in range(n)]))


def assert_is_root_system_matches_all_pairs(s):
    fresh = RootSet.of(s.space, s.roots, validate=False)  # no cached flag
    want = closure_all_pairs(fresh) == fresh
    assert is_root_system(fresh) == want
    return want


def test_is_root_system_matches_the_all_pairs_closure():
    rng = random.Random(31)
    systems = [gen(f"A{n}") for n in range(1, 9)] + [gen(f"D{n}") for n in range(2, 9)]
    systems += [gen(label) for label in ("E6", "E7", "E8")] + [direct_sum(["A2", "D4", "E6"])]
    systems += [intrinsic_closure(rows) for rows in random_semidefinite_graphs(rng, 10)]
    for phi in systems:
        assert assert_is_root_system_matches_all_pairs(phi)
        r = rng.choice(phi.roots)
        without_root = [x for x in phi.roots if x != r]
        without_pair = [x for x in without_root if x != -r]
        assert not assert_is_root_system_matches_all_pairs(RootSet.of(phi.space, without_root, validate=False))
        if without_pair:
            kept = assert_is_root_system_matches_all_pairs(RootSet.of(phi.space, without_pair, validate=False))
            assert kept == (phi is gen("D2"))  # D2 = A1+A1 loses a whole component
        assert not assert_is_root_system_matches_all_pairs(find_base(phi))
    assert not is_root_system(RootSet.of(AmbientSpace(2), []))
    # a norm-4 vector without its negation: closure's range check raises
    space = AmbientSpace(2)
    odd = RootSet.of(space, [ambient_root(space, v) for v in ((2, 0), (1, -1), (-1, 1))], validate=False)
    with pytest.raises(InvariantError):
        is_root_system(odd)


def grown_base(phi):
    """The base that base growth finds for an irreducible root system."""
    ((_, base),) = _bases(phi)
    return base


def assert_base_growth_reads_the_lattice(monkeypatch, comp):
    """At every base-growth step the member set _bases reads is the
    set of component roots in the lattice of S, by the reference membership
    test, and the lattice of the base it returns holds every root.

    Every extended set U = S + [q] is classified finite exactly when its
    Gram matrix has full rank, and then kept whole; an affine U carries the
    reference kernel vector as its marks and loses one marks-1 root.
    Returns the number of growth steps (lattice reads that found a root to
    attach) and the set of shape kinds seen."""
    calls = []
    grown = []
    shapes = []
    attachable = laced.roots._attachable_outside
    grow = laced.roots._grown
    classify_shape = laced.roots.smith_classify

    def recording(s, roots, member_keys):
        calls.append((list(s), frozenset(member_keys)))  # the orbit grows on
        return attachable(s, roots, member_keys)

    def growing(u):
        out = grow(u)
        grown.append((list(u), out))
        return out

    def classifying(g):
        st = classify_shape(g)
        shapes.append(st)
        return st

    with monkeypatch.context() as m:
        m.setattr(laced.roots, "_attachable_outside", recording)
        m.setattr(laced.roots, "_grown", growing)
        m.setattr(laced.roots, "smith_classify", classifying)
        base = grown_base(comp)
    assert len(shapes) == len(grown)
    for (u, out), st in zip(grown, shapes):
        gram = RatMatrix([[a.dot(b) for b in u] for a in u])
        assert (st.kind == "finite") == (rank(gram) == len(u))
        if st.kind == "finite":
            assert out == u
        else:
            assert st.kind == "affine"
            assert st.marks == primitive_integer_vector(kernel_basis(gram)[0])
            assert len(out) == len(u) - 1
            dropped = next(i for i, r in enumerate(u) if r not in out)
            assert st.marks[dropped] == 1
    roots = list(comp.roots)
    for s, keys in calls:
        assert keys == lattice_members(s, roots)
    assert lattice_members(base, roots) == comp.keys()
    return len(grown), {st.kind for st in shapes}


def test_base_growth_membership_matches_the_lattice_reference(monkeypatch):
    rng = random.Random(13)
    comps = []
    for label in [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]:
        phi = gen(label)
        comps.append(phi)
        dim = phi.space.dim
        for _ in range(4):
            perm = list(range(dim))
            rng.shuffle(perm)
            comps.append(signed_permute(phi, perm, [rng.choice((1, -1)) for _ in range(dim)]))
    assert any(r.den == 2 for r in gen("E8"))  # the half-integer model
    text = (Path(__file__).resolve().parent / "golden" / "a2_d4_e6_roots.vec").read_text()
    comps += components(root_set_from_text(text))
    forms = random_semidefinite_graphs(rng, 40)
    kinds = {definiteness(rows) for rows in forms}
    assert kinds == {Definiteness.POSITIVE_DEFINITE, Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR}
    comps += [intrinsic_closure(rows) for rows in forms]
    results = [assert_base_growth_reads_the_lattice(monkeypatch, comp) for comp in comps]
    assert max(steps for steps, _ in results) >= 8
    assert set().union(*(shapes for _, shapes in results)) == {"finite", "affine"}


def test_base_growth_that_leaves_a_checked_root_system_is_an_invariant_error():
    # a set flagged as a root system that lacks one +- pair of A2: the orbit
    # of its base holds roots outside it, which only a bug can bring about
    a2 = gen("A2")
    missing = a2.roots[0]
    flagged = RootSet._assembled(a2.space, [r for r in a2 if r not in (missing, -missing)], flag=True)
    with pytest.raises(InvariantError, match="^base growth left the root system$"):
        classify(flagged)
    # unflagged, the same set is one connected part
    assert len(components(RootSet.of(a2.space, flagged.roots))) == 1


def test_irreducible_by_construction_is_an_invariant_error_otherwise(monkeypatch):
    """embed and the canonical target expect base growth to find one
    component; any other count is a bug, not a domain error."""
    inner = laced.roots._bases
    monkeypatch.setattr(laced.roots, "_bases", lambda s: iter(list(inner(s)) * 2))
    with pytest.raises(InvariantError, match="^expected one component, base growth found 2$"):
        embed(SignedGraph(2, [(0, 1, 1)]))
    monkeypatch.setattr(laced.roots, "_TARGETS", {})
    with pytest.raises(InvariantError, match="^expected one component, base growth found 2$"):
        _target(DynkinType("A", 3))


def test_base_growth_step_rejects_a_set_without_a_dynkin_shape():
    # an internal bug, so InvariantError (exit code 3), not the ValueError
    # smith_classify raises for a disconnected graph
    space = AmbientSpace(3)
    a, b = ambient_root(space, (1, -1, 0)), ambient_root(space, (1, 0, -1))
    assert a.dot(b) == 1
    with pytest.raises(InvariantError, match="not obtuse"):
        laced.roots._grown([a, b])
    space = AmbientSpace(4)
    x, y = ambient_root(space, (1, -1, 0, 0)), ambient_root(space, (0, 0, 1, -1))
    assert x.dot(y) == 0
    with pytest.raises(InvariantError, match="not connected"):
        laced.roots._grown([x, y])


# --- find_base ---------------------------------------------------------------


def test_find_base_a1():
    base = find_base(gen("A1"))
    assert len(base) == 1
    assert list(base)[0] in gen("A1")


def test_find_base_a2():
    base = find_base(gen("A2"))
    assert len(base) == 2
    x, y = base
    assert x.dot(y) == -1
    assert closure(base) == gen("A2")


def test_find_base_e8_shape():
    base = find_base(gen("E8"))
    assert len(base) == 8
    st = smith_classify(graph_of(base))
    assert st.label == "E8"  # one branch vertex, legs 1, 2, 4
    assert closure(base) == gen("E8")


def test_find_base_properties_sample():
    for label in ["A4", "D4", "D6", "E6"]:
        phi = gen(label)
        base = find_base(phi)
        assert is_obtuse(base)
        assert closure(base) == phi
        gram = two_i_minus_adjacency_rows(graph_of(base))
        assert definiteness(gram) is Definiteness.POSITIVE_DEFINITE


def test_find_base_reducible():
    two = rs([1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1])
    base = find_base(two)
    assert len(base) == 2
    assert closure(base) == two


def test_find_base_rejects_non_root_system():
    with pytest.raises(ValueError):
        find_base(rs([1, -1, 0]))


# --- classify -----------------------------------------------------------------


def test_classify_examples():
    assert classify(gen("A5")) == DynkinType("A", 5)
    assert classify(gen("D5")) == DynkinType("D", 5)
    e6 = gen("E6")
    assert len(e6) == 72
    assert classify(e6) == DynkinType("E", 6)


def test_classify_canonical_labels():
    assert classify(gen("D2")) == ReducibleType((DynkinType("A", 1), DynkinType("A", 1)))
    assert classify(gen("D2")).label == "A1+A1"
    assert classify(gen("D3")) == DynkinType("A", 3)


def test_classify_reducible_union():
    two = rs([1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1])
    assert classify(two).label == "A1+A1"


def test_classify_rejects_non_root_system():
    with pytest.raises(ValueError):
        classify(rs([1, -1, 0], [0, 1, -1]))


def test_classify_invariant_under_own_isometry():
    for label in ["A3", "D4", "E6"]:
        omega = gen(label)
        t, iso = isometry_to_canonical(omega)
        image = RootSet.of(iso.codomain, [iso.apply(r) for r in omega], validate=False)
        assert classify(image) == t == classify(omega)


def extended_base(label):
    """A base of gen(label) and its lowest root: the one root whose inner
    product with every base root is <= 0."""
    phi = gen(label)
    base = list(find_base(phi))
    (lowest,) = [r for r in phi if all(r.dot(a) <= 0 for a in base)]
    return base + [lowest]


def dynkin_pieces(adj, vertices):
    """The connected pieces of the graph adj induced on vertices, each as
    its sorted vertices."""
    left = set(vertices)
    pieces = []
    while left:
        stack = [min(left)]
        left.discard(stack[0])
        piece = []
        while stack:
            u = stack.pop()
            piece.append(u)
            hit = adj[u] & left
            left -= hit
            stack.extend(hit)
        pieces.append(sorted(piece))
    return pieces


def root_count(t):
    if t.family == "A":
        return t.rank * (t.rank + 1)
    if t.family == "D":
        return 2 * t.rank * (t.rank - 1)
    return {6: 72, 7: 126, 8: 240}[t.rank]


def test_proper_subsets_of_the_extended_base_classify_by_their_pieces():
    """Borel-de Siebenthal: a nonempty proper subset of an extended base is
    a base of the root system it generates, so that system's components
    and types are the connected pieces of the subset's Dynkin graph, as
    smith_classify reads them.  Every such subset, for A1-A10, D4-D10 and
    E6-E8."""
    labels = [f"A{n}" for n in range(1, 11)] + [f"D{n}" for n in range(4, 11)] + ["E6", "E7", "E8"]
    for label in labels:
        ext = extended_base(label)
        n = len(ext)
        adj = [{j for j in range(n) if j != i and ext[i].dot(ext[j])} for i in range(n)]
        piece_types = {}
        for size in range(1, n):
            for subset in itertools.combinations(range(n), size):
                types = []
                for piece in dynkin_pieces(adj, subset):
                    key = tuple(piece)
                    if key not in piece_types:
                        k = len(piece)
                        pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if piece[j] in adj[piece[i]]]
                        st = smith_classify(SignedGraph.unsigned(k, pairs))
                        assert st.kind == "finite", (label, piece)
                        piece_types[key] = DynkinType(st.family, st.rank)
                    types.append(piece_types[key])
                phi = closure(RootSet.of(ext[0].space, [ext[i] for i in subset]))
                want = types[0] if len(types) == 1 else ReducibleType(tuple(types))
                assert classify(phi) == want, (label, subset)
                assert len(components(phi)) == len(types), (label, subset)
                assert len(phi) == sum(map(root_count, types)), (label, subset)


# --- isometries -----------------------------------------------------------------


def test_isometry_identity_like_on_canonical():
    t, iso = isometry_to_canonical(gen("A2"))
    assert t == DynkinType("A", 2)
    image = {iso.apply(r) for r in gen("A2")}
    assert image == set(gen("A2"))


def test_isometry_recovers_permuted_a2():
    scr = signed_permute(gen("A2"), [2, 1, 0], [1, 1, 1])
    t, iso = isometry_to_canonical(scr)
    assert t == DynkinType("A", 2)
    assert {iso.apply(r) for r in scr} == set(gen("A2"))


def test_isometry_from_intrinsic_form():
    fs = FormSpace([[2, -1], [-1, 2]])
    seed = RootSet.of(fs, [lattice_root(fs, [1, 0]), lattice_root(fs, [0, 1])])
    phi = closure(seed)
    t, iso = isometry_to_canonical(phi)
    assert t == DynkinType("A", 2)
    imgs = [iso.apply(r) for r in seed]
    assert all(img in gen("A2") for img in imgs)
    assert imgs[0].dot(imgs[1]) == -1
    assert {iso.apply(r) for r in phi} == set(gen("A2"))


def test_isometry_check_rejects_a_tampered_map(monkeypatch):
    rng = random.Random(43)
    omega = random_signed_permute(gen("D5"), rng)
    t, iso = isometry_to_canonical(omega)
    assert {iso.apply(r).key for r in omega} == gen(t).keys()
    target = laced.roots._target

    def tampered(t):
        # one entry of Y G^-1 off by one: the map still sends the Gram
        # matrices' check through, and the root-by-root check must catch it
        cached = target(t)
        dual = [list(row) for row in cached.dual]
        dual[0][0] += 1
        return cached._replace(dual=tuple(map(tuple, dual)))

    monkeypatch.setattr(laced.roots, "_target", tampered)
    with pytest.raises(InvariantError, match="^mapped root system does not equal the canonical model$"):
        isometry_to_canonical(omega)


def test_isometry_preserves_gram_and_fixes_span():
    rng = random.Random(17)
    omega = gen("D4")
    perm = list(range(4))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(4)]
    scr = signed_permute(omega, perm, signs)
    t, iso = isometry_to_canonical(scr)
    assert t == DynkinType("D", 4)
    roots = list(scr)
    for x in roots[:6]:
        for y in roots[:6]:
            assert iso.apply(x).dot(iso.apply(y)) == x.dot(y)
    m = RatMatrix(iso.matrix)
    qtq = m.transpose().mul(m)
    for x in roots:
        assert qtq.mul_vec(x.coords) == x.coords


def switched_line_graph_of_complete(rng, n):
    """L(K_n) with its vertices relabelled and switched at random."""
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    signs = [rng.choice((1, -1)) for _ in pairs]
    edges = [
        (i, j, signs[i] * signs[j])
        for i, j in itertools.combinations(range(len(pairs)), 2)
        if set(pairs[i]) & set(pairs[j])
    ]
    return SignedGraph(len(pairs), edges)


def test_isometry_apply_matches_the_rational_matrix(monkeypatch):
    # apply sums the integer columns of a root's nonzero coordinates over one
    # denominator; the Fraction matrix product is the reference, for ambient
    # domains (dense E6 and half-integers; sparse D16 and A12) and for
    # intrinsic ones (a radical; 28 generators with mostly zero coefficients)
    rng = random.Random(8)
    cases = [signed_permute(gen("E6"), [7, 6, 5, 4, 3, 2, 1, 0], [1, -1, 1, -1, 1, 1, -1, 1])]
    for label in ("D16", "A12"):
        phi = gen(label)
        dim = phi.space.dim
        perm = list(range(dim))
        rng.shuffle(perm)
        cases.append(signed_permute(phi, perm, [rng.choice((1, -1)) for _ in range(dim)]))
    for omega in cases:
        _, iso = isometry_to_canonical(omega)
        m = RatMatrix(iso.matrix)
        for r in omega:
            assert iso.apply(r).coords == m.mul_vec(r.coords)
    space = FormSpace([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])  # affine A2: a radical
    seed = [lattice_root(space, c) for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    lk8 = switched_line_graph_of_complete(rng, 8)
    assert lk8.n == 28
    cases = [(closure(RootSet.of(space, seed)), "A2"), (intrinsic_closure(shifted_gram_rows(lk8, 2)), "D8")]
    for phi, label in cases:
        t, iso = isometry_to_canonical(phi)
        assert t == parse_type(label)
        m = RatMatrix(iso.matrix)
        for r in phi:
            assert iso.apply(r).coords == m.mul_vec(r.coeffs)
    # embed takes its generators straight from the Gram rows
    made = []

    def recording(space):
        out = laced.roots._unit_roots(space)
        made.append((space, out))
        return out

    monkeypatch.setattr(importlib.import_module("laced.embed"), "_unit_roots", recording)  # laced.embed is the function
    assert embed(lk8).intrinsic_type == DynkinType("D", 8)
    [(form, units)] = made
    want = [lattice_root(form, [int(k == i) for k in range(form.n)]) for i in range(form.n)]
    assert [(r.nums, r.dvec, r.key) for r in units] == [(r.nums, r.dvec, r.key) for r in want]


def test_isometry_rejects_reducible(monkeypatch):
    # before any isometry is built
    two = rs([1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1])
    built = []
    monkeypatch.setattr(laced.roots, "_isometry", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="^isometry requires an irreducible root system$"):
        isometry_to_canonical(two)
    assert built == []


def test_signed_permute_validation():
    with pytest.raises(ValueError):
        signed_permute(gen("A2"), [0, 1], [1, 1, 1])
    with pytest.raises(ValueError):
        signed_permute(gen("A2"), [0, 1, 2], [1, 1, 2])
    fs = FormSpace([[2]])
    s = RootSet.of(fs, [lattice_root(fs, [1])])
    with pytest.raises(ValueError):
        signed_permute(s, [0], [1])


# --- base/closure round trip (sample; full sweep in acceptance)


def test_base_closure_round_trip_sample():
    for label in ["A1", "A5", "D2", "D3", "D7", "E7"]:
        phi = gen(label)
        assert closure(find_base(phi)) == phi


def test_short_vectors_e8_oracle():
    # the lattice enumeration over the simple-root Gram form must recover
    # exactly the 240 canonical roots
    space = AmbientSpace(8)
    simple = [ambient_root(space, v) for v in E8_SIMPLE]
    gram = [[int(a.dot(b)) for b in simple] for a in simple]
    coeff_vectors = short_vectors(gram, 2)
    assert len(coeff_vectors) == 240
    mapped = set()
    for coeffs in coeff_vectors:
        vec = tuple(
            sum(Q(c) * x for c, x in zip(coeffs, col))
            for col in zip(*(r.coords for r in simple))
        )
        mapped.add(vec)
    assert mapped == {r.coords for r in gen("E8")}


def test_intrinsic_route_agrees_with_ambient_route():
    # random subsets of the E8 roots, viewed once through their Gram form
    # (possibly singular, so the radical quotient is exercised) and once in
    # ambient coordinates: both routes must generate the same system
    rng = random.Random(314159)
    e8 = list(gen("E8"))
    for _ in range(25):
        k = rng.randint(2, 9)
        picks = rng.sample(e8, k)
        gram = [[int(a.dot(b)) for b in picks] for a in picks]
        fs = FormSpace(gram)
        units = [lattice_root(fs, [1 if j == i else 0 for j in range(k)]) for i in range(k)]
        phi_intrinsic = closure(RootSet.of(fs, units, validate=False))
        phi_ambient = closure(RootSet.of(picks[0].space, picks, validate=False))
        assert len(phi_intrinsic) == len(phi_ambient)
        ti, ta = classify(phi_intrinsic), classify(phi_ambient)
        assert ti.label == ta.label
        if isinstance(ti, DynkinType):
            isometry_to_canonical(phi_intrinsic)  # internally checked, root by root


def test_closure_handles_unusual_denominators():
    # a norm-2 vector with thirds closes to just itself and its negation
    c = closure(rs([Q(4, 3), Q(1, 3), Q(1, 3)]))
    assert len(c) == 2
    assert {r.coords for r in c} == {
        (Q(4, 3), Q(1, 3), Q(1, 3)),
        (Q(-4, 3), Q(-1, 3), Q(-1, 3)),
    }


def test_isometry_matrix_matches_the_fraction_formula():
    # the integer build of the isometry against the Fraction sums it
    # replaced, from the same base: signed-permuted systems of every
    # irreducible type up to rank 8, and an intrinsic form with a radical
    rng = random.Random(4)
    labels = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8"]
    cases = []
    for label in labels:
        phi = gen(label)
        dim = phi.space.dim
        perm = list(range(dim))
        rng.shuffle(perm)
        omega = signed_permute(phi, perm, [rng.choice([1, -1]) for _ in range(dim)])
        cases.append((omega, omega))
    affine_a2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]  # a radical
    space = FormSpace(affine_a2)
    seed = [lattice_root(space, c) for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    reference = ratref.full_form(affine_a2)  # the Fraction formula reads dvecs over all generators
    cases.append((closure(RootSet.of(space, seed)), closure(RootSet.of(reference, ratref.full_unit_roots(reference)))))
    for omega, ref in cases:
        t, iso = isometry_to_canonical(omega)
        assert iso.matrix == isometry_matrix(ref, grown_base(ref), t), t
        assert iso.den > 0 and math.gcd(iso.den, *(v for row in iso.rows for v in row)) == 1


def test_isometry_target_rows_solve_the_gram_matrix():
    # Y Ginv, read off two pivot frames once per type, against Fraction
    # solves of G c = (row k of Y): row k is the projection of e_k onto the
    # span of the canonically ordered base Y, over Y
    labels = [f"A{n}" for n in range(1, 41)] + [f"D{n}" for n in range(4, 41)] + ["E6", "E7", "E8"]
    for label in labels:
        target = _target(parse_type(label))
        gram = RatMatrix(target.gram)
        want = [solve(gram, row) for row in zip(*(r.coords for r in target.base))]
        assert [tuple(Q(v, target.den) for v in row) for row in target.dual] == want, label
        assert target.den > 0 and math.gcd(target.den, *(v for row in target.dual for v in row)) == 1


def test_dual_rows_reject_a_dependent_base():
    # a repeated base root is no pivot of the second frame
    space = AmbientSpace(3)
    a = ambient_root(space, [1, -1, 0])
    assert _dual_rows([a])[1] == 2
    with pytest.raises(InvariantError, match="do not span the ambient space"):
        _dual_rows([a, a])


def norm_2_vectors(rng, space, den, count):
    """Random vectors of squared norm 2 with denominator dividing den."""
    m = math.isqrt(2 * den * den)
    found = []
    for head in itertools.product(range(-m, m + 1), repeat=space.dim - 1):
        rest = 2 * den * den - sum(v * v for v in head)
        last = math.isqrt(rest) if rest >= 0 else -1
        if last >= 0 and last * last == rest:
            found.append(head + (rng.choice((last, -last)),))
    return [ambient_root(space, [Q(v, den) for v in vec]) for vec in rng.sample(found, min(count, len(found)))]


def test_integral_dot_matches_the_rational_inner_product():
    rng = random.Random(5)
    space = AmbientSpace(4)
    vecs = [
        ambient_root(space, [Q(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6])) for _ in range(4)])
        for _ in range(60)
    ]
    integral = 0
    for x in vecs:
        for y in vecs:
            assert _integral_dot(x, y) == (x.dot(y).denominator == 1)
            integral += _integral_dot(x, y)
    assert 0 < integral < len(vecs) ** 2
    # vectors of squared norm 2 over every denominator 1..6; four coordinates admit no 2
    exact = [r for den in range(1, 7) for r in norm_2_vectors(rng, AmbientSpace(5), den, 10)]
    assert {r.den for r in exact} == set(range(1, 7))
    for x in vecs + exact:
        assert _norm_is_2(x) == (x.norm2() == 2)
    assert 0 < sum(map(_norm_is_2, vecs + exact)) < len(vecs + exact)


def root_set_message(vectors):
    """What RootSet.of(validate=True) says of these norm-2 vectors, by a
    plain loop over the pairs of first occurrences in input order: the
    message naming the first non-integral pair, or None."""
    first = {}
    for i, r in enumerate(vectors):
        first.setdefault(r.key, i)
    positions = sorted(first.values())
    for a, i in enumerate(positions):
        for j in positions[a + 1 :]:
            ip = vectors[i].dot(vectors[j])
            if ip.denominator != 1:
                return f"vectors {i} and {j} have non-integer inner product {ip}"
    return None


def assert_integrality_matches_all_pairs(space, vectors):
    """RootSet.of and the CLI reader refuse exactly what the all-pairs
    references refuse, naming the same first pair in the same message; the
    lattice-basis test alone says whether there is one.  Returns whether the
    vectors were refused."""
    want = root_set_message(vectors)
    if want is None:
        RootSet.of(space, vectors)
    else:
        with pytest.raises(ValueError) as got:
            RootSet.of(space, vectors)
        assert str(got.value) == want
    lcm = math.lcm(*(r.den for r in vectors))
    scaled = [[a * (lcm // r.den) for a in r.nums] for r in vectors]
    assert (lcm == 1 or lattice_gram_divisible(scaled, lcm * lcm)) == (want is None)
    text = "".join(" ".join(map(str, r.coords)) + "\n" for r in vectors)
    try:
        ref = ratref.root_set_from_text(text)
    except ValueError as e:
        assert want is not None
        with pytest.raises(ValueError) as got:
            root_set_from_text(text)
        assert str(got.value) == str(e)
    else:
        assert want is None
        assert root_set_from_text(text).keys() == ref.keys()
    return want is not None


def test_integrality_on_random_norm_2_sets_matches_all_pairs():
    rng = random.Random(17)
    space = AmbientSpace(5)
    pools = {den: norm_2_vectors(rng, space, den, 12) for den in range(1, 7)}
    refused = []
    for _ in range(400):
        dens = rng.sample(range(1, 7), rng.choice((1, 1, 2)))
        vectors = [rng.choice(pools[rng.choice(dens)]) for _ in range(rng.randint(2, 9))]
        vectors += [-v for v in rng.sample(vectors, rng.randint(0, 2))]
        rng.shuffle(vectors)
        refused.append(assert_integrality_matches_all_pairs(space, vectors))
    assert 0 < sum(refused) < len(refused)


def test_integrality_on_exceptional_root_lists_matches_all_pairs():
    # full E6, E7, E8 lists pass; one non-integral vector inserted anywhere
    # is named with the first root it meets non-integrally
    rng = random.Random(19)
    space = AmbientSpace(8)
    bad = ambient_root(space, [Q(4, 3), Q(1, 3), Q(1, 3), 0, 0, 0, 0, 0])
    assert bad.norm2() == 2
    for label in ("E6", "E7", "E8"):
        for _ in range(3):
            vectors = list(random_signed_permute(gen(label), rng))
            rng.shuffle(vectors)
            assert not assert_integrality_matches_all_pairs(space, vectors)
            for _ in range(3):
                tampered = list(vectors)
                tampered.insert(rng.randrange(len(tampered) + 1), bad)
                assert assert_integrality_matches_all_pairs(space, tampered)


def test_integer_order_equals_the_sort_key_order():
    """_order_key sorts as Root.sort_key, the public definition of the order,
    which compares ambient coordinates as Fractions."""
    rng = random.Random(9)
    space = AmbientSpace(4)
    mixed = [
        ambient_root(space, [Q(rng.randint(-3, 3), rng.choice([1, 2, 3, 6])) for _ in range(4)])
        for _ in range(300)
    ]
    assert {1, 2, 3, 6} <= {r.den for r in mixed}
    e8 = list(gen("E8"))
    assert {r.den for r in e8} == {1, 2}
    d5 = FormSpace(two_i_minus_adjacency_rows(SignedGraph.unsigned(5, [(0, 1), (1, 2), (2, 3), (2, 4)])))
    affine_a2 = FormSpace([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    intrinsic = [closure(RootSet.of(sp, _unit_roots(sp))) for sp in (d5, affine_a2)]
    cases = [mixed, e8, list(gen("E7")), list(gen("E6"))] + [list(phi) for phi in intrinsic]
    for roots in cases:
        shuffled = roots[:]
        rng.shuffle(shuffled)
        expected = [r.key for r in sorted(shuffled, key=Root.sort_key)]
        assert [r.key for r in sorted(shuffled, key=_order_key(shuffled))] == expected
        assert min(shuffled, key=_order_key(shuffled)).key == expected[0]
    # the sorted outputs of the package follow the same order
    for phi in [gen("E8"), gen("E7"), closure(rs(*E8_SIMPLE)), RootSet.of(space, mixed, validate=False)] + intrinsic:
        assert list(phi.roots) == sorted(phi.roots, key=Root.sort_key)


def test_pivot_roots_order_as_the_full_reference():
    """Intrinsic roots over pivot generators against ratref's roots over all
    n generators: the same closure in the same order, compared as full
    dvecs, the same base, and the same isometry matrix, one column per
    generator.  Forms: random graph forms (singular and nonsingular), a
    switched L(K8), and K_{1,4} with the centre last, where the pivots are
    the four leaves, the centre is half their sum and D = 2."""
    rng = random.Random(90)
    forms = random_semidefinite_graphs(rng, 30)
    forms.append(shifted_gram_rows(switched_line_graph_of_complete(rng, 8), 2))
    forms.append(shifted_gram_rows(SignedGraph.unsigned(5, [(0, 4), (1, 4), (2, 4), (3, 4)]), 2))
    assert {definiteness(rows) for rows in forms} == {
        Definiteness.POSITIVE_DEFINITE,
        Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR,
    }
    for rows in forms:
        fs, reference = FormSpace(rows), ratref.full_form(rows)
        phi = closure(RootSet.of(fs, _unit_roots(fs), validate=False))
        want = closure(RootSet.of(reference, ratref.full_unit_roots(reference), validate=False))
        assert [ratref.full_dvec(r) for r in phi] == [r.dvec for r in want]
        base, want_base = grown_base(phi), grown_base(want)
        assert [ratref.full_dvec(r) for r in base] == [r.dvec for r in want_base]
        t, iso = isometry_to_canonical(phi)
        assert iso.matrix == isometry_matrix(want, want_base, t)
        assert all(len(row) == len(rows) for row in iso.matrix)
    assert fs.den == 2  # the last form, K_{1,4}


def test_pivot_frame_of_a_singular_form():
    """K_{1,4} with the centre last: the centre is half the sum of the
    leaves, so its stored coefficients are (1, 1, 1, 1) over D = 2; coeffs
    gives back that combination over the five generators."""
    fs = FormSpace(shifted_gram_rows(SignedGraph.unsigned(5, [(0, 4), (1, 4), (2, 4), (3, 4)]), 2))
    assert (fs.pivots, fs.den) == ((0, 1, 2, 3), 2)
    assert fs.pivot_gram == tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4))
    centre = lattice_root(fs, [0, 0, 0, 0, 1])
    assert (centre.nums, centre.den, centre.dvec) == ((1, 1, 1, 1), 2, (2, 2, 2, 2))
    assert centre.coeffs == (Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2), 0)
    assert centre.norm2() == 2
    assert lattice_root(fs, [1, 1, 1, 1, -1]) == centre  # equal modulo the radical
