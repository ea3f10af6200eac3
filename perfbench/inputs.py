"""Seeded input generators for the three workloads.

Nothing here imports laced: the canonical root systems, the positive
semidefiniteness test and the simple-root extraction are written afresh so
that the oracle built on them shares no code path with the program it checks.
Vectors are tuples of integers scaled by 2, so the half-integer E8
coordinates stay exact; a norm-2 root has scaled squared norm 8.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

SCALE = 2

# sweep: per block, how many accepted and rejected graphs of each vertex
# count.  Latency grows with the vertex count, and the quotas put each median
# in the middle of one size class instead of on the edge between two: the
# accepted median in the 5-vertex class, the rejected one in the 6-vertex
# class, and the overall one (accepted share 7 of 20, so it lies among the
# rejections, away from the gap between the two paths) in the 7-vertex class.
SWEEP_ACCEPT = {3: 1, 4: 1, 5: 2, 6: 1, 7: 1, 8: 1}
SWEEP_REJECT = {4: 2, 5: 2, 6: 3, 7: 4, 8: 2}
SWEEP_DENSITY = {3: 0.45, 4: 0.45, 5: 0.45, 6: 0.35, 7: 0.3, 8: 0.3}
# The accepted graph on n >= 6 vertices of block b spans the root lattice
# whose determinant is SWEEP_DETERMINANTS[n][b % 4].  These ops cost several
# times more than the rest and their cost depends on the type, so leaving the
# type to chance would make throughput depend on the seed.  With A + 2I
# nonsingular the vertex vectors are a basis of the lattice they span, an
# irreducible root lattice of rank n, and det(A + 2I) names it: E6, E7, E8
# have 3, 2, 1, D_n has 4 and A_n has n + 1.
SWEEP_DETERMINANTS = {6: (3, 4, 3, 7), 7: (2, 4, 2, 8), 8: (1, 4, 9, 4)}

# one round of the linegraph workload: L(K_n) for each n on the ladder, with
# the middle rung three times so that the median latency, which falls on that
# rung, rests on enough samples in a run of a few rounds
LINEGRAPH_LADDER = (8, 9, 10, 11, 12)
LINEGRAPH_ROUND = (8, 9, 10, 10, 10, 11, 12)

CLASSIFY_SYSTEMS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "A12", "D12", "D16"]
    + ["A2+D4", "A1+E7", "E6+A2", "D5+A3+A3"]
)


# ---------------------------------------------------------------- exact linear algebra


def is_psd(rows: list[list[int]]) -> bool:
    """Exact positive semidefiniteness of a symmetric integer matrix by
    symmetric elimination: a negative pivot, or a zero pivot with a nonzero
    row, proves indefiniteness."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    for k in range(n):
        p = m[k][k]
        if p < 0:
            return False
        if p == 0:
            if any(m[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = m[i][k] / p
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return True


def rank(rows: list[list[int]]) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def determinant(rows: list[list[int]]) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


# ---------------------------------------------------------------- signed graphs


def connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def shifted_gram(n: int, edges) -> list[list[int]]:
    """A + 2I of a signed graph."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for u, v, s in edges:
        rows[u][v] = rows[v][u] = s
    return rows


def graph_text(n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"]
    lines += [f"{u} {v} {'+' if s > 0 else '-'}" for u, v, s in sorted(edges)]
    return "\n".join(lines) + "\n"


def sweep_block(seed: int, block: int) -> list[tuple[int, tuple, bool]]:
    """One block of the sweep: (n, edges, accepted) triples filling the
    quotas, in seeded order.  Acceptance is decided here, exactly, by is_psd."""
    rng = random.Random(f"sweep:{seed}:{block}")
    out = []
    for n in sorted(SWEEP_DENSITY):
        want = {True: SWEEP_ACCEPT.get(n, 0), False: SWEEP_REJECT.get(n, 0)}
        p = SWEEP_DENSITY[n]
        while want[True] or want[False]:
            edges = tuple(
                (u, v, rng.choice((1, -1)))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            )
            if not connected(n, edges):
                continue
            rows = shifted_gram(n, edges)
            ok = is_psd(rows)
            if ok and n in SWEEP_DETERMINANTS and determinant(rows) != SWEEP_DETERMINANTS[n][block % 4]:
                continue
            if want[ok]:
                want[ok] -= 1
                out.append((n, edges, ok))
    rng.shuffle(out)
    return out


def line_graph_of_complete(k: int, rng: random.Random) -> tuple[int, tuple]:
    """L(K_k) under a random vertex relabelling and a random switching.

    Both preserve the spectrum, so every such graph has least eigenvalue -2
    and intrinsic type D_k."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    n = len(pairs)
    label = list(range(n))
    rng.shuffle(label)
    flipped = {v for v in range(n) if rng.random() < 0.5}
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if set(pairs[a]) & set(pairs[b]):
                u, v = sorted((label[a], label[b]))
                s = -1 if (u in flipped) != (v in flipped) else 1
                edges.append((u, v, s))
    return n, tuple(sorted(edges))


# ---------------------------------------------------------------- root systems


def split_label(label: str) -> tuple[str, int]:
    family, rank_text = label[0], label[1:]
    if family not in "ADE" or not rank_text.isdigit():
        raise ValueError(f"bad type label {label!r}")
    return family, int(rank_text)


def root_count(label: str) -> int:
    family, n = split_label(label)
    if family == "A":
        return n * (n + 1)
    if family == "D":
        return 2 * n * (n - 1)
    return {6: 72, 7: 126, 8: 240}[n]


def cartan_determinant(label: str) -> int:
    family, n = split_label(label)
    if family == "A":
        return n + 1
    if family == "D":
        return 4
    return {6: 3, 7: 2, 8: 1}[n]


@lru_cache(maxsize=None)
def canonical_roots(label: str) -> frozenset:
    """Scaled roots of the canonical model of an irreducible type: A_n on
    e_i - e_j in dimension n+1, D_n on +-e_i +- e_j, E8 = D8 plus the
    half-integer vectors with an even number of minus signs, and E7, E6 the
    roots of E8 orthogonal to e7 + e8 and to (-e1-..-e6+e7+e8)/2."""
    family, n = split_label(label)
    out = set()
    if family == "A":
        for i in range(n + 1):
            for j in range(n + 1):
                if i != j:
                    v = [0] * (n + 1)
                    v[i], v[j] = SCALE, -SCALE
                    out.add(tuple(v))
        return frozenset(out)
    dim = n if family == "D" else 8
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * dim
                    v[i], v[j] = si * SCALE, sj * SCALE
                    out.add(tuple(v))
    if family == "D":
        return frozenset(out)
    for mask in range(256):
        if bin(mask).count("1") % 2 == 0:
            out.add(tuple(-1 if mask >> k & 1 else 1 for k in range(8)))
    a = (0, 0, 0, 0, 0, 0, 1, 1)
    b = (-1, -1, -1, -1, -1, -1, 1, 1)
    if n <= 7:
        out = {v for v in out if dot(v, a) == 0}
    if n == 6:
        out = {v for v in out if dot(v, b) == 0}
    return frozenset(out)


def simple_roots(roots, rng: random.Random) -> list[tuple]:
    """Simple roots for a generic linear functional: the positive roots that
    are not the sum of two positive roots."""
    dim = len(next(iter(roots)))
    while True:
        f = [rng.randrange(1, 10**9) for _ in range(dim)]
        values = {r: dot(f, r) for r in roots}
        if all(values.values()):
            break
    positive = [r for r in roots if values[r] > 0]
    pos_set = set(positive)
    sums = set()
    for i, x in enumerate(positive):
        for y in positive[i + 1 :]:
            s = tuple(a + b for a, b in zip(x, y))
            if s in pos_set:
                sums.add(s)
    return sorted(r for r in positive if r not in sums)


def direct_sum(labels: list[str]) -> list[tuple]:
    """Roots of an orthogonal direct sum, each summand on its own block of
    coordinates."""
    dims = [len(next(iter(canonical_roots(t)))) for t in labels]
    out = []
    offset = 0
    total = sum(dims)
    for t, d in zip(labels, dims):
        for r in canonical_roots(t):
            v = [0] * total
            v[offset : offset + d] = r
            out.append(tuple(v))
        offset += d
    return sorted(out)


def signed_permutation(roots: list[tuple], rng: random.Random) -> list[tuple]:
    dim = len(roots[0])
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return [tuple(signs[i] * r[perm[i]] for i in range(dim)) for r in roots]


def fmt_scaled(x: int) -> str:
    return str(x // SCALE) if x % SCALE == 0 else f"{x}/{SCALE}"


def vector_text(roots: list[tuple]) -> str:
    return "".join(" ".join(fmt_scaled(x) for x in r) + "\n" for r in roots)


def classify_round(seed: int, rnd: int) -> list[dict]:
    """Every catalogue system, signed-permuted afresh, given once as the full
    root list (shuffled) and once as a base only, in seeded order."""
    rng = random.Random(f"classify:{seed}:{rnd}")
    out = []
    for system in CLASSIFY_SYSTEMS:
        labels = system.split("+")
        roots = signed_permutation(direct_sum(labels), rng)
        full = list(roots)
        rng.shuffle(full)
        base = simple_roots(frozenset(roots), rng)
        for form, vecs in (("full", full), ("base", base)):
            out.append(
                {
                    "system": system,
                    "labels": sorted(labels),
                    "form": form,
                    "roots": frozenset(roots),
                    "text": vector_text(vecs),
                    "size": len(vecs),
                }
            )
    rng.shuffle(out)
    return out


def parse_scaled(text: str) -> int:
    """A p/q string from program output, scaled by 2; ValueError if the
    result is not an integer."""
    x = Fraction(text) * SCALE
    if x.denominator != 1:
        raise ValueError(f"coordinate {text} is not a multiple of 1/{SCALE}")
    return int(x)
