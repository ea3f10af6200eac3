"""Graphs and signed graphs with exact spectral-bound classification.

A connected unsigned graph has largest adjacency eigenvalue < 2, = 2, or > 2;
the first two classes are exactly the finite and affine ADE shapes.  The
shapes are recognized combinatorially and cross-validated against the exact
definiteness trichotomy of 2I - A.  The marks vector of an affine shape is
read off that same elimination, as the primitive kernel vector of 2I - A,
rather than tabulated.  unsigned_shape reads each distinct labelled graph
once per process, for base growth, which meets the same few graphs again
and again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional

from .errors import InvariantError
from .exactlin import Definiteness, _eliminate


class SignedGraph:
    """Simple graph with edge signs in {+1, -1}; unsigned means all-positive."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]) -> None:
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        normalized: list[tuple[int, int, int]] = []
        for u, v, s in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) violates 0 <= u < v < n")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if s not in (1, -1):
                raise ValueError(f"edge sign must be +1 or -1, got {s}")
            seen.add((u, v))
            normalized.append((u, v, s))
        self.n = n
        self.edges = tuple(sorted(normalized))

    @classmethod
    def unsigned(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "SignedGraph":
        return cls(n, [(u, v, 1) for u, v in pairs])

    def is_unsigned(self) -> bool:
        return all(s == 1 for _, _, s in self.edges)

    def adjacency_rows(self) -> list[list[int]]:
        a = [[0] * self.n for _ in range(self.n)]
        for u, v, s in self.edges:
            a[u][v] = s
            a[v][u] = s
        return a

    def neighbor_sets(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SignedGraph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n}, edges={list(self.edges)})"


def shifted_gram_rows(g: SignedGraph, shift: int) -> list[list[int]]:
    """Integer rows of shift*I + A for the signed adjacency A."""
    rows = g.adjacency_rows()
    for i in range(g.n):
        rows[i][i] += shift
    return rows


def two_i_minus_adjacency_rows(g: SignedGraph) -> list[list[int]]:
    """Integer rows of 2I - A for the signed adjacency A."""
    return [[-x for x in row] for row in shifted_gram_rows(g, -2)]


def is_connected(g: SignedGraph) -> bool:
    return _connected_neighbor_sets(g) is not None


def _connected_neighbor_sets(g: SignedGraph) -> Optional[list[set[int]]]:
    """g's neighbor sets when g is connected, otherwise None."""
    if len(g.edges) < g.n - 1:
        return None  # decided before building one set per vertex
    adj = g.neighbor_sets()
    return adj if _reach_count(adj, 0) == g.n else None


def connected_without(adj: list[set[int]], skip: int) -> bool:
    """Connectivity of the graph with one vertex removed."""
    n = len(adj)
    if n <= 1:
        return True
    return _reach_count(adj, 0 if skip != 0 else 1, skip) == n - 1


def _reach_count(adj: list[set[int]], start: int, skip: int = -1) -> int:
    """Number of vertices reached from start without entering skip."""
    seen = {start}
    stack = [start]
    while stack:
        for v in adj[stack.pop()]:
            if v != skip and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen)


@dataclass(frozen=True)
class SmithType:
    """Shape class of a connected unsigned graph relative to eigenvalue 2.

    kind is "finite" (largest eigenvalue < 2), "affine" (= 2) or "exceeds"
    (> 2).  Finite and affine shapes carry the ADE family and rank; affine
    shapes also carry their marks vector, indexed by the input vertices.
    """

    kind: str
    family: Optional[str] = None
    rank: Optional[int] = None
    marks: Optional[tuple[int, ...]] = None

    @property
    def label(self) -> str:
        if self.kind == "exceeds":
            return "exceeds"
        if self.kind == "finite":
            return f"{self.family}{self.rank}"
        return f"{self.family}tilde{self.rank}"


def walk_leg(adj: list[set[int]], degs: list[int], prev: int, cur: int) -> list[int]:
    """The vertices from cur on, following degree-2 vertices away from prev,
    up to and including the first vertex whose degree is not 2."""
    leg = [cur]
    while degs[cur] == 2:
        prev, cur = cur, next(w for w in adj[cur] if w != prev)
        leg.append(cur)
    return leg


_FINITE_LEGS = {(1, 2, 2): 6, (1, 2, 3): 7, (1, 2, 4): 8}
_AFFINE_LEGS = {(2, 2, 2): 6, (1, 3, 3): 7, (1, 2, 5): 8}


def _recognize(g: SignedGraph, adj: list[set[int]]) -> tuple[str, Optional[str], Optional[int]]:
    n = g.n
    m = len(g.edges)
    degs = [len(a) for a in adj]
    maxdeg = max(degs)
    if m == n and maxdeg == 2:
        return "affine", "A", n - 1  # cycle
    if m != n - 1:
        return "exceeds", None, None
    # trees from here on
    if maxdeg <= 2:
        return "finite", "A", n  # path
    if maxdeg == 4:
        if n == 5 and degs.count(4) == 1 and degs.count(1) == 4:
            return "affine", "D", 4  # the star K_{1,4}
        return "exceeds", None, None
    if maxdeg > 4:
        return "exceeds", None, None
    branch = [v for v in range(n) if degs[v] == 3]
    if len(branch) == 1:
        legs = tuple(sorted(len(walk_leg(adj, degs, branch[0], w)) for w in adj[branch[0]]))
        if legs[:2] == (1, 1):
            return "finite", "D", legs[2] + 3
        if legs in _FINITE_LEGS:
            return "finite", "E", _FINITE_LEGS[legs]
        if legs in _AFFINE_LEGS:
            return "affine", "E", _AFFINE_LEGS[legs]
        return "exceeds", None, None
    if len(branch) == 2:
        # two degree-3 vertices each carrying two pendant legs, joined by a path
        if all(sum(1 for w in adj[c] if degs[w] == 1) == 2 for c in branch):
            return "affine", "D", n - 1
        return "exceeds", None, None
    return "exceeds", None, None


def affine_marks(g: SignedGraph) -> tuple[int, ...]:
    """Marks vector of an affine shape: the primitive positive kernel vector
    of 2I - A, which satisfies alpha A = 2 alpha with minimum entry 1."""
    marks = smith_classify(g).marks
    if marks is None:
        raise ValueError("marks are defined only for affine shapes")
    return marks


def _unsigned_connected_neighbor_sets(g: SignedGraph) -> list[set[int]]:
    if not g.is_unsigned():
        raise ValueError("shape classification requires an unsigned graph")
    adj = _connected_neighbor_sets(g)
    if adj is None:
        raise ValueError("graph is not connected")
    return adj


_EXPECTED_DEFINITENESS = {
    "finite": Definiteness.POSITIVE_DEFINITE,
    "affine": Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR,
    "exceeds": Definiteness.INDEFINITE,
}


def smith_classify(g: SignedGraph) -> SmithType:
    """Classify a connected unsigned graph against the eigenvalue-2 boundary.

    The combinatorial decision is cross-validated against one exact
    elimination of 2I - A: finite shapes are positive definite, affine
    shapes positive semidefinite singular, everything else indefinite.

    The marks of an affine shape are read off that same elimination.  Every
    proper induced subgraph of an affine shape is finite, so in any vertex
    order the only zero pivot is at the last index.  The pivot frame the
    elimination returns writes that index's vector over the others as c
    scaled by D, so the kernel of 2I - A is spanned by (D c, -D); negated
    and made primitive, it is the marks vector.
    """
    kind, family, rk = _recognize(g, _unsigned_connected_neighbor_sets(g))
    rows = two_i_minus_adjacency_rows(g)
    # built from a validated graph: square, symmetric and integer already
    found, frame = _eliminate(rows)
    if found is not _EXPECTED_DEFINITENESS[kind]:
        raise InvariantError(f"shape/definiteness disagreement for {g!r}")
    if kind != "affine":
        return SmithType(kind, family, rk)
    pivots, den, coeffs = frame
    if pivots != tuple(range(g.n - 1)):
        raise InvariantError(f"affine shape pivots {pivots} are not all indices but the last")
    vec = [-c for c in coeffs[-1]] + [den]
    common = math.gcd(*vec)
    alpha = tuple(v // common for v in vec)
    if min(alpha) != 1:
        raise InvariantError(f"affine marks are not positive with minimum 1: {alpha}")
    # (2I - A) alpha = 0 is alpha A = 2 alpha
    if any(sum(map(mul, row, alpha)) for row in rows):
        raise InvariantError("marks vector does not satisfy alpha A = 2 alpha")
    return SmithType(kind, family, rk, alpha)


# Entries the shape memo keeps: about ten times the distinct labelled graphs
# that base growth meets in a 15 s run of any perfbench workload (95 on
# sweep, 65 on linegraph, 31 on classify, seed 7).
_SHAPE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_SHAPE_MEMO_SIZE)
def unsigned_shape(n: int, pairs: tuple[tuple[int, int], ...]) -> tuple[SignedGraph, SmithType]:
    """The unsigned graph on n vertices with the edges pairs, each (u, v)
    with u < v and listed in sorted order, and its smith_classify.

    Each distinct (n, pairs) is read once per process, and both results are
    shared by every later call, so neither may be changed.  An exception is
    not cached: a graph without a Dynkin shape raises on every call.
    """
    g = SignedGraph.unsigned(n, pairs)
    return g, smith_classify(g)
