"""Graphs and signed graphs with exact spectral-bound classification.

A connected unsigned graph has largest adjacency eigenvalue < 2, = 2, or > 2;
the first two classes are exactly the finite and affine ADE shapes.  The
shapes are recognized combinatorially and cross-validated against the exact
definiteness trichotomy of 2I - A, and the marks vector of an affine shape is
computed as the primitive kernel vector of 2I - A rather than tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvariantError
from .exactlin import Definiteness, definiteness, primitive_kernel_vector


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
    rows = [[-x for x in row] for row in g.adjacency_rows()]
    for i in range(g.n):
        rows[i][i] += 2
    return rows


def is_connected(g: SignedGraph) -> bool:
    return _connected_neighbor_sets(g) is not None


def _connected_neighbor_sets(g: SignedGraph) -> Optional[list[set[int]]]:
    """g's neighbor sets when g is connected, otherwise None."""
    if len(g.edges) < g.n - 1:
        return None  # decided before building one set per vertex
    adj = g.neighbor_sets()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return adj if len(seen) == g.n else None


def connected_without(adj: list[set[int]], skip: int) -> bool:
    """Connectivity of the graph with one vertex removed."""
    n = len(adj)
    if n <= 1:
        return True
    start = 0 if skip != 0 else 1
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v != skip and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n - 1


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


def _leg_lengths(adj: list[set[int]], degs: list[int], center: int) -> list[int]:
    lengths = []
    for start in sorted(adj[center]):
        length = 1
        prev, cur = center, start
        while degs[cur] == 2:
            nxt = next(w for w in adj[cur] if w != prev)
            prev, cur = cur, nxt
            length += 1
        lengths.append(length)
    return sorted(lengths)


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
        legs = tuple(_leg_lengths(adj, degs, branch[0]))
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
    kind, _, _ = _recognize(g, _unsigned_connected_neighbor_sets(g))
    if kind != "affine":
        raise ValueError("marks are defined only for affine shapes")
    return _affine_marks_raw(g)


def _unsigned_connected_neighbor_sets(g: SignedGraph) -> list[set[int]]:
    if not g.is_unsigned():
        raise ValueError("shape classification requires an unsigned graph")
    adj = _connected_neighbor_sets(g)
    if adj is None:
        raise ValueError("graph is not connected")
    return adj


def smith_classify(g: SignedGraph) -> SmithType:
    """Classify a connected unsigned graph against the eigenvalue-2 boundary.

    The combinatorial decision is cross-validated against the exact
    definiteness of 2I - A: finite shapes are positive definite, affine
    shapes positive semidefinite singular, everything else indefinite.
    """
    kind, family, rk = _recognize(g, _unsigned_connected_neighbor_sets(g))
    marks = _affine_marks_raw(g) if kind == "affine" else None
    if not _definiteness_matches(g, kind):
        raise InvariantError(f"shape/definiteness disagreement for {g!r}")
    return SmithType(kind, family, rk, marks)


def _affine_marks_raw(g: SignedGraph) -> tuple[int, ...]:
    # leaving out the last vertex of an affine shape leaves a finite one, so
    # the minor the kernel helper inverts is nonsingular
    try:
        alpha = primitive_kernel_vector(two_i_minus_adjacency_rows(g))
    except ValueError as e:
        raise InvariantError(f"affine shape kernel is not one-dimensional: {e}")
    if any(v <= 0 for v in alpha) or min(alpha) != 1:
        raise InvariantError(f"affine marks are not positive with minimum 1: {alpha}")
    adj_rows = g.adjacency_rows()
    for i in range(g.n):
        if sum(adj_rows[i][j] * alpha[j] for j in range(g.n)) != 2 * alpha[i]:
            raise InvariantError("marks vector does not satisfy alpha A = 2 alpha")
    return alpha


def _definiteness_matches(g: SignedGraph, kind: str) -> bool:
    d = definiteness(two_i_minus_adjacency_rows(g))
    expected = {
        "finite": Definiteness.POSITIVE_DEFINITE,
        "affine": Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR,
        "exceeds": Definiteness.INDEFINITE,
    }[kind]
    return d is expected
