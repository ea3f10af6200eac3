"""Constructors for the finite and affine ADE graph shapes, used as test
fixtures: paths, cycles and trees assembled from legs around a branch vertex;
and the line graphs L(K_n), relabelled and switched."""

import itertools

from laced.spectra import SignedGraph


def path_graph(n: int) -> SignedGraph:
    return SignedGraph.unsigned(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SignedGraph:
    return SignedGraph.unsigned(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def star_graph(leaves: int) -> SignedGraph:
    return SignedGraph.unsigned(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def fork_graph(*leg_lengths: int) -> SignedGraph:
    """Tree with one branch vertex (vertex 0) and legs of the given lengths."""
    pairs = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            pairs.append((min(prev, nxt), max(prev, nxt)))
            prev = nxt
            nxt += 1
    return SignedGraph.unsigned(nxt, pairs)


def double_fork_graph(middle: int) -> SignedGraph:
    """Two branch vertices with two pendant leaves each, joined by a path with
    `middle` interior vertices; this is the affine D shape on middle+6 vertices."""
    # vertices: 0 and 1 are the branch ends of the spine, leaves attach last
    n = middle + 6
    c1 = 0
    c2 = middle + 1
    pairs = [(i, i + 1) for i in range(middle + 1)]  # spine c1 .. c2
    leaves = [middle + 2, middle + 3, middle + 4, middle + 5]
    pairs += [(c1, leaves[0]), (c1, leaves[1]), (c2, leaves[2]), (c2, leaves[3])]
    return SignedGraph.unsigned(n, [(min(u, v), max(u, v)) for u, v in pairs])


def finite_shape(family: str, rank: int) -> SignedGraph:
    """The finite Dynkin shape of a type label, on `rank` vertices."""
    if family == "A":
        return path_graph(rank)
    if family == "D":
        return fork_graph(1, 1, rank - 3)
    return {6: fork_graph(1, 2, 2), 7: fork_graph(1, 2, 3), 8: fork_graph(1, 2, 4)}[rank]


def affine_shape(family: str, rank: int) -> SignedGraph:
    """The affine shape of a type label, on rank + 1 vertices."""
    if family == "A":
        return cycle_graph(rank + 1)
    if family == "D":
        return star_graph(4) if rank == 4 else double_fork_graph(rank - 5)
    return {6: fork_graph(2, 2, 2), 7: fork_graph(1, 3, 3), 8: fork_graph(1, 2, 5)}[rank]


def switched_line_graph_of_complete(rng, n: int) -> SignedGraph:
    """L(K_n) with its vertices relabelled and switched at random.  Both keep
    the spectrum, so for n >= 4 the least eigenvalue is -2 and the type is
    D_n."""
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    signs = [rng.choice((1, -1)) for _ in pairs]
    edges = [
        (i, j, signs[i] * signs[j])
        for i, j in itertools.combinations(range(len(pairs)), 2)
        if set(pairs[i]) & set(pairs[j])
    ]
    return SignedGraph(len(pairs), edges)
