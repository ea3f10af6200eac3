"""Output oracle, independent of laced's arithmetic.

Each check returns None when the output is right and a one-line reason when
it is not.  Certificates are checked in scaled integer arithmetic against
A + 2I, rejections against a floating-point eigensolver, and classify
reports against the type each input was built from.
"""

from __future__ import annotations

from fractions import Fraction

from inputs import (
    canonical_roots,
    cartan_determinant,
    determinant,
    dot,
    parse_scaled,
    root_count,
    shifted_gram,
    split_label,
)

# least-eigenvalue tolerance, as in the acceptance suite's float cross-check
EIG_TOL = 1e-9
SQ = 4  # scaled inner products are 4 times the true ones


def least_eigenvalue_shifted(n: int, edges) -> float:
    """Least eigenvalue of A + 2I in floating point."""
    import numpy as np  # loaded only once the run's peak memory has been read

    return float(np.linalg.eigvalsh(np.array(shifted_gram(n, edges), dtype=float)).min())


def _ambient_roots(label: str):
    family, m = split_label(label)
    if family == "D" or (family == "E" and m == 8):
        return canonical_roots(label)
    return None


def check_certificate(n, edges, intrinsic: str, ambient: str, vectors, rank: int) -> str | None:
    """vectors: rows of p/q strings or Fractions, one per vertex; rank: the
    rank of A + 2I, which the intrinsic type's rank must equal."""
    try:
        fam, k = split_label(intrinsic)
        split_label(ambient)
    except ValueError as e:
        return str(e)
    roots = _ambient_roots(ambient)
    if roots is None:
        return f"ambient type {ambient} is neither D_m nor E8"
    expected_ambient = {"A": f"D{k + 1}", "D": intrinsic, "E": "E8"}[fam]
    if ambient != expected_ambient:
        return f"intrinsic {intrinsic} placed in {ambient}, expected {expected_ambient}"
    if rank != k:
        return f"intrinsic rank {k} differs from rank(A + 2I) = {rank}"
    gram = shifted_gram(n, edges)
    if len(vectors) != n:
        return f"{len(vectors)} vectors for {n} vertices"
    try:
        vecs = [tuple(parse_scaled(str(x)) for x in v) for v in vectors]
    except ValueError as e:
        return str(e)
    for i, v in enumerate(vecs):
        if v not in roots:
            return f"vector {i} is not a root of {ambient}"
    for i in range(n):
        for j in range(i, n):
            if dot(vecs[i], vecs[j]) != SQ * gram[i][j]:
                return f"inner product ({i}, {j}) differs from A + 2I"
    return None


def check_rejection(n, edges) -> str | None:
    lam = least_eigenvalue_shifted(n, edges)
    if lam >= -EIG_TOL:
        return f"rejected, but the least eigenvalue of A + 2I is {lam:.3g}"
    return None


def check_acceptance(n, edges) -> str | None:
    lam = least_eigenvalue_shifted(n, edges)
    if lam < -EIG_TOL:
        return f"accepted, but the least eigenvalue of A + 2I is {lam:.3g}"
    return None


def _is_tree(k: int, gram) -> bool:
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if gram[i][j]]
    if len(edges) != k - 1:
        return False
    adj = [[] for _ in range(k)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == k


def check_component(entry: dict, input_roots: frozenset) -> str | None:
    """One component of `laced classify --isometry --json` output."""
    label = entry["type"]
    try:
        split_label(label)
    except ValueError as e:
        return str(e)
    if entry["root_count"] != root_count(label):
        return f"{label}: root_count {entry['root_count']}, expected {root_count(label)}"
    base = [tuple(parse_scaled(x) for x in v) for v in entry["base"]]
    k = len(base)
    if entry["rank"] != k or k != split_label(label)[1]:
        return f"{label}: base of {k} roots, rank {entry['rank']}"
    if any(b not in input_roots for b in base):
        return f"{label}: base vector outside the input system"
    gram = [[dot(x, y) // SQ for y in base] for x in base]
    if any(gram[i][j] not in (0, -1) for i in range(k) for j in range(k) if i != j):
        return f"{label}: base is not obtuse with simply laced angles"
    if not _is_tree(k, gram) or determinant(gram) != cartan_determinant(label):
        return f"{label}: base Gram matrix is not the Cartan matrix of {label}"
    matrix = [[Fraction(x) for x in row] for row in entry["isometry"]]
    images = []
    for b in base:
        if len(b) != len(matrix[0]):
            return f"{label}: isometry has {len(matrix[0])} columns for dimension {len(b)}"
        img = [sum(m * x for m, x in zip(row, b)) for row in matrix]
        if any(x.denominator != 1 for x in img):
            return f"{label}: isometry image is not a multiple of 1/2"
        images.append(tuple(int(x) for x in img))
    canon = canonical_roots(label)
    if any(img not in canon for img in images):
        return f"{label}: isometry maps a base root outside the canonical model"
    if any(dot(images[i], images[j]) // SQ != gram[i][j] for i in range(k) for j in range(k)):
        return f"{label}: isometry does not preserve inner products on the base"
    return None

