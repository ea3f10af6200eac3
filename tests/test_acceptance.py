"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Stated runtime budgets are asserted.  Every expected value is either pinned
exactly or recomputed through an independent route (floating eigensolver,
box-scan enumeration, lattice short vectors).
"""

import itertools
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

from laced.cli import main as cli_main
from laced.embed import check_least_eigenvalue, embed, verify_certificate
from laced.exactlin import Definiteness, definiteness
from laced.roots import (
    FormSpace,
    RootSet,
    classify,
    closure,
    find_base,
    gen,
    graph_of,
    isometry_to_canonical,
    lattice_root,
    parse_type,
    signed_permute,
)
from laced.spectra import (
    SignedGraph,
    is_connected,
    shifted_gram_rows,
    smith_classify,
    two_i_minus_adjacency_rows,
)
from graphgen import connected_graphs_up_to
from ratref import RatMatrix, is_obtuse, short_vectors
from shapes import affine_shape, finite_shape

PD = Definiteness.POSITIVE_DEFINITE
PSD = Definiteness.POSITIVE_SEMIDEFINITE_SINGULAR
INDEF = Definiteness.INDEFINITE


@contextmanager
def criterion(num, name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL [{time.time() - t0:.1f}s]")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS [{time.time() - t0:.1f}s]")


def test_criterion_1_count_oracles():
    with criterion(1, "count oracles"):
        t0 = time.time()
        for n in range(1, 11):
            assert len(gen(f"A{n}")) == n * (n + 1)
        for n in range(2, 11):
            assert len(gen(f"D{n}")) == 2 * n * (n - 1)
        assert len(gen("E8")) == 240
        assert len(gen("E7")) == 126
        assert len(gen("E6")) == 72
        assert time.time() - t0 < 5.0


CANONICAL_UP_TO_RANK_8 = (
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(2, 9)] + ["E6", "E7", "E8"]
)


def test_criterion_2_base_gives_back_the_system():
    with criterion(2, "base/closure round trip"):
        for label in CANONICAL_UP_TO_RANK_8:
            phi = gen(label)
            base = find_base(phi)
            assert is_obtuse(base), label
            assert closure(base) == phi, label
            gram = [[int(a.dot(b)) for b in base] for a in base]
            assert gram == two_i_minus_adjacency_rows(graph_of(base)), label
            assert definiteness(gram) is PD, label


CLASSIFY_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + [
    "E6",
    "E7",
    "E8",
]


def test_criterion_3_classification_round_trip():
    with criterion(3, "classification round trip"):
        rng = random.Random(20260808)
        for label in CLASSIFY_TYPES:
            t = parse_type(label)
            phi = gen(t)
            assert classify(phi) == t, label
            dim = phi.space.dim
            for _ in range(50):
                perm = list(range(dim))
                rng.shuffle(perm)
                signs = [rng.choice([1, -1]) for _ in range(dim)]
                assert classify(signed_permute(phi, perm, signs)) == t, label


def test_criterion_4_closure_equals_short_vector_oracle():
    with criterion(4, "reflection closure vs lattice oracle"):
        t0 = time.time()
        rng = random.Random(441)
        found = 0
        while found < 20:
            m = rng.randint(1, 6)
            rows = [[2 if i == j else 0 for j in range(m)] for i in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    rows[i][j] = rows[j][i] = rng.choice([-1, 0, 1])
            if definiteness(rows) is not PD:
                continue
            found += 1
            fs = FormSpace(rows)
            units = [
                lattice_root(fs, [1 if k == i else 0 for k in range(m)]) for i in range(m)
            ]
            seed = RootSet.of(fs, units, validate=False)
            got = {r.coeffs for r in closure(seed)}
            assert got == set(short_vectors(rows, 2))
        assert time.time() - t0 < 60.0


def test_criterion_5_graph_shape_suite():
    with criterion(5, "graph shape suite"):
        t0 = time.time()
        affine = [("A", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
        affine += [("E", 6), ("E", 7), ("E", 8)]
        for family, rk in affine:
            g = affine_shape(family, rk)
            assert g.n <= 9
            assert definiteness(two_i_minus_adjacency_rows(g)) is PSD
            st = smith_classify(g)
            assert st.kind == "affine" and (st.family, st.rank) == (family, rk)
            alpha = st.marks
            assert min(alpha) == 1
            rows = g.adjacency_rows()
            for i in range(g.n):
                assert sum(rows[i][j] * alpha[j] for j in range(g.n)) == 2 * alpha[i]
        finite = [("A", n) for n in range(1, 10)] + [("D", n) for n in range(4, 10)]
        finite += [("E", 6), ("E", 7), ("E", 8)]
        for family, rk in finite:
            g = finite_shape(family, rk)
            assert g.n <= 9
            assert definiteness(two_i_minus_adjacency_rows(g)) is PD
            st = smith_classify(g)
            assert st.kind == "finite" and (st.family, st.rank) == (family, rk)
        # exhaustive agreement over all connected graphs on <= 7 vertices
        # (one representative per isomorphism class; both sides are
        # relabeling-invariant)
        checked = 0
        per_size: dict[int, int] = {}
        for n, edges in connected_graphs_up_to(7):
            g = SignedGraph.unsigned(n, edges)
            st = smith_classify(g)
            d = definiteness(two_i_minus_adjacency_rows(g))
            expected = {"finite": PD, "affine": PSD, "exceeds": INDEF}[st.kind]
            assert d is expected, (n, edges, st.kind, d)
            checked += 1
            per_size[n] = per_size.get(n, 0) + 1
        assert per_size == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        assert checked == 996
        assert time.time() - t0 < 120.0


def test_criterion_6_signed_graph_embedding_suite():
    with criterion(6, "signed graph embedding suite"):
        t0 = time.time()
        float_batches: dict[int, tuple[list, list]] = {}
        embedded = rejected = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            mats, kinds = float_batches.setdefault(n, ([], []))
            for assignment in itertools.product((0, 1, -1), repeat=len(pairs)):
                edges = [(u, v, s) for (u, v), s in zip(pairs, assignment) if s]
                g = SignedGraph(n, edges)
                if not is_connected(g):
                    continue
                d = check_least_eigenvalue(g)
                expected = shifted_gram_rows(g, 2)
                mats.append(expected)
                kinds.append(d)
                if d is INDEF:
                    rejected += 1
                    with pytest.raises(ValueError, match="least eigenvalue below -2"):
                        embed(g)
                    continue
                embedded += 1
                cert = embed(g)
                vs = [tuple(Q(x) for x in v) for v in cert.vectors]
                for i in range(n):
                    for j in range(i, n):
                        got = sum(a * b for a, b in zip(vs[i], vs[j]))
                        assert got == expected[i][j]
                at = cert.ambient_type
                assert at.family == "D" or (at.family == "E" and at.rank == 8)
                assert verify_certificate(g, cert)
        assert embedded > 0 and rejected > 0
        # floating cross-check on every instance, batched per size
        for n, (mats, kinds) in float_batches.items():
            lam = np.linalg.eigvalsh(np.array(mats, dtype=float)).min(axis=1)
            for lam_min, d in zip(lam, kinds):
                if d is PD:
                    assert lam_min > -1e-9
                elif d is PSD:
                    assert abs(lam_min) <= 1e-9
                else:
                    assert lam_min < 1e-9
        print(f"\n  (criterion 6: {embedded} embedded, {rejected} rejected)")
        assert time.time() - t0 < 300.0


def test_criterion_7_isometry_suite():
    with criterion(7, "isometry suite"):
        rng = random.Random(77)
        e6 = gen("E6")
        canonical = set(e6.roots)
        for _ in range(20):
            perm = list(range(8))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(8)]
            scrambled = signed_permute(e6, perm, signs)
            t, iso = isometry_to_canonical(scrambled)
            assert t.label == "E6"
            m = RatMatrix(iso.matrix)
            qtq = m.transpose().mul(m)
            for r in scrambled:
                assert qtq.mul_vec(r.coords) == r.coords  # identity on the span, exact
            assert {iso.apply(r) for r in scrambled} == canonical


def test_criterion_8_cli_contract(tmp_path, capsys):
    with criterion(8, "cli determinism and exit codes"):
        # byte-determinism for every command class, across separate processes
        # with different hash seeds
        vec = tmp_path / "d5.vec"
        assert cli_main(["gen", "D5", "--output", str(vec)]) == 0
        graph = tmp_path / "c4.sg"
        graph.write_text("4 4\n0 1 +\n1 2 +\n2 3 +\n0 3 +\n")
        commands = [
            ["gen", "E7"],
            ["close", str(vec)],
            ["base", str(vec)],
            ["classify", str(vec), "--json", "--isometry", "--diagram"],
            ["smith", str(graph), "--json"],
            ["embed", str(graph), "--json"],
        ]
        repo = Path(__file__).resolve().parents[1]
        runs = []
        for seed in ("1", "20260808"):
            out = []
            for argv in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "laced.cli", *argv],
                    capture_output=True,
                    cwd=repo,
                    env={"PYTHONPATH": str(repo / "src"), "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                )
                assert proc.returncode == 0, proc.stderr
                out.append(proc.stdout)
            runs.append(out)
        assert runs[0] == runs[1]
        # and within one process
        for argv in commands:
            assert cli_main(argv) == 0
            first = capsys.readouterr().out
            assert cli_main(argv) == 0
            assert capsys.readouterr().out == first

        # exit code 0: success fixture
        ok = tmp_path / "ok.vec"
        ok.write_text("1 -1\n")
        assert cli_main(["close", str(ok)]) == 0
        capsys.readouterr()

        # exit code 1: domain error fixture (least eigenvalue below -2)
        k5 = tmp_path / "k5.sg"
        k5.write_text(
            "5 10\n" + "".join(f"{u} {v} -\n" for u in range(5) for v in range(u + 1, 5))
        )
        assert cli_main(["embed", str(k5)]) == 1
        err = capsys.readouterr().err
        assert "least eigenvalue below -2" in err

        # exit code 2: parse error fixture (ragged vector file)
        ragged = tmp_path / "ragged.vec"
        ragged.write_text("1 -1\n1 -1 0\n")
        assert cli_main(["close", str(ragged)]) == 2
        capsys.readouterr()
