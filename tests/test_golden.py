"""Golden bytes: CLI stdout pinned to checked-in expected files.

The determinism tests compare runs of the same code with each other; these
compare against fixed bytes, so a refactor that changes any output byte
fails here.  Inputs and expected outputs live in tests/golden/: a reducible
A2+D4+E6 under a signed permutation of all 15 coordinates (given as its full
root list and as a base), the README triangle, L(K6) relabelled and
switched, and two graphs whose pivot generators span a sublattice of index 2
(the form's denominator D is 2): K_{1,4} with the centre last, and L(K7)
relabelled and switched.
"""

from pathlib import Path

import pytest

from laced.cli import main, parse_graph_file
from laced.exactlin import pivot_frame, symmetric_elimination
from laced.spectra import shifted_gram_rows

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("a2_d4_e6_roots.vec", ["classify", "--isometry", "--diagram"], "a2_d4_e6_roots.classify.txt"),
    ("a2_d4_e6_roots.vec", ["classify", "--isometry", "--diagram", "--json"], "a2_d4_e6_roots.classify.json"),
    ("a2_d4_e6_base.vec", ["classify", "--isometry", "--diagram"], "a2_d4_e6_base.classify.txt"),
    ("a2_d4_e6_base.vec", ["classify", "--isometry", "--diagram", "--json"], "a2_d4_e6_base.classify.json"),
    ("triangle.sg", ["embed"], "triangle.embed.txt"),
    ("triangle.sg", ["embed", "--json"], "triangle.embed.json"),
    ("lk6.sg", ["embed"], "lk6.embed.txt"),
    ("lk6.sg", ["embed", "--json"], "lk6.embed.json"),
    ("star_centre_last.sg", ["embed"], "star_centre_last.embed.txt"),
    ("star_centre_last.sg", ["embed", "--json"], "star_centre_last.embed.json"),
    ("lk7_index2.sg", ["embed"], "lk7_index2.embed.txt"),
    ("lk7_index2.sg", ["embed", "--json"], "lk7_index2.embed.json"),
]


@pytest.mark.parametrize("source,argv,expected", CASES, ids=[c[2] for c in CASES])
def test_cli_stdout_matches_golden_bytes(capsys, source, argv, expected):
    command, *flags = argv
    assert main([command, str(GOLDEN / source), *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / expected).read_text(encoding="utf-8")


@pytest.mark.parametrize("source", ["star_centre_last.sg", "lk7_index2.sg"])
def test_index_two_inputs_have_pivot_denominator_2(source):
    g = parse_graph_file((GOLDEN / source).read_text(encoding="utf-8"))
    _, upper = symmetric_elimination(shifted_gram_rows(g, 2))
    pivots, den, _ = pivot_frame(upper)
    assert den == 2
    # the pivot minor has determinant index^2 * det(D_m) = 4 * 4
    assert upper[pivots[-1]][pivots[-1]] == 16
