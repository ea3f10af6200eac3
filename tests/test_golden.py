"""Golden bytes: CLI stdout pinned to checked-in expected files.

The determinism tests compare runs of the same code with each other; these
compare against fixed bytes, so a refactor that changes any output byte
fails here.  Inputs and expected outputs live in tests/golden/, and
tests/golden/cases.txt lists the command lines run on them: a reducible
A2+D4+E6 under a signed permutation of all 15 coordinates (given as its full
root list and as a base), a shuffled seed of A1+A1+A3+D4+E7 (a base and
four more roots, not closed) under a signed permutation of all 20
coordinates, whose components interleave in sorted order and so pin their
output order, the README triangle, L(K6) relabelled and switched, and two
graphs whose pivot generators span a sublattice of index 2 (the form's
denominator D is 2): K_{1,4} with the centre last, and L(K7) relabelled and
switched.  Further cases pin smith on a finite, an affine and an "exceeds"
graph, gen E8 and close on a base, so every subcommand has one.
"""

import argparse
from pathlib import Path

import pytest

from laced.cli import _parser, main, parse_graph_file
from laced.exactlin import symmetric_elimination
from laced.spectra import shifted_gram_rows
from ratref import right_looking_elimination

GOLDEN = Path(__file__).resolve().parent / "golden"

# one case per line of cases.txt: the expected file, then the laced command
# line, whose file arguments are relative to tests/golden; the CI workflow
# runs the console script on the same list
CASES = [line.split() for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("expected,argv", [(c[0], c[1:]) for c in CASES], ids=[c[0] for c in CASES])
def test_cli_stdout_matches_golden_bytes(capsys, monkeypatch, expected, argv):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / expected).read_text(encoding="utf-8")


def test_every_subcommand_has_a_case():
    (commands,) = [a.choices for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {case[1] for case in CASES} == set(commands)


def test_every_golden_file_has_a_case():
    named = {word for case in CASES for word in case}
    assert {p.name for p in GOLDEN.iterdir()} - named == {"cases.txt"}


@pytest.mark.parametrize("source", ["star_centre_last.sg", "lk7_index2.sg"])
def test_index_two_inputs_have_pivot_denominator_2(source):
    g = parse_graph_file((GOLDEN / source).read_text(encoding="utf-8"))
    rows = shifted_gram_rows(g, 2)
    _, (pivots, den, _) = symmetric_elimination(rows)
    assert den == 2
    # the pivot minor has determinant index^2 * det(D_m) = 4 * 4, the last
    # pivot of the right-looking elimination's upper factor
    _, frame, upper = right_looking_elimination(rows)
    assert frame[:2] == (pivots, den)
    assert upper[pivots[-1]][pivots[-1]] == 16
