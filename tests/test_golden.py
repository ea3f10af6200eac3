"""Golden bytes: CLI stdout pinned to checked-in expected files.

The determinism tests compare runs of the same code with each other; these
compare against fixed bytes, so a refactor that changes any output byte
fails here.  Inputs and expected outputs live in tests/golden/: a reducible
A2+D4+E6 under a signed permutation of all 15 coordinates (given as its full
root list and as a base), the README triangle, and L(K6) relabelled and
switched.
"""

from pathlib import Path

import pytest

from laced.cli import main

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
]


@pytest.mark.parametrize("source,argv,expected", CASES, ids=[c[2] for c in CASES])
def test_cli_stdout_matches_golden_bytes(capsys, source, argv, expected):
    command, *flags = argv
    assert main([command, str(GOLDEN / source), *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / expected).read_text(encoding="utf-8")
