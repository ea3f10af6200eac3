import importlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from laced.cli import main, parse_graph_file, parse_vector_file, root_set_from_text

TRIANGLE_NEG = "3 3\n0 1 -\n0 2 -\n1 2 -\n"
K5_NEG = "5 10\n" + "".join(
    f"{u} {v} -\n" for u in range(5) for v in range(u + 1, 5)
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parsing ----------------------------------------------------------------


def test_parse_vector_file_comments_and_fractions():
    rows = parse_vector_file("# header\n1 -1 0\n\n1/2 -1/2 0  # inline\n")
    assert rows == [(2, (1, -1, 0)), (4, (Fraction(1, 2), Fraction(-1, 2), 0))]


def test_parse_vector_file_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_vector_file("1 -1\n1 x\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_vector_file("1 -1\n-1 1\n1 0 0\n")
    with pytest.raises(ValueError, match="no vectors"):
        parse_vector_file("# nothing\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_vector_file("1/0\n")


def test_root_set_from_text_domain_errors():
    with pytest.raises(ValueError, match="line 2.*squared norm 1"):
        root_set_from_text("1 -1 0\n1 0 0\n")
    with pytest.raises(ValueError, match="lines 1 and 2"):
        root_set_from_text("4/3 1/3 1/3\n1 1 0\n")


def test_parse_graph_file():
    g = parse_graph_file("# comment\n3 2\n0 1 +\n1 2 -\n")
    assert g.n == 3
    assert g.edges == ((0, 1, 1), (1, 2, -1))
    for bad, pat in [
        ("3\n", "header"),
        ("3 1\n0 1 *\n", "line 2"),
        ("3 2\n0 1 +\n", "edge lines"),
        ("3 1\n1 0 +\n", "violates"),
        ("3 2\n0 1 +\n0 1 -\n", "duplicate"),
        ("0 0\n", "positive"),
        ("", "no graph"),
    ]:
        with pytest.raises(ValueError, match=pat):
            parse_graph_file(bad)


# --- gen ----------------------------------------------------------------------


def test_cmd_gen_a1(capsys):
    code, out, err = run_cli(capsys, "gen", "A1")
    assert code == 0 and err == ""
    assert out.splitlines() == ["-1 1", "1 -1"]


def test_cmd_gen_e8_count(capsys, tmp_path):
    target = tmp_path / "e8.vec"
    code, out, _ = run_cli(capsys, "gen", "E8", "--output", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 240
    again = tmp_path / "e8b.vec"
    run_cli(capsys, "gen", "E8", "--output", str(again))
    assert target.read_bytes() == again.read_bytes()


def test_cmd_gen_bad_label(capsys):
    code, out, err = run_cli(capsys, "gen", "B2")
    assert code == 2
    assert out == ""
    assert "B2" in err


# --- close / base ----------------------------------------------------------------


def test_cmd_close_single(capsys, tmp_path):
    f = tmp_path / "v.vec"
    f.write_text("1 -1 0\n")
    code, out, _ = run_cli(capsys, "close", str(f))
    assert code == 0
    assert out.splitlines() == ["-1 1 0", "1 -1 0"]


def test_cmd_close_a2(capsys, tmp_path):
    f = tmp_path / "a2.vec"
    f.write_text("1 -1 0\n0 1 -1\n")
    code, out, _ = run_cli(capsys, "close", str(f))
    assert code == 0
    assert len(out.splitlines()) == 6


def test_cmd_close_norm_error_names_line(capsys, tmp_path):
    f = tmp_path / "bad.vec"
    f.write_text("1 -1 0\n# comment\n1 0 0\n")
    code, out, err = run_cli(capsys, "close", str(f))
    assert code == 1
    assert "line 3" in err


def test_cmd_base(capsys, tmp_path):
    f = tmp_path / "d4.vec"
    code, _, _ = run_cli(capsys, "gen", "D4", "--output", str(f))
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "base", str(f))
    assert code == 0
    assert len(out.splitlines()) == 4


# --- classify ----------------------------------------------------------------------


def test_cmd_classify_d4(capsys, tmp_path):
    f = tmp_path / "d4.vec"
    run_cli(capsys, "gen", "D4", "--output", str(f))
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "classify", str(f))
    assert code == 0
    assert "component 1: type D4, rank 4, roots 24" in out


def test_cmd_classify_e7_json(capsys, tmp_path):
    f = tmp_path / "e7.vec"
    run_cli(capsys, "gen", "E7", "--output", str(f))
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "classify", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["components"][0]["type"] == "E7"
    assert doc["components"][0]["root_count"] == 126
    assert doc["components"][0]["rank"] == 7
    assert len(doc["components"][0]["base"]) == 7


def test_cmd_classify_two_components(capsys, tmp_path):
    f = tmp_path / "two.vec"
    f.write_text("1 -1 0 0\n0 0 1 -1\n")
    code, out, _ = run_cli(capsys, "classify", str(f))
    assert code == 0
    assert "component 1: type A1, rank 1, roots 2" in out
    assert "component 2: type A1, rank 1, roots 2" in out


def test_cmd_classify_isometry_and_diagram(capsys, tmp_path):
    f = tmp_path / "a3.vec"
    run_cli(capsys, "gen", "A3", "--output", str(f))
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "classify", str(f), "--isometry", "--diagram")
    assert code == 0
    assert "isometry:" in out
    assert "graph base_1 {" in out
    assert "--" in out
    code, out, _ = run_cli(capsys, "classify", str(f), "--json", "--isometry", "--diagram")
    doc = json.loads(out)
    comp = doc["components"][0]
    assert len(comp["isometry"]) == 4  # ambient dimension of A3
    assert comp["diagram"].startswith("graph base_1")


# --- embed ----------------------------------------------------------------------


def test_cmd_embed_single_vertex(capsys, tmp_path):
    f = tmp_path / "one.sg"
    f.write_text("1 0\n")
    code, out, _ = run_cli(capsys, "embed", str(f))
    assert code == 0
    assert "intrinsic type: A1" in out
    assert "ambient type: D2" in out
    assert "gram check: pass" in out


def test_cmd_embed_triangle_json(capsys, tmp_path):
    f = tmp_path / "tri.sg"
    f.write_text(TRIANGLE_NEG)
    code, out, _ = run_cli(capsys, "embed", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["intrinsic_type"] == "A2"
    assert doc["ambient_type"] == "D3"
    assert doc["gram_check"] == "pass"
    assert len(doc["vectors"]) == 3
    assert all(len(v) == 3 for v in doc["vectors"])


def test_cmd_embed_k5_negative_rejected(capsys, tmp_path):
    f = tmp_path / "k5.sg"
    f.write_text(K5_NEG)
    code, out, err = run_cli(capsys, "embed", str(f))
    assert code == 1
    assert out == ""
    assert "least eigenvalue below -2" in err


def test_cmd_embed_disconnected(capsys, tmp_path):
    f = tmp_path / "disc.sg"
    f.write_text("3 1\n0 1 +\n")
    code, _, err = run_cli(capsys, "embed", str(f))
    assert code == 1
    assert "connected" in err


# --- smith ----------------------------------------------------------------------


def test_cmd_smith(capsys, tmp_path):
    f = tmp_path / "p5.sg"
    f.write_text("5 4\n0 1 +\n1 2 +\n2 3 +\n3 4 +\n")
    code, out, _ = run_cli(capsys, "smith", str(f))
    assert code == 0
    assert out == "finite A5\n"

    f.write_text("6 6\n0 1 +\n1 2 +\n2 3 +\n3 4 +\n4 5 +\n0 5 +\n")
    code, out, _ = run_cli(capsys, "smith", str(f))
    assert code == 0
    assert out == "affine Atilde5 marks: 1 1 1 1 1 1\n"

    f.write_text("4 6\n0 1 +\n0 2 +\n0 3 +\n1 2 +\n1 3 +\n2 3 +\n")
    code, out, _ = run_cli(capsys, "smith", str(f))
    assert code == 0
    assert out == "exceeds\n"


def test_cmd_smith_json(capsys, tmp_path):
    f = tmp_path / "c4.sg"
    f.write_text("4 4\n0 1 +\n1 2 +\n2 3 +\n0 3 +\n")
    code, out, _ = run_cli(capsys, "smith", str(f), "--json")
    doc = json.loads(out)
    assert doc == {"kind": "affine", "type": "Atilde3", "marks": [1, 1, 1, 1]}


def test_cmd_smith_rejects_signed_and_disconnected(capsys, tmp_path):
    f = tmp_path / "neg.sg"
    f.write_text("2 1\n0 1 -\n")
    code, _, err = run_cli(capsys, "smith", str(f))
    assert code == 1 and "unsigned" in err
    f.write_text("3 1\n0 1 +\n")
    code, _, err = run_cli(capsys, "smith", str(f))
    assert code == 1 and "connected" in err


# --- plumbing ----------------------------------------------------------------------


def test_missing_file_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "close", "/nonexistent/path.vec")
    assert code == 2
    assert "cannot read" in err


def test_usage_error_exits_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_parse_error_exits_2(capsys, tmp_path):
    f = tmp_path / "ragged.vec"
    f.write_text("1 -1\n1 -1 0\n")
    code, _, err = run_cli(capsys, "close", str(f))
    assert code == 2
    assert "line 2" in err


def test_gen_classify_round_trip_all_types(capsys, tmp_path):
    # D2 and D3 canonicalize to the A-side labels
    labels = [(f"A{n}", f"A{n}") for n in range(1, 9)]
    labels += [("D2", "A1+A1"), ("D3", "A3")]
    labels += [(f"D{n}", f"D{n}") for n in range(4, 9)]
    labels += [("E6", "E6"), ("E7", "E7"), ("E8", "E8")]
    for label, expected in labels:
        f = tmp_path / f"{label}.vec"
        assert main(["gen", label, "--output", str(f)]) == 0
        code, out, _ = run_cli(capsys, "classify", str(f), "--json")
        assert code == 0
        doc = json.loads(out)
        got = "+".join(c["type"] for c in doc["components"])
        assert got == expected, label


def test_deterministic_output(capsys, tmp_path):
    f = tmp_path / "e6.vec"
    run_cli(capsys, "gen", "E6", "--output", str(f))
    capsys.readouterr()
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "classify", str(f), "--json", "--isometry")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_module_invocation_smoke():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "laced.cli", "gen", "A1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        cwd=repo,
    )
    assert proc.returncode == 0
    assert proc.stdout == "-1 1\n1 -1\n"


# --- one analysis per component, one certificate check, internal errors -------

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_classify_extracts_one_base_per_component(capsys, monkeypatch):
    import laced.roots

    f = str(GOLDEN / "a2_d4_e6_roots.vec")  # three components
    assert main(["classify", f, "--isometry"]) == 0  # warms the canonical-base cache
    calls = []
    inner = laced.roots._component_base

    def counted(comp):
        calls.append(len(comp))
        return inner(comp)

    monkeypatch.setattr(laced.roots, "_component_base", counted)
    assert main(["classify", f, "--isometry"]) == 0
    capsys.readouterr()
    assert sorted(calls) == [6, 24, 72]


def test_embed_verifies_the_certificate_once(capsys, monkeypatch, tmp_path):
    import laced.cli

    embed_module = importlib.import_module("laced.embed")  # laced.embed is the function
    calls = []
    inner = embed_module.verify_certificate

    def counted(g, cert):
        calls.append(g.n)
        return inner(g, cert)

    monkeypatch.setattr(embed_module, "verify_certificate", counted)
    monkeypatch.setattr(laced.cli, "verify_certificate", counted, raising=False)
    f = tmp_path / "tri.sg"
    f.write_text(TRIANGLE_NEG)
    code, out, _ = run_cli(capsys, "embed", str(f))
    assert code == 0 and "gram check: pass" in out
    assert calls == [3]


def test_internal_error_exits_3(capsys, monkeypatch, tmp_path):
    import laced.cli
    from laced.errors import InvariantError

    def broken(g):
        raise InvariantError("certificate failed verification")

    monkeypatch.setattr(laced.cli, "embed_graph", broken)
    f = tmp_path / "tri.sg"
    f.write_text(TRIANGLE_NEG)
    code, out, err = run_cli(capsys, "embed", str(f))
    assert code == 3
    assert out == ""
    assert err == "error: internal error: certificate failed verification\n"


def _run_python(flags, argv, repo, cwd):
    return subprocess.run(
        [sys.executable, *flags, *argv],
        capture_output=True,
        cwd=cwd,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_huge_edge_free_header_fails_without_allocating(tmp_path):
    # the child may map at most 256 MiB, far less than one object per vertex
    repo = Path(__file__).resolve().parents[1]
    graph = tmp_path / "huge.sg"
    graph.write_text("1000000000000 0\n")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from laced.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    for cmd, line in [
        ("embed", "error: embedding requires a connected graph\n"),
        ("smith", "error: graph is not connected\n"),
    ]:
        proc = _run_python(["-c", script], [cmd, str(graph)], repo, tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == b""
        assert proc.stderr.decode() == line


def test_optimized_mode_gives_the_same_bytes(tmp_path):
    # the command list of acceptance criterion 8, with and without -O
    repo = Path(__file__).resolve().parents[1]
    vec = tmp_path / "d5.vec"
    assert main(["gen", "D5", "--output", str(vec)]) == 0
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
    for argv in commands:
        plain = _run_python([], ["-m", "laced.cli", *argv], repo, tmp_path)
        optimized = _run_python(["-O"], ["-m", "laced.cli", *argv], repo, tmp_path)
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == plain.stdout, argv


def test_certificate_check_runs_in_optimized_mode(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    script = (
        "import importlib, sys\n"
        "embed_module = importlib.import_module('laced.embed')\n"
        "from laced.errors import InvariantError\n"
        "from laced.spectra import SignedGraph\n"
        "assert False, 'asserts must be stripped here'\n"
    )
    probe = (
        "embed_module.verify_certificate = lambda g, cert: False\n"
        "try:\n"
        "    embed_module.embed(SignedGraph(2, [(0, 1, 1)]))\n"
        "except InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    proc = _run_python(["-O", "-c"], [script + probe], repo, tmp_path)
    assert proc.returncode == 0, proc.stderr
