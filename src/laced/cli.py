"""Command-line front end.

Commands: gen, close, base, classify, embed, smith.  Vector-set files hold
one whitespace-separated rational vector per line ('#' starts a comment);
signed-graph files start with a header line "n m" followed by m lines
"u v s" with 0-based vertex ids and s in {+,-}.  Each distinct token of a
vector file is read once by fractions.Fraction; from there a vector is
integer numerators over one denominator, so the norm and pairwise checks are
integer work.  All output is deterministic; rationals serialize as "p/q" (or
"p"), never as floating point.

Exit codes: 0 success, 1 domain error (e.g. least eigenvalue below -2,
vectors of the wrong norm), 2 parse or usage error (an unreadable or
non-UTF-8 input file among them), 3 internal error (a failed invariant
check, or any other unexpected exception, named by its type: a bug, not bad
input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .embed import embed as embed_graph
from .errors import InvariantError
from .roots import (
    AmbientSpace,
    Root,
    RootSet,
    _analyses,
    _first_nonintegral_pair,
    _make_ambient_normalized,
    _norm_is_2,
    _scaled,
    closure,
    find_base,
    gen,
    graph_of,
    parse_type,
)
from .spectra import SignedGraph, smith_classify


class ParseError(ValueError):
    """Malformed input text or bad usage; maps to exit code 2."""


def _fmt_vec(coords: Sequence[Fraction]) -> str:
    # str of a Fraction is already "p" or "p/q"
    return " ".join(map(str, coords))


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_vector_file(text: str) -> list[tuple[int, tuple[tuple[int, ...], int]]]:
    """Parse a vector-set file into (line number, (nums, den)) pairs: each
    vector as lowest-terms integer numerators over one positive denominator.

    Every token is read by fractions.Fraction, once per distinct token.
    """
    ratios: dict[str, tuple[int, int]] = {}
    rows: list[tuple[int, tuple[tuple[int, ...], int]]] = []
    for lineno, line in _meaningful_lines(text):
        row = []
        for tok in line.split():
            pq = ratios.get(tok)
            if pq is None:
                try:
                    x = Fraction(tok)
                except (ValueError, ZeroDivisionError):
                    raise ParseError(f"line {lineno}: cannot parse rational vector {line!r}")
                pq = ratios[tok] = (x.numerator, x.denominator)
            row.append(pq)
        rows.append((lineno, _scaled(row)))
    if not rows:
        raise ParseError("input contains no vectors")
    width = len(rows[0][1][0])
    for lineno, (nums, _) in rows:
        if len(nums) != width:
            raise ParseError(f"line {lineno}: expected {width} entries, got {len(nums)}")
    return rows


def root_set_from_text(text: str) -> RootSet:
    """Parse and validate a vector-set file, attributing errors to lines."""
    rows = parse_vector_file(text)
    space = AmbientSpace(len(rows[0][1][0]))
    roots: list[Root] = []
    for lineno, (nums, den) in rows:
        r = _make_ambient_normalized(space, nums, den)
        if not _norm_is_2(r):
            raise ValueError(f"line {lineno}: vector has squared norm {r.norm2()}, expected 2")
        roots.append(r)
    pair = _first_nonintegral_pair(roots)
    if pair is not None:
        i, j = pair
        raise ValueError(
            f"lines {rows[i][0]} and {rows[j][0]}: non-integer inner product {roots[i].dot(roots[j])}"
        )
    return RootSet.of(space, roots, validate=False)


def parse_graph_file(text: str) -> SignedGraph:
    """Parse a signed-graph file: header "n m", then m lines "u v s"."""
    lines = _meaningful_lines(text)
    if not lines:
        raise ParseError("input contains no graph")
    head_lineno, head = lines[0]
    toks = head.split()
    if len(toks) != 2 or not all(t.isdigit() for t in toks):
        raise ParseError(f'line {head_lineno}: expected header "n m"')
    n, m = int(toks[0]), int(toks[1])
    if n < 1:
        raise ParseError(f"line {head_lineno}: vertex count must be positive")
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, got {len(body)}")
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise ParseError(f'line {lineno}: expected "u v s" with s in {{+,-}}')
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids must be integers")
        if not (0 <= u < v < n):
            raise ParseError(f"line {lineno}: edge ({u}, {v}) violates 0 <= u < v < n")
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v, 1 if parts[2] == "+" else -1))
    return SignedGraph(n, edges)


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: {e}")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _vector_file_text(s: RootSet) -> str:
    return "".join(_fmt_vec(r.coords) + "\n" for r in s)


def _dot_diagram(base: Sequence[Root], name: str) -> str:
    lines = [f"graph {name} {{"]
    for i, r in enumerate(base):
        lines.append(f'  v{i} [label="{_fmt_vec(r.coords)}"];')
    for i, j, _ in graph_of(base).edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        t = parse_type(args.type)
    except ValueError as e:
        raise ParseError(str(e))
    _emit(_vector_file_text(gen(t)), args.output)
    return 0


def _cmd_close(args: argparse.Namespace) -> int:
    s = root_set_from_text(_read_input(args.input))
    _emit(_vector_file_text(closure(s)), args.output)
    return 0


def _cmd_base(args: argparse.Namespace) -> int:
    s = root_set_from_text(_read_input(args.input))
    _emit(_vector_file_text(find_base(closure(s))), args.output)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    s = root_set_from_text(_read_input(args.input))
    entries = []
    for a in _analyses(closure(s)):
        entry = {
            "type": a.type.label,
            "rank": len(a.base),
            "root_count": len(a.roots),
            "base": [[str(x) for x in r.coords] for r in a.base],
        }
        if args.isometry:
            entry["isometry"] = [[str(x) for x in row] for row in a.isometry().matrix]
        if args.diagram:
            entry["diagram"] = _dot_diagram(a.base, f"base_{len(entries) + 1}")
        entries.append(entry)
    doc = {"components": entries}
    if args.json:
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
        return 0
    out = []
    for i, entry in enumerate(entries, 1):
        out.append(
            f"component {i}: type {entry['type']}, rank {entry['rank']}, roots {entry['root_count']}"
        )
        for vec in entry["base"]:
            out.append(f"  base: {' '.join(vec)}")
        if args.isometry:
            for row in entry["isometry"]:
                out.append(f"  isometry: {' '.join(row)}")
        if args.diagram:
            out.append(entry["diagram"].rstrip("\n"))
    _emit("\n".join(out) + "\n", args.output)
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    g = parse_graph_file(_read_input(args.input))
    cert = embed_graph(g)  # verifies the certificate before returning it
    vectors = [[str(x) for x in v] for v in cert.vectors]
    doc = {
        "intrinsic_type": cert.intrinsic_type.label,
        "ambient_type": cert.ambient_type.label,
        "vectors": vectors,
        "gram_check": "pass",
    }
    if args.json:
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
        return 0
    out = [
        f"intrinsic type: {doc['intrinsic_type']}",
        f"ambient type: {doc['ambient_type']}",
    ]
    for vec in vectors:
        out.append(f"vector: {' '.join(vec)}")
    out.append("gram check: pass")
    _emit("\n".join(out) + "\n", args.output)
    return 0


def _cmd_smith(args: argparse.Namespace) -> int:
    g = parse_graph_file(_read_input(args.input))
    st = smith_classify(g)
    if args.json:
        doc = {
            "kind": st.kind,
            "type": None if st.kind == "exceeds" else st.label,
            "marks": list(st.marks) if st.marks else None,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
        return 0
    if st.kind == "exceeds":
        text = "exceeds"
    elif st.kind == "finite":
        text = f"finite {st.label}"
    else:
        text = f"affine {st.label} marks: {' '.join(map(str, st.marks))}"
    _emit(text + "\n", args.output)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing an argument
    list leaves it unchanged, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="laced",
        description="Exact classification of simply laced root systems and "
        "signed-graph embeddings with least eigenvalue >= -2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write the canonical root system of a type label")
    p.add_argument("type", help="type label such as A3, D4, E8")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("close", help="reflection closure of a vector-set file")
    p.add_argument("input", help="vector-set file")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_close)

    p = sub.add_parser("base", help="base of the root system generated by a vector-set file")
    p.add_argument("input", help="vector-set file")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_base)

    p = sub.add_parser("classify", help="classify the root system generated by a vector-set file")
    p.add_argument("input", help="vector-set file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--isometry", action="store_true", help="include the isometry matrix")
    p.add_argument("--diagram", action="store_true", help="include the base graph in DOT form")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("embed", help="embed a signed graph into D_n or E8")
    p.add_argument("input", help="signed-graph file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("smith", help="largest-eigenvalue shape class of an unsigned graph")
    p.add_argument("input", help="graph file (all edges '+')")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_smith)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except InvariantError as e:
        print(f"error: internal error: {e}", file=sys.stderr)
        return 3
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
