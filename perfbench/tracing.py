"""Spans around laced's public functions, recorded from outside the package.

Each function is wrapped where its caller looks it up (the module attribute
the calling module binds, or the class attribute for a method) and restored
afterwards, so nothing in laced changes.  A span is (name, start, end, parent
span index, op id); spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name).  One layer can be bound in several
# modules; every binding a workload goes through is wrapped under one name.
WRAPS = [
    ("laced.cli", "main", "cli.main"),
    ("laced.cli", "root_set_from_text", "cli.parse"),
    ("laced.cli", "parse_graph_file", "cli.parse"),
    ("laced.cli", "embed_graph", "embed.embed"),
    ("laced.cli", "verify_certificate", "embed.verify_certificate"),
    ("laced.cli", "closure", "roots.closure"),
    ("laced.cli", "components", "roots.components"),
    ("laced.cli", "find_base", "roots.find_base"),
    ("laced.cli", "classify", "roots.classify"),
    ("laced.cli", "isometry_to_canonical", "roots.isometry_to_canonical"),
    ("laced.cli", "gen", "roots.gen"),
    ("laced.embed", "embed", "embed.embed"),
    ("laced.embed", "verify_certificate", "embed.verify_certificate"),
    ("laced.embed", "definiteness", "exactlin.definiteness"),
    ("laced.embed", "closure", "roots.closure"),
    ("laced.embed", "isometry_to_canonical", "roots.isometry_to_canonical"),
    ("laced.embed", "gen", "roots.gen"),
    ("laced.roots", "definiteness", "exactlin.definiteness"),
    ("laced.roots", "components", "roots.components"),
    ("laced.roots", "gen", "roots.gen"),
    ("laced.roots", "smith_classify", "spectra.smith_classify"),
    ("laced.roots", "Isometry.apply", "roots.Isometry.apply"),
    ("laced.spectra", "definiteness", "exactlin.definiteness"),
]

LAYERS = list(dict.fromkeys(name for _, _, name in WRAPS))

OP = "harness.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.closure_roots_out = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counted = name == "roots.closure"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counted:
                self.closure_roots_out += len(out)
            return out

        return traced

    def install(self) -> None:
        for module, path, name in WRAPS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.add(f"{module}.{path}")
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def op(self, op_id: int, fn):
        """Run one op under a root span; returns its result."""
        self.op_id = op_id
        return self._wrap(OP, fn)()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls and self time per span name; self time is the span's
        duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name]["calls"] += 1
            out[name]["self_s"] += end - start - c
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
