"""The public surface: what laced exports and what README.md documents."""

import importlib
import re
from pathlib import Path

import laced

README = Path(__file__).resolve().parents[1] / "README.md"

README_NAMES = [
    ("laced", "gen"),
    ("laced", "closure"),
    ("laced", "find_base"),
    ("laced", "classify"),
    ("laced", "embed"),
    ("laced", "FormSpace"),
    ("laced", "lattice_root"),
    ("laced.spectra", "SignedGraph"),
]


def test_every_exported_name_resolves():
    assert len(set(laced.__all__)) == len(laced.__all__)
    for name in laced.__all__:
        assert getattr(laced, name) is not None, name


def test_readme_library_names_import():
    text = README.read_text(encoding="utf-8")
    for module, name in README_NAMES:
        assert name in text, name
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_rational_matrix_toolkit_is_not_exported():
    for name in ("RatMatrix", "rank", "solve", "kernel_basis", "adjacency", "short_vectors"):
        assert name not in laced.__all__
        assert not hasattr(laced, name), name
    exactlin = importlib.import_module("laced.exactlin")
    gone = (
        "RatMatrix",
        "rank",
        "solve",
        "kernel_basis",
        "primitive_integer_vector",
        "short_vectors",
        "integer_determinant",
        "primitive_kernel_vector",
        "integer_inverse",
    )
    for name in gone:
        assert not hasattr(exactlin, name), name


def test_duplicate_and_test_only_helpers_are_gone():
    # symmetric_elimination returns the pivot frame itself; inner_product and
    # reflect duplicated Root.dot and the closure's reflection; the signed
    # graph and the obtuseness test of a root set live in tests/ratref.py
    exactlin = importlib.import_module("laced.exactlin")
    assert not hasattr(exactlin, "pivot_frame")
    roots = importlib.import_module("laced.roots")
    for name in ("inner_product", "reflect", "signed_graph_of", "is_obtuse"):
        assert name not in laced.__all__
        assert not hasattr(laced, name), name
        assert not hasattr(roots, name), name
