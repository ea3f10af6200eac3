"""Exact-arithmetic toolkit for simply laced (ADE) root systems: canonical
generators, reflection closure, base extraction, classification with explicit
isometries, and embedding of signed graphs with least eigenvalue >= -2."""

from .embed import EmbeddingCertificate, check_least_eigenvalue, embed, verify_certificate
from .errors import InvariantError
from .exactlin import Definiteness, definiteness
from .roots import (
    AmbientSpace,
    DynkinType,
    FormSpace,
    Isometry,
    ReducibleType,
    Root,
    RootSet,
    ambient_root,
    classify,
    closure,
    components,
    find_base,
    gen,
    graph_of,
    is_root_system,
    isometry_to_canonical,
    lattice_root,
    parse_type,
    signed_permute,
)
from .spectra import SignedGraph, SmithType, affine_marks, smith_classify

__all__ = [
    "AmbientSpace",
    "Definiteness",
    "DynkinType",
    "EmbeddingCertificate",
    "FormSpace",
    "InvariantError",
    "Isometry",
    "ReducibleType",
    "Root",
    "RootSet",
    "SignedGraph",
    "SmithType",
    "affine_marks",
    "ambient_root",
    "check_least_eigenvalue",
    "classify",
    "closure",
    "components",
    "definiteness",
    "embed",
    "find_base",
    "gen",
    "graph_of",
    "is_root_system",
    "isometry_to_canonical",
    "lattice_root",
    "parse_type",
    "signed_permute",
    "smith_classify",
    "verify_certificate",
]
