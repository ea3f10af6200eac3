"""Simply laced root systems with exact arithmetic.

Roots live either in an ambient coordinate space (stored as integer
numerators over one positive denominator, so all the hot arithmetic is plain
integer work) or intrinsically over a shared positive semidefinite Gram form G
of n generators.  In the intrinsic picture two vectors are equal when their
difference lies in the radical of the form.  The form's pivot generators P,
the indices where the symmetric elimination of G meets a nonzero pivot, are
independent modulo the radical, and every generator is a rational combination
of the pivots before it; so an intrinsic root is its r = |P| coefficients over
the pivots, scaled to integers by the form's one denominator D, and its key
is the tuple of its inner products with the pivots, scaled by D.  Every
intrinsic operation costs O(r), however many generators the form has, and
that key orders roots as their inner products with all n generators would:
the first generator whose inner products with two roots differ is always a
pivot, since a non-pivot's inner products follow from those with the pivots
before it.

The reflection closure is the production algorithm for the set of norm-2
lattice vectors generated by a seed S.  It is the orbit W(S)·S of the seed
under its own reflections (s_{w(a)} = w s_a w^-1, so the reflections in the
roots found add nothing to those in S), grown with |Phi|·|S| sparse inner
products; a lattice short-vector enumeration in the test suite stays an
independent oracle for it.  It is the module's one lattice algorithm: base
growth reads lattice membership off one orbit that it extends by a root at
every step, and is_root_system compares a set with its closure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Callable, Collection, Container, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import InvariantError
from .exactlin import Definiteness, Frame, _eliminate, _integer_rows, lattice_gram_divisible, symmetric_elimination
from .spectra import SignedGraph, connected_without, unsigned_shape, walk_leg

Q = Fraction


class AmbientSpace:
    """Euclidean coordinate space of a fixed finite dimension."""

    __slots__ = ("dim",)

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        self.dim = dim

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AmbientSpace) and self.dim == other.dim

    def __hash__(self) -> int:
        return hash(("ambient", self.dim))

    def __repr__(self) -> str:
        return f"AmbientSpace({self.dim})"


class FormSpace:
    """Inner products prescribed by an integer Gram form of n generators.

    The form must be symmetric with diagonal 2 and positive semidefinite;
    semidefiniteness is what makes quotienting by the radical a valid notion
    of equality.  Equality and hashing read ``gram`` only.

    Roots over the form are stored over its pivot generators: ``pivots`` is
    P, the indices where the symmetric elimination of the form meets a
    nonzero pivot, ``pivot_gram`` the minor G_PP, and ``den`` the one
    denominator D of the space, the lcm of the denominators of the non-pivot
    generators' coefficients over P (1 when the form is nonsingular).
    ``_units`` holds each generator's coefficients over P, scaled by D.
    """

    __slots__ = ("gram", "_hash", "pivots", "pivot_gram", "den", "_units")

    def __init__(self, gram: Sequence[Sequence[int]]) -> None:
        grid = tuple(map(tuple, _integer_rows(gram, "FormSpace")))
        n = len(grid)
        if n == 0 or any(len(row) != n for row in grid):
            raise ValueError("Gram form must be square")
        if any(grid[i][j] != grid[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Gram form must be symmetric")
        if any(grid[i][i] != 2 for i in range(n)):
            raise ValueError("Gram form must have diagonal 2")
        kind, frame = _eliminate(grid)
        if kind is Definiteness.INDEFINITE:
            raise ValueError("Gram form must be positive semidefinite")
        self._fill(grid, frame)

    @classmethod
    def _trusted(cls, grid: tuple[tuple[int, ...], ...], frame: Frame) -> "FormSpace":
        # caller has already established symmetry, diagonal 2 and
        # semidefiniteness, and passes the pivot frame of that elimination
        obj = object.__new__(cls)
        obj._fill(grid, frame)
        return obj

    def _fill(self, grid: tuple[tuple[int, ...], ...], frame: Frame) -> None:
        self.gram = grid
        self._hash = hash(grid)
        self.pivots, self.den, self._units = frame
        self.pivot_gram = tuple(tuple(grid[p][q] for q in self.pivots) for p in self.pivots)

    @property
    def n(self) -> int:
        return len(self.gram)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormSpace) and self.gram == other.gram

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FormSpace(n={self.n})"


Space = Union[AmbientSpace, FormSpace]


class Root:
    """A vector handled exactly, in ambient coordinates or over a Gram form.

    ``nums``/``den`` hold the normalized scaled-integer representation.
    For an intrinsic root ``nums`` are its coefficients over the form's
    pivot generators P, scaled by the form's denominator D, and ``den`` is
    that D.  ``dvec`` is the companion vector used for inner products, so
    that <x, y> = sum(x.nums * y.dvec) / (x.den * y.den): the numerators
    themselves in the ambient case, G_PP @ nums in the intrinsic case.
    ``key`` is the canonical identity used for equality and ordering: for an
    intrinsic root it is ``dvec``, D times its inner products with the
    pivots, which orders roots as their inner products with all generators
    would.
    """

    __slots__ = ("space", "nums", "den", "dvec", "key", "_hash")

    def __init__(self) -> None:
        raise TypeError("use ambient_root or lattice_root")

    @property
    def is_ambient(self) -> bool:
        return type(self.space) is AmbientSpace

    @property
    def coords(self) -> tuple[Fraction, ...]:
        if not self.is_ambient:
            raise ValueError("intrinsic root has no ambient coordinates")
        d = self.den
        return tuple(Q(v, d) for v in self.nums)

    @property
    def coeffs(self) -> tuple:
        """Coefficients over the form's n generators: the stored ones, on
        the pivots, and 0 elsewhere.  On a nonsingular form every generator
        is a pivot and these are the integers the root was built from; over
        a form whose denominator D is not 1 they are Fractions."""
        if self.is_ambient:
            raise ValueError("ambient root has no generator coefficients")
        sp = self.space
        out = [0 if sp.den == 1 else Q(0)] * sp.n
        for p, v in zip(sp.pivots, self.nums):
            out[p] = v if sp.den == 1 else Q(v, sp.den)
        return tuple(out)

    def norm2(self) -> Fraction:
        return Q(sum(map(mul, self.nums, self.dvec)), self.den * self.den)

    def dot(self, other: "Root") -> Fraction:
        sp = self.space
        if sp is not other.space and sp != other.space:
            raise ValueError("roots live in different spaces")
        return Q(sum(map(mul, self.nums, other.dvec)), self.den * other.den)

    def sort_key(self):
        """The order of roots in every sorted output: ambient roots by their
        rational coordinates, intrinsic roots by key.  The package sorts with
        _order_key, which gives the same order in integers."""
        if type(self.space) is FormSpace:
            return self.key
        if self.den == 1:
            return self.nums
        d = self.den
        return tuple(Q(v, d) for v in self.nums)

    def __neg__(self) -> "Root":
        nums = tuple(map(neg, self.nums))
        if type(self.space) is AmbientSpace:
            return _make_ambient_normalized(self.space, nums, self.den)
        return _make_lattice_raw(self.space, nums, tuple(map(neg, self.dvec)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Root):
            return NotImplemented
        return self.key == other.key and (self.space is other.space or self.space == other.space)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_ambient:
            return f"Root({' '.join(str(Q(v, self.den)) for v in self.nums)})"
        return f"Root(coeffs={list(self.coeffs)})"


def _order_key(roots: Collection[Root]) -> Callable[[Root], tuple]:
    """A key that orders these roots exactly as Root.sort_key does, in integers.

    Ambient coordinates are compared scaled to the lcm L of the roots'
    denominators, nums * (L // den), which orders them as the rationals
    nums / den do.  For intrinsic roots, and ambient roots with integer
    coordinates, Root.sort_key is already an integer key.
    """
    lcm = math.lcm(*{r.den for r in roots})
    if lcm == 1 or type(next(iter(roots)).space) is FormSpace:
        return Root.sort_key
    return lambda r: r.nums if r.den == lcm else tuple(v * (lcm // r.den) for v in r.nums)


def _make_ambient_normalized(space: AmbientSpace, nums: tuple[int, ...], den: int) -> Root:
    # assumes gcd(content(nums), den) == 1 and den >= 1 already
    r = object.__new__(Root)
    r.space = space
    r.nums = nums
    r.den = den
    r.dvec = nums
    r.key = (nums, den)
    r._hash = hash((space.dim, r.key))
    return r


def _lowest_terms(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """The key (nums, den) of the vector nums / den, den >= 1: the same
    vector with no factor common to den and every numerator."""
    if den == 1:
        return nums, 1
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple(v // g for v in nums), den // g


def _make_lattice_raw(space: FormSpace, nums: tuple[int, ...], dvec: tuple[int, ...]) -> Root:
    r = object.__new__(Root)
    r.space = space
    r.nums = nums
    r.den = space.den
    r.dvec = dvec
    r.key = dvec
    r._hash = hash((space._hash, dvec))
    return r


def _scaled(ratios: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """Coordinates given as lowest-terms ratios (p, q), q >= 1, as scaled
    integers (nums, den) over den = lcm of the q.

    The result is in lowest terms: a prime dividing den divides some q to
    the full power it has in den, and that coordinate's p is prime to it.
    """
    den = 1
    for _, q in ratios:
        if q != 1:
            den = den * q // math.gcd(den, q)
    if den == 1:
        return tuple(p for p, _ in ratios), 1
    return tuple(p * (den // q) for p, q in ratios), den


def ambient_root(space: AmbientSpace, coords: Sequence) -> Root:
    """Build an ambient root from exact rational coordinates."""
    fracs = [Q(x) for x in coords]
    if len(fracs) != space.dim:
        raise ValueError(f"expected {space.dim} coordinates, got {len(fracs)}")
    nums, den = _scaled([(x.numerator, x.denominator) for x in fracs])
    return _make_ambient_normalized(space, nums, den)


def lattice_root(space: FormSpace, coeffs: Sequence[int]) -> Root:
    """Build an intrinsic root from integer coefficients over the form's generators."""
    given = tuple(_integer_rows([coeffs], "lattice_root", "coefficient vector")[0])
    if len(given) != space.n:
        raise ValueError(f"expected {space.n} coefficients, got {len(given)}")
    nums = [0] * len(space.pivots)
    for c, unit in zip(given, space._units):
        if c:
            nums = [a + c * u for a, u in zip(nums, unit)]
    nums = tuple(nums)
    dvec = tuple(sum(map(mul, row, nums)) for row in space.pivot_gram)
    return _make_lattice_raw(space, nums, dvec)


def _unit_roots(space: FormSpace) -> list[Root]:
    """The generators e_1..e_n of the form as roots.  The dvec of e_i is D
    times its inner products with the pivots, read off the i-th Gram row."""
    pivots, d = space.pivots, space.den
    return [
        _make_lattice_raw(space, u, tuple(d * row[p] for p in pivots)) for u, row in zip(space._units, space.gram)
    ]


def _idot(x: Root, y: Root) -> int:
    # trusted-path inner product; integrality is an invariant of admitted sets
    s = sum(map(mul, x.nums, y.dvec))
    dd = x.den * y.den
    if dd == 1:
        return s
    q, r = divmod(s, dd)
    if r:
        raise InvariantError("non-integer inner product on the trusted path")
    return q


def _integral_dot(x: Root, y: Root) -> bool:
    """Whether <x, y> is an integer, decided without building it: the
    numerator sum must be divisible by x.den * y.den, which always holds when
    both are 1."""
    dd = x.den * y.den
    return dd == 1 or sum(map(mul, x.nums, y.dvec)) % dd == 0


def _first_nonintegral_pair(roots: Sequence[Root]) -> Optional[tuple[int, int]]:
    """The first (i, j), i < j, in row order whose inner product is not an
    integer, or None.  Whether there is one is decided on a lattice basis:
    scaled by the lcm L of the denominators the roots are integer vectors,
    and <x, y> is an integer iff L^2 divides <L x, L y>.  Only when there is
    one are the pairs scanned in order."""
    lcm = math.lcm(*{r.den for r in roots})
    if lcm == 1 or lattice_gram_divisible(([a * (lcm // r.den) for a in r.nums] for r in roots), lcm * lcm):
        return None
    for i, x in enumerate(roots):
        for j in range(i + 1, len(roots)):
            if not _integral_dot(x, roots[j]):
                return i, j
    return None


def _norm_is_2(r: Root) -> bool:
    """Whether <r, r> == 2, decided in integers: the numerator sum must be
    2 * den * den."""
    return sum(map(mul, r.nums, r.dvec)) == 2 * r.den * r.den


def _ambient_difference(x: Root, y: Root, t: int) -> tuple[tuple[int, ...], int]:
    """The key (nums, den) of x - t*y, for ambient roots and an integer t."""
    dx, dy = x.den, y.den
    if dx == dy and (t == 1 or t == -1):
        return _lowest_terms(tuple(map(sub if t == 1 else add, x.nums, y.nums)), dx)
    lcm = dx * dy // math.gcd(dx, dy)
    fx = lcm // dx
    fy = t * (lcm // dy)
    return _lowest_terms(tuple(a * fx - b * fy for a, b in zip(x.nums, y.nums)), lcm)


def _reflect(x: Root, y: Root, t: int) -> Root:
    # x - t*y for integer t
    if type(x.space) is FormSpace:
        nums = tuple(a - t * b for a, b in zip(x.nums, y.nums))
        dvec = tuple(a - t * b for a, b in zip(x.dvec, y.dvec))
        return _make_lattice_raw(x.space, nums, dvec)
    return _make_ambient_normalized(x.space, *_ambient_difference(x, y, t))


class RootSet:
    """Deduplicated finite set of roots sharing one space.

    Elements are kept sorted by a deterministic key so downstream output is
    byte-for-byte reproducible.  Validation checks squared norm 2 for every
    element and integrality of all pairwise inner products.
    """

    __slots__ = ("space", "roots", "_keys", "_flag")

    def __init__(self) -> None:
        raise TypeError("use RootSet.of")

    @classmethod
    def of(cls, space: Space, roots: Iterable[Root], validate: bool = True) -> "RootSet":
        unique: dict = {}
        first: list[int] = []  # the input position of each distinct root
        for i, r in enumerate(roots):
            if r.space is not space and r.space != space:
                raise ValueError(f"vector {i} belongs to a different space")
            if validate and not _norm_is_2(r):
                raise ValueError(f"vector {i} has squared norm {r.norm2()}, expected 2")
            if r.key not in unique:
                unique[r.key] = r
                first.append(i)
        distinct = list(unique.values())
        # intrinsic inner products are integers, since the form is integral
        if validate and type(space) is AmbientSpace:
            pair = _first_nonintegral_pair(distinct)
            if pair is not None:
                i, j = pair
                raise ValueError(
                    f"vectors {first[i]} and {first[j]} have non-integer inner product {distinct[i].dot(distinct[j])}"
                )
        return cls._assembled(space, sorted(distinct, key=_order_key(distinct)))

    @classmethod
    def _assembled(cls, space: Space, ordered: Sequence[Root], flag: Optional[bool] = None) -> "RootSet":
        obj = object.__new__(cls)
        obj.space = space
        obj.roots = tuple(ordered)
        obj._keys = frozenset(r.key for r in obj.roots)
        obj._flag = flag
        return obj

    def keys(self) -> frozenset:
        return self._keys

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self) -> Iterator[Root]:
        return iter(self.roots)

    def __contains__(self, r: Root) -> bool:
        return r.key in self._keys and (r.space is self.space or r.space == self.space)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RootSet)
            and self.space == other.space
            and self._keys == other._keys
        )

    def __hash__(self) -> int:
        return hash((self.space, self._keys))

    def __repr__(self) -> str:
        return f"RootSet({len(self.roots)} roots, {self.space!r})"


@dataclass(frozen=True, order=True)
class DynkinType:
    """Irreducible type label A(n>=1), D(n>=2) or E(6..8).

    D2 and D3 are accepted as construction labels; classification only ever
    reports D for rank >= 4, preferring the A-side of the overlaps.
    """

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family == "A":
            ok = self.rank >= 1
        elif self.family == "D":
            ok = self.rank >= 2
        elif self.family == "E":
            ok = self.rank in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise ValueError(f"unsupported type label {self.family}{self.rank}")

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def ambient_dim(self) -> int:
        if self.family == "A":
            return self.rank + 1
        if self.family == "D":
            return self.rank
        return 8


@dataclass(frozen=True)
class ReducibleType:
    """Multiset of irreducible types, one per component."""

    parts: tuple[DynkinType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))

    @property
    def label(self) -> str:
        return "+".join(t.label for t in self.parts)


_TYPE_RE = re.compile(r"^([ADE])([0-9]+)$")


def parse_type(text: str) -> DynkinType:
    """Parse a label like "A5", "D4" or "E8"."""
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise ValueError(f"unsupported type label {text!r}")
    return DynkinType(m.group(1), int(m.group(2)))


_GEN_CACHE: dict[DynkinType, RootSet] = {}


def gen(t: Union[str, DynkinType]) -> RootSet:
    """Canonical root system of an irreducible type, in ambient coordinates.

    A_n lives on the e_i - e_j hyperplane arrangement in dimension n+1, D_n
    on +-e_i +- e_j in dimension n, and E8 adds the half-integer vectors with
    an even number of minus signs to D8.  E7 and E6 are cut out of E8 by the
    fixed witnesses a = e7 + e8 and b = (-e1-..-e6+e7+e8)/2, which satisfy
    <a, b> = 1; the 126 and 72 count oracles pin the choice down.  The
    models are built as trusted sets, flagged as root systems; a test checks
    each against the validated build and the all-pairs closure.
    """
    if isinstance(t, str):
        t = parse_type(t)
    cached = _GEN_CACHE.get(t)
    if cached is not None:
        return cached
    if t.family == "A":
        n = t.rank
        space = AmbientSpace(n + 1)
        out = []
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                nums = [0] * (n + 1)
                nums[i], nums[j] = 1, -1
                out.append(_make_ambient_normalized(space, tuple(nums), 1))
                out.append(_make_ambient_normalized(space, tuple(-v for v in nums), 1))
    elif t.family == "D":
        out = _d_roots(t.rank)
    else:
        e8 = _e8_roots()
        if t.rank == 8:
            out = e8
        else:
            space = AmbientSpace(8)
            a = _make_ambient_normalized(space, (0, 0, 0, 0, 0, 0, 1, 1), 1)
            out = [v for v in e8 if _idot(v, a) == 0]
            if t.rank == 6:
                b = _make_ambient_normalized(space, (-1, -1, -1, -1, -1, -1, 1, 1), 2)
                out = [v for v in out if _idot(v, b) == 0]
    # integral norm-2 vectors by construction, and closed under reflection
    result = RootSet._assembled(out[0].space, sorted(out, key=_order_key(out)), flag=True)
    _GEN_CACHE[t] = result
    return result


def _d_roots(n: int) -> list[Root]:
    space = AmbientSpace(n)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    nums = [0] * n
                    nums[i], nums[j] = si, sj
                    out.append(_make_ambient_normalized(space, tuple(nums), 1))
    return out


def _e8_roots() -> list[Root]:
    out = _d_roots(8)
    space = out[0].space
    for mask in range(256):
        nums = tuple(1 if mask & (1 << k) == 0 else -1 for k in range(8))
        if bin(mask).count("1") % 2 == 0:
            out.append(_make_ambient_normalized(space, nums, 2))
    return out


def graph_of(s: Union[RootSet, Sequence[Root]]) -> SignedGraph:
    """Simple graph on the roots (a root set, or any sequence of roots in
    that order): edge iff the inner product is nonzero."""
    roots = tuple(s)
    if not roots:
        raise ValueError("graph of an empty root set")
    return SignedGraph.unsigned(len(roots), _edge_pairs(roots))


def _edge_pairs(roots: Sequence[Root]) -> tuple[tuple[int, int], ...]:
    """The pairs i < j, in sorted order, of roots with a nonzero inner
    product."""
    n = len(roots)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if _idot(roots[i], roots[j]))


def components(s: RootSet) -> list[RootSet]:
    """Connected components of graph_of(s), as sub-root-sets, in the order
    of their first roots: the parts that base growth captures (see _bases).
    s must be validated: a validate=False set that holds a vector of squared
    norm >= 3 meets the orbit's range check and raises InvariantError.  Cost
    grows with the roots of each part's lattice, all built even for a base."""
    return [part for part, _ in _bases(s)]


def is_root_system(s: RootSet) -> bool:
    """Nonempty, closed under negation and under x -> x - <x,y> y.

    closure(s) is the smallest superset of S u (-S) closed under those
    reflections, so s is a root system exactly when it is nonempty and equals
    its closure.  The result is cached on the (immutable) set; closure()
    marks its output as a root system since reflection-closedness is its
    loop postcondition.  A set built with validate=False that holds a
    vector of squared norm >= 3 gets no answer: closure's range check raises
    InvariantError, also when that vector's negation is missing.
    """
    if s._flag is not None:
        return s._flag
    result = bool(s.roots) and closure(s).keys() == s.keys()
    s._flag = result
    return result


class _Orbit:
    """The orbit W(S)·S of a growing seed S under its own reflections.

    s_{w(a)} = w s_a w^-1, so reflecting in a root already found adds
    nothing that the seed's reflections do not give.  The orbit is grown
    breadth first, each root reflected only in the seed roots.  The roots
    found before a seed root is added are closed under the earlier seed
    roots, so they are reflected in the new one only; a seed root already in
    the orbit is skipped, since its reflection lies in the group of the
    others.  That costs at most |Phi|·|S| inner products, each a sum over the
    seed root's nonzero coefficients.  ``known`` maps the key of every root
    found to the root.  A reflection is looked up by its key first, so that
    only a new root, and its negation, is ever built.
    """

    __slots__ = ("known", "queue", "gens", "intrinsic")

    def __init__(self, space: Space) -> None:
        self.known: dict = {}
        self.queue: list[Root] = []  # one root of each +- pair; its negation is in known
        self.gens: list[tuple[Root, tuple]] = []  # (seed root, its nonzero (index, coefficient) pairs)
        self.intrinsic = type(space) is FormSpace

    def _add2(self, r: Root) -> None:
        # r is new, and so is -r: known is closed under negation
        self.known[r.key] = r
        self.queue.append(r)
        m = -r
        self.known[m.key] = m

    def add(self, g: Root) -> None:
        """Extend the seed by g and grow the orbit until it is closed again."""
        known, queue, gens = self.known, self.queue, self.gens
        if g.key in known:
            return
        add2, intrinsic = self._add2, self.intrinsic
        closed = len(queue)  # these are closed under the earlier seed roots
        add2(g)
        gens.append((g, tuple((k, c) for k, c in enumerate(g.nums) if c)))
        i = 0
        while i < len(queue):
            x = queue[i]
            xd = x.dvec
            for a, support in gens[-1:] if i < closed else gens:
                # <x, a> = sum over a's support of a.nums[k] * x.dvec[k]
                t = 0
                for k, c in support:
                    t += c * xd[k]
                dd = x.den * a.den
                if dd != 1:
                    t, rem = divmod(t, dd)
                    if rem:
                        raise InvariantError("non-integer inner product on the trusted path")
                if t == 1 or t == -1:
                    if not intrinsic:
                        key = _ambient_difference(x, a, t)
                        if key not in known:
                            add2(_make_ambient_normalized(x.space, *key))
                        continue
                    # the key of x - t*a is its dvec
                    op = sub if t == 1 else add
                    dvec = tuple(map(op, xd, a.dvec))
                    if dvec not in known:
                        add2(_make_lattice_raw(x.space, tuple(map(op, x.nums, a.nums)), dvec))
                elif t > 2 or t < -2:
                    raise InvariantError(f"inner product {t} out of range")
            i += 1


def closure(s: RootSet) -> RootSet:
    """Reflection closure: the smallest superset of S u (-S) closed under
    x -> x - <x,y> y.

    It is the orbit W(S)·S of the seed under the group generated by the
    seed's own reflections, grown one seed root at a time (see _Orbit) and
    then sorted.  The result equals the set of norm-2 vectors of the lattice
    generated by S, which a short-vector enumeration in the test suite
    cross-checks.
    """
    if len(s) == 0:
        raise ValueError("closure requires a nonempty set")
    orbit = _Orbit(s.space)
    for g in s.roots:
        orbit.add(g)
    found = orbit.known.values()
    return RootSet._assembled(s.space, sorted(found, key=_order_key(found)), flag=True)


def _require_root_system(s: RootSet) -> None:
    if not is_root_system(s):
        raise ValueError("input is not a simply laced root system")


class _Analysis(NamedTuple):
    """One component of a checked root system, as the one walk finds it."""

    roots: RootSet
    base: tuple[Root, ...]  # sorted by Root.sort_key
    type: DynkinType

    def isometry(self) -> Isometry:
        """The map onto gen(type) built from this base."""
        return _isometry(self.roots, self.base, self.type)


def _analyses(phi: RootSet) -> list[_Analysis]:
    """The one pass over a checked root system: each component with its
    base and the type read off that base's Dynkin graph.  find_base,
    classify, isometry_to_canonical, embed and the CLI's classify are views
    of it."""
    return [_Analysis(part, tuple(sorted(base, key=_order_key(base))), _base_type(base)) for part, base in _bases(phi)]


def _irreducible(phi: RootSet) -> _Analysis:
    """The analysis of a root system that is irreducible by construction;
    base growth finding any other number of components is a bug."""
    analyses = _analyses(phi)
    if len(analyses) != 1:
        raise InvariantError(f"expected one component, base growth found {len(analyses)}")
    return analyses[0]


def find_base(phi: RootSet) -> RootSet:
    """A base of the root system: obtuse, one indecomposable piece per
    component, generating phi over the integers (so closure(base) == phi)."""
    _require_root_system(phi)
    out = [r for a in _analyses(phi) for r in a.base]
    return RootSet._assembled(phi.space, sorted(out, key=_order_key(out)))


def _bases(s: RootSet) -> Iterator[tuple[RootSet, list[Root]]]:
    """Each component of graph_of(s) with a base of the lattice its roots
    generate, by lattice growth in one walk over the sorted roots.

    Start an indecomposable obtuse set S at the first root not yet in a
    component.  While some root of s outside the lattice of S meets S,
    descend from it to the deepest root q still meeting S negatively, and
    read the step off the Dynkin shape of U = S + [q] (see _grown): a
    finite shape is kept whole, an affine one drops a marks-1 vertex.  Every
    step captures the root it descended from.

    The roots in the lattice Z·S are the orbit W(S)·S.  Z·S is an even
    lattice generated by norm-2 vectors, hence a sum of ADE root lattices,
    and W(S)·S is all of its norm-2 vectors.  In the intrinsic case this
    holds modulo the radical, where S stays independent because every step
    keeps Gram(S) nonsingular.  One orbit serves the whole search: each step
    adds the new root q to it, since Z·(S + q) is the next lattice, and an
    affine exchange of v leaves the lattice as it is, Z·(U - v) = Z·U.

    Once every root of s outside Z·S is orthogonal to S, the roots of s in
    Z·S are one component: Z·S is generated by roots of s joined to the
    first one, and a root in Z·S orthogonal to S would have norm 0.
    """
    flag = True if s._flag is True else None
    rest = s.roots
    while rest:
        base = [rest[0]]
        lattice = _Orbit(s.space)
        lattice.add(rest[0])
        known = lattice.known
        while (p := _attachable_outside(base, rest, known)) is not None:
            q = _deepest_descent(base, p)
            lattice.add(q)
            if p.key not in known:
                raise InvariantError("base search stopped making progress")
            base = _grown(base + [q])
        part = [r for r in rest if r.key in known]
        if flag and len(part) != len(known):
            raise InvariantError("base growth left the root system")
        rest = [r for r in rest if r.key not in known]
        yield RootSet._assembled(s.space, part, flag=flag), base


def _grown(u: list[Root]) -> list[Root]:
    """The obtuse set that replaces S once q is attached, U = S + [q].

    U must be obtuse, so that Gram(U) is 2I - A for the unsigned graph of U.
    U is connected and its Gram matrix is positive semidefinite, so that
    graph is a finite Dynkin shape exactly when U is independent, and an
    affine one otherwise; smith_classify, read through the shape memo
    unsigned_shape, decides which, and gives the marks.  Any other outcome
    is a bug, not bad input.
    """
    n = len(u)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            t = _idot(u[i], u[j])
            if t == -1:
                pairs.append((i, j))
            elif t:
                raise InvariantError(f"extended set is not obtuse: <u{i}, u{j}> = {t}")
    try:
        g, st = unsigned_shape(n, tuple(pairs))
    except ValueError as e:
        raise InvariantError(f"extended set has no Dynkin shape: {e}")
    if st.kind == "finite":
        return u
    if st.kind == "affine":
        return _affine_exchange(u, g, st.marks)
    raise InvariantError(f"extended set classified as {st.label}")


def _attachable_outside(s: list[Root], roots: Sequence[Root], member_keys: Container) -> Optional[Root]:
    """A root outside Z(S) meeting some element of S negatively (negating if
    needed), or None when every one is orthogonal to S.  member_keys holds
    the keys of the roots in Z(S)."""
    for r in roots:
        if r.key in member_keys:
            continue
        for a in s:
            t = _idot(r, a)
            if t < 0:
                return r
            if t > 0:
                return -r
    return None


def _deepest_descent(s: list[Root], p: Root) -> Root:
    """Breadth-first descent r -> r - x over x in S with <r,x> = 1, keeping
    the deepest root that still meets S negatively (ties by sort key)."""
    seen = {p.key}
    frontier = [p]
    best = p
    while frontier:
        nxt = []
        for r in frontier:
            for x in s:
                if _idot(r, x) == 1:
                    z = _reflect(r, x, 1)
                    if z.key not in seen:
                        seen.add(z.key)
                        nxt.append(z)
        qualified = [z for z in nxt if any(_idot(z, x) < 0 for x in s)]
        if qualified:
            best = min(qualified, key=_order_key(qualified))
        frontier = nxt
    if any(_idot(best, x) not in (-1, 0) for x in s):
        raise InvariantError("descent left a positive inner product")
    return best


def _affine_exchange(u: list[Root], g: SignedGraph, alpha: tuple[int, ...]) -> list[Root]:
    """Replace the dependent obtuse set U = S + [q] by an independent one.

    g is the affine graph of U and alpha its marks vector, which spans the
    kernel of Gram(U) = 2I - A; the vertex with alpha = 1 whose removal
    keeps g connected (lowest index first) is generated by the rest and can
    be dropped.
    """
    if alpha[-1] == 1:
        raise InvariantError("the freshly attached root cannot carry mark 1")
    adj = g.neighbor_sets()
    for idx in range(len(u) - 1):
        if alpha[idx] == 1 and connected_without(adj, idx):
            return u[:idx] + u[idx + 1 :]
    raise InvariantError("no marks-1 vertex keeps the graph connected")


def _base_type(base: Sequence[Root]) -> DynkinType:
    _, st = unsigned_shape(len(base), _edge_pairs(base))
    if st.kind != "finite":
        raise InvariantError(f"base graph classified as {st.label}")
    return DynkinType(st.family, st.rank)


def classify(phi: RootSet) -> Union[DynkinType, ReducibleType]:
    """Type of a root system: a DynkinType when irreducible, otherwise the
    multiset of component types."""
    _require_root_system(phi)
    types = sorted(a.type for a in _analyses(phi))
    if len(types) == 1:
        return types[0]
    return ReducibleType(tuple(types))


@dataclass(frozen=True)
class Isometry:
    """Exact linear map from a root set's span into a canonical ambient space.

    The map is the integer matrix ``rows`` over the positive denominator
    ``den``, with no factor common to both, applied to a root's ``nums`` and
    divided by its ``den``.  It has one column per stored coordinate: an
    ambient coordinate, or a pivot generator of the form.  It preserves
    inner products on the span and annihilates its orthogonal complement.
    ``_columns`` holds the same matrix by columns, so that apply sums only
    the columns of a root's nonzero coordinates.
    """

    rows: tuple[tuple[int, ...], ...]
    den: int
    domain: Space
    codomain: AmbientSpace
    _columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_columns", tuple(zip(*self.rows)))

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The map as rows of Fractions, for output, with one column per
        input coordinate: ambient coordinate, or generator of the form.
        Column j of an intrinsic map is the image of generator j, the map
        applied to its coefficients over the pivots."""
        d, rows = self.den, self.rows
        sp = self.domain
        if type(sp) is FormSpace:
            d *= sp.den
            rows = [[sum(map(mul, row, unit)) for unit in sp._units] for row in rows]
        return tuple(tuple(Q(v, d) for v in row) for row in rows)

    def apply(self, r: Root) -> Root:
        if r.space is not self.domain and r.space != self.domain:
            raise ValueError("root does not belong to the isometry's domain")
        return _make_ambient_normalized(self.codomain, *self._image_key(r))

    def _image_key(self, r: Root) -> tuple[tuple[int, ...], int]:
        # the key of the image of r, a root of the domain
        acc = [0] * len(self.rows)
        for c, col in zip(r.nums, self._columns):
            if c == 1:
                acc = list(map(add, acc, col))
            elif c == -1:
                acc = list(map(sub, acc, col))
            elif c:
                acc = [a + c * v for a, v in zip(acc, col)]
        return _lowest_terms(tuple(acc), self.den * r.den)


def _canonical_base_order(base: Sequence[Root]) -> list[Root]:
    """Vertices of a base's Dynkin graph in canonical order.

    Paths run endpoint to endpoint starting from the smaller sort key; forks
    list the branch vertex first, then the legs sorted by length (ties by the
    legs' sort keys), each from the branch outward.  Two bases of the same
    type therefore list Gram-identical sequences.
    """
    n = len(base)
    if n == 1:
        return list(base)
    adj = graph_of(base).neighbor_sets()
    degs = [len(a) for a in adj]
    key = _order_key(base)
    if max(degs) <= 2:
        ends = [i for i in range(n) if degs[i] <= 1]
        start = min(ends, key=lambda i: key(base[i]))
        (first,) = adj[start]
        return [base[i] for i in [start] + walk_leg(adj, degs, start, first)]
    center = next(i for i in range(n) if degs[i] == 3)
    legs = [walk_leg(adj, degs, center, first) for first in adj[center]]
    legs.sort(key=lambda leg: (len(leg), [key(base[i]) for i in leg]))
    order = [center]
    for leg in legs:
        order.extend(leg)
    return [base[i] for i in order]


class _Target(NamedTuple):
    """What an isometry onto gen(t) needs of the model, built once per type:
    its base Y in canonical order, the Gram matrix G of Y, and Y G^-1 as the
    integer rows ``dual`` over the positive denominator ``den``, one row per
    ambient coordinate and one column per base root."""

    base: list[Root]
    gram: list[list[int]]
    dual: tuple[tuple[int, ...], ...]
    den: int


_TARGETS: dict[DynkinType, _Target] = {}


def _target(t: DynkinType) -> _Target:
    cached = _TARGETS.get(t)
    if cached is None:
        y = _canonical_base_order(_irreducible(gen(t)).base)
        gram = [[_idot(a, b) for b in y] for a in y]
        cached = _TARGETS[t] = _Target(y, gram, *_dual_rows(y))
    return cached


def _dual_rows(y: Sequence[Root]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Y G^-1 for independent ambient roots Y, as integer rows over one
    positive denominator, read off two pivot frames.

    Row k of Y G^-1 holds the coefficients over Y of the projection of the
    unit vector e_k onto span(Y), since they solve G c = Y^T e_k.  The frame
    of Y Y^T gives, for each dependent coordinate j, the kernel vector
    x_j = D e_j - sum_p c_jp e_p, and the x_j span the orthogonal complement
    of span(Y), which is empty for D_n and E8.  So in the frame of the Gram
    matrix of (Y, the x_j, e_1..e_m) the first m indices are the pivots, and
    each e_k is dependent, with coefficients over the x_j that are
    orthogonal to Y and over Y that are row k of Y G^-1.
    """
    d = math.lcm(*(r.den for r in y))
    cols = [[v * (d // r.den) for v in r.nums] for r in y]  # d * Y, by columns
    rows = list(zip(*cols))
    m = len(rows)
    _, (pivots, den, coeffs) = symmetric_elimination([[sum(map(mul, a, b)) for b in rows] for a in rows])
    kernel = []
    for j in range(m):
        if j not in pivots:
            x = [0] * m
            for p, v in zip(pivots, coeffs[j]):
                x[p] = -v
            x[j] = den
            kernel.append(x)
    vectors = cols + kernel + [[int(i == k) for i in range(m)] for k in range(m)]
    _, (pivots, den, coeffs) = symmetric_elimination([[sum(map(mul, a, b)) for b in vectors] for a in vectors])
    if pivots != tuple(range(m)):
        raise InvariantError("canonical base and its orthogonal complement do not span the ambient space")
    # e_k's coefficient over d * y_a is coeffs[m + k][a] / den
    dual = [[d * v for v in coeffs[m + k][: len(y)]] for k in range(m)]
    g = math.gcd(den, *(v for row in dual for v in row))
    return tuple(tuple(v // g for v in row) for row in dual), den // g


def isometry_to_canonical(omega: RootSet) -> tuple[DynkinType, Isometry]:
    """Type of an irreducible root system plus an exact Gram-preserving map
    carrying it onto the canonical model gen(type), checked root by root."""
    _require_root_system(omega)
    analyses = _analyses(omega)
    if len(analyses) != 1:
        raise ValueError("isometry requires an irreducible root system")
    return analyses[0].type, analyses[0].isometry()


def _isometry(omega: RootSet, base: Sequence[Root], t: DynkinType) -> Isometry:
    """The map carrying omega onto gen(t) that sends a base of omega, in
    canonical order, to the canonically ordered base of gen(t)."""
    ordered = _canonical_base_order(base)
    target = _target(t)
    if [[_idot(a, b) for b in ordered] for a in ordered] != target.gram:
        raise InvariantError("canonically ordered bases have different Gram matrices")
    # The map is Y Ginv B: B takes a vector to its inner products with the
    # ordered base, and Y Ginv, cached per type, those to the canonical
    # model.  <x, b> = sum(x.nums * b.dvec) / (x.den * b.den), and apply
    # divides by x.den, so B is the base's dvecs over their common denominator
    b_den = math.lcm(*(r.den for r in ordered))
    b_cols = list(zip(*([v * (b_den // r.den) for v in r.dvec] for r in ordered)))
    rows = [[sum(map(mul, row, col)) for col in b_cols] for row in target.dual]
    den = target.den * b_den
    g = math.gcd(den, *(v for row in rows for v in row))
    iso = Isometry(
        rows=tuple(tuple(v // g for v in row) for row in rows),
        den=den // g,
        domain=omega.space,
        codomain=AmbientSpace(t.ambient_dim),
    )
    if {iso._image_key(r) for r in omega.roots} != gen(t).keys():
        raise InvariantError("mapped root system does not equal the canonical model")
    return iso


def signed_permute(s: RootSet, perm: Sequence[int], signs: Sequence[int]) -> RootSet:
    """Image of an ambient root set under a signed coordinate permutation.

    new_coords[i] = signs[i] * old_coords[perm[i]].  This is an isometry of
    the ambient space, so inner products are preserved and validation is
    skipped; the image of a root system is again a root system.
    """
    if type(s.space) is not AmbientSpace:
        raise ValueError("signed permutations apply to ambient root sets")
    dim = s.space.dim
    if sorted(perm) != list(range(dim)):
        raise ValueError("perm must be a permutation of the coordinates")
    if len(signs) != dim or any(sg not in (1, -1) for sg in signs):
        raise ValueError("signs must be +-1 per coordinate")
    out = []
    for r in s.roots:
        nums = tuple(signs[i] * r.nums[perm[i]] for i in range(dim))
        out.append(_make_ambient_normalized(s.space, nums, r.den))
    flag = True if s._flag is True else None
    return RootSet._assembled(s.space, sorted(out, key=_order_key(out)), flag=flag)
