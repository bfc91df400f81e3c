"""Partitions of unity with decidable supports, anchored refinement schemes,
and cover combinatorics on the model line and grid.

Supports are interval/box descriptors with per-axis open/closed flags, so
"x lies in the support" is an exact float comparison rather than a threshold
on the bump value.  Bumps evaluate to exact 0.0 outside their declared
support.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cache, partial

from .connectors import _check_dim, _coords, _norm_metric

Key = tuple


class DenseSetError(RuntimeError):
    pass


class CoverError(ValueError):
    pass


class AnchoringError(ValueError):
    pass


class FamilyError(ValueError):
    pass


def _as_key(key) -> Key:
    # bools hash and compare like 0 and 1, but are not keys
    if isinstance(key, tuple):
        if not key or not all(type(k) is int for k in key):
            raise FamilyError(f"keys must be integer tuples, got {key!r}")
        return key
    if type(key) is int:
        return (key,)
    raise FamilyError(f"keys must be integers or integer tuples, got {key!r}")


class SupportBox:
    """Axis-aligned box with per-axis closed/open endpoint flags."""

    __slots__ = ("lo", "hi", "closed_lo", "closed_hi")

    def __init__(self, lo: tuple, hi: tuple, closed_lo: tuple, closed_hi: tuple):
        self.lo, self.hi, self.closed_lo, self.closed_hi = lo, hi, closed_lo, closed_hi

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi, self.closed_lo, self.closed_hi) == (other.lo, other.hi, other.closed_lo, other.closed_hi)

    def __hash__(self):
        return hash((self.lo, self.hi, self.closed_lo, self.closed_hi))

    @classmethod
    def interval(cls, lo: float, hi: float, closed_lo: bool = True, closed_hi: bool = True) -> "SupportBox":
        return cls((float(lo),), (float(hi),), (bool(closed_lo),), (bool(closed_hi),))

    @classmethod
    def box(cls, los, his, closed_lo=None, closed_hi=None) -> "SupportBox":
        los = tuple(float(v) for v in los)
        his = tuple(float(v) for v in his)
        d = len(los)
        closed_lo = tuple(True for _ in range(d)) if closed_lo is None else tuple(bool(v) for v in closed_lo)
        closed_hi = tuple(True for _ in range(d)) if closed_hi is None else tuple(bool(v) for v in closed_hi)
        return cls(los, his, closed_lo, closed_hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x) -> bool:
        """Whether x lies in the box.  Every comparison must hold for
        membership, so a nan coordinate, which fails them all, is in no box."""
        if len(self.lo) == 1 and isinstance(x, (int, float)):
            v = float(x)
            lo, hi = self.lo[0], self.hi[0]
            return (v > lo or (v == lo and self.closed_lo[0])) and (v < hi or (v == hi and self.closed_hi[0]))
        coords = _coords(x)
        if len(coords) != self.dim:
            return False
        for v, lo, hi, clo, chi in zip(coords, self.lo, self.hi, self.closed_lo, self.closed_hi):
            if not ((v > lo or (v == lo and clo)) and (v < hi or (v == hi and chi))):
                return False
        return True

    def meets(self, other: "SupportBox") -> bool:
        """Whether the two boxes share a point (open/closed flags honored)."""
        if self.dim != other.dim:
            return False
        for i in range(self.dim):
            a_lo, a_hi, a_clo, a_chi = self.lo[i], self.hi[i], self.closed_lo[i], self.closed_hi[i]
            b_lo, b_hi, b_clo, b_chi = other.lo[i], other.hi[i], other.closed_lo[i], other.closed_hi[i]
            lo = max(a_lo, b_lo)
            hi = min(a_hi, b_hi)
            if lo > hi:
                return False
            if lo == hi:
                lo_ok = (lo > a_lo or a_clo) and (lo > b_lo or b_clo)
                hi_ok = (hi < a_hi or a_chi) and (hi < b_hi or b_chi)
                if not (lo_ok and hi_ok):
                    return False
        return True


class _KeyView(Sequence):
    """The keys of the product of the integer ranges ``axes``, in key order
    (that of ``itertools.product``), computed on access and never stored."""

    def __init__(self, axes: tuple):
        self.axes = axes

    def __len__(self) -> int:
        return math.prod(map(len, self.axes))

    def __iter__(self):
        return itertools.product(*self.axes)

    def __getitem__(self, index: int) -> Key:
        size = len(self)
        if not -size <= index < size:
            raise IndexError(f"key index {index} outside a level of {size} keys")
        index %= size
        digits = []
        for axis in reversed(self.axes):  # mixed radix, last axis fastest
            index, digit = divmod(index, len(axis))
            digits.append(axis[digit])
        return tuple(reversed(digits))

    def __contains__(self, key) -> bool:
        return isinstance(key, tuple) and len(key) == len(self.axes) and all(type(j) is int and j in axis for j, axis in zip(key, self.axes))


class _MapView(Sequence):
    """``fn`` over a sequence, applied on access."""

    def __init__(self, fn, seq: Sequence):
        self._fn, self._seq = fn, seq

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, index: int):
        return self._fn(self._seq[index])


class BumpFamily:
    """An indexed family of bumps with declared supports: key k's support is
    the box with i-th side ``interval(k[i])``.

    ``bump(key, x)`` is only called on points of ``support_of(key)``, and
    ``eval(key, x)`` is exactly 0.0 whenever x falls outside it; families
    here are finite, so local finiteness holds with the whole space as
    witness neighborhood.  ``near(v, axis)`` lists the indices of ``axis``
    whose interval may hold the coordinate v; a lookup tests only those.
    """

    __slots__ = ("index_keys", "bump", "interval", "near")

    def __init__(
        self,
        index_keys: _KeyView,
        bump: Callable[[Key, object], float],
        interval: Callable[[int], SupportBox],
        near: Callable[[float, range], range],
    ):
        self.index_keys, self.bump, self.interval, self.near = index_keys, bump, interval, near

    def support_of(self, key) -> SupportBox:
        sides = [self.interval(j) for j in key]
        return SupportBox(*(tuple(getattr(side, face)[0] for side in sides) for face in ("lo", "hi", "closed_lo", "closed_hi")))

    def eval(self, key, x) -> float:
        return self.bump(key, x) if self.support_of(key).contains(x) else 0.0

    def active_keys(self, x) -> list:
        """Keys whose support holds x, in key order: the product of each
        axis's hits, as a box test is the conjunction of its sides' tests."""
        coords = _coords(x)
        axes = self.index_keys.axes
        if len(coords) != len(axes):
            return []
        hits = [[j for j in self.near(v, axis) if self.interval(j).contains(v)] for v, axis in zip(coords, axes)]
        return list(itertools.product(*hits))

    def weights_at(self, x) -> list:
        """(key, bump value) over supports containing x, in key order."""
        bump = self.bump
        return [(k, bump(k, x)) for k in self.active_keys(x)]

    def partition_sum(self, x) -> float:
        return float(sum(v for _, v in self.weights_at(x)))


# stays a dataclass: bench/spans.py calls dataclasses.replace on it
@dataclass(frozen=True)
class DenseSet:
    """A countable dense set given operationally: pick one of its points
    inside any nonempty region."""

    tag: str
    pick: Callable[[SupportBox], object]


def _coarsest_dyadic_in(lo: float, hi: float, closed_lo: bool, closed_hi: bool, max_level: int = 60) -> float:
    q = 1.0
    for _ in range(max_level + 1):
        p = math.ceil(lo * q)
        v = p / q
        if v < lo or (v == lo and not closed_lo):
            p += 1
            v = p / q
        if v < hi or (v == hi and closed_hi):
            return v
        q *= 2.0
    raise DenseSetError(f"no dyadic point found in [{lo}, {hi}] within {max_level} refinement levels")


def dyadic_dense() -> DenseSet:
    """Dyadic rationals p/2^k, picked deterministically: coarsest level first,
    then smallest numerator."""

    def pick(region: SupportBox):
        coords = [
            _coarsest_dyadic_in(region.lo[i], region.hi[i], region.closed_lo[i], region.closed_hi[i])
            for i in range(region.dim)
        ]
        return coords[0] if region.dim == 1 else tuple(coords)

    return DenseSet(tag="dyadic", pick=pick)


class AnchoredScheme:
    """A sequence of partitions (level n has scale 1/n), each bump carrying an
    anchor point drawn from a fixed dense set."""

    def __init__(self, n_max: int, space_kind: str, dense_set_tag: str, level_builder, describe: dict):
        if n_max < 1:
            raise ValueError("n_max must be a positive integer")
        self.n_max = int(n_max)
        self.space_kind = space_kind
        self._build_level = level_builder
        self._describe = {**describe, "dense_set": dense_set_tag}
        self._levels: dict = {}  # lazily built; idempotent, safe to race

    def level(self, n: int):
        n = int(n)
        if not 1 <= n <= self.n_max:
            raise ValueError(f"level {n} outside 1..{self.n_max}")
        if n not in self._levels:
            self._levels[n] = self._build_level(n)
        return self._levels[n]

    def family(self, n: int) -> BumpFamily:
        return self.level(n)[0]

    def anchor(self, n: int, key):
        anchors = self.level(n)[1]
        return anchors[_as_key(key)]

    def anchor_map(self, n: int) -> Mapping:
        return dict(self.level(n)[1])

    def describe(self) -> dict:
        return dict(self._describe)


class _LazyAnchors(Mapping):
    """A level's anchors, each picked from the dense set on first access and
    kept.  Iteration, length and membership are the key view's."""

    def __init__(self, keys: _KeyView, pick):
        self._keys = keys
        self._pick = pick  # key -> anchor
        self._picked: dict = {}

    def __getitem__(self, key):
        try:
            return self._picked[key]
        except KeyError:
            if key not in self._keys:
                raise
        anchor = self._picked[key] = self._pick(key)
        return anchor

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def _near(origin: float, n: int, below: int, above: int, v: float, axis: range) -> range:
    """The indices of ``axis`` within floor(t)-below .. floor(t)+above for
    t = (v - origin)*n; none when t is not finite."""
    t = (v - origin) * n
    if not math.isfinite(t):
        return range(0)
    f = math.floor(t)
    return range(max(f - below, axis.start), min(f + above + 1, axis.stop))


def _anchored_level(axes: tuple, interval, near, bump, anchor_region, dense: DenseSet):
    """One scheme level: the bump family over the keys of the product of the
    integer ranges ``axes``, and its anchors; nothing is built per key.

    ``bump(key, x)`` need only be right on ``support_of(key)``: the family
    never calls it elsewhere.  Each key's anchor is the dense set's pick
    inside ``anchor_region(key)``, made on first use.  Both schemes memoise
    ``interval``, so a level builds each axis index's interval once.
    """
    keys = _KeyView(axes)
    family = BumpFamily(index_keys=keys, bump=bump, interval=interval, near=near)
    return family, _LazyAnchors(keys, lambda key: dense.pick(anchor_region(key)))


def _check_resolution(n_max, lo: float, hi: float) -> None:
    """Reject levels finer than the floats resolve on [lo, hi], where adjacent
    nodes round to one float and supports go empty.  ``1 / n_max`` divides
    integers with one rounding, so it cannot overflow however large n_max is."""
    if n_max >= 1 and not 1 / n_max > math.ulp(max(abs(lo), abs(hi))):
        raise ValueError(f"a schedule level is finer than the floats resolve on [{lo}, {hi}]")


def grid_scheme(dim: int, box, n_max: int = 8) -> AnchoredScheme:
    """Multilinear tent partitions on the mesh-(1/n) grid over a box.

    The box side length must be a whole number so every mesh tiles it exactly.
    Node j's tent support runs from node j-1 to node j+1 per axis (clamped to
    the box), declared left-closed/right-open and closing at the box's top
    face; bounds are node coordinates, so any point lies in at most 2^dim
    supports.  Each node's anchor is a dyadic point within 1/(2n) of the node.
    """
    _check_dim(dim)
    lo, hi = float(box[0]), float(box[1])
    side = hi - lo
    if not 0 < side < math.inf:
        raise ValueError("box must have finite, positive side length")
    if abs(side - round(side)) > 1e-9:
        raise ValueError("box side length must be a whole number so meshes tile it exactly")
    side = int(round(side))
    _check_resolution(n_max, lo, hi)
    dense = dyadic_dense()

    def build_level(n: int):
        count = side * n  # nodes 0..count per axis; node j is lo + j / n
        r = 0.5 / n

        @cache
        def interval(j):
            return SupportBox((lo + max(j - 1, 0) / n,), (lo + min(j + 1, count) / n,), (True,), (j + 1 >= count,))

        def tent(key, x) -> float:
            value = 1.0
            for v, j in zip(_coords(x), key):
                value *= max(0.0, 1.0 - n * abs(v - (lo + j / n)))
            return value

        def node_box(key):
            node = [lo + j / n for j in key]
            return SupportBox.box([max(c - r, lo) for c in node], [min(c + r, hi) for c in node])

        # nodes floor(t)-1 .. floor(t)+2 for t = (v - lo)*n: float rounding
        # of t cannot drop a support holding v
        return _anchored_level((range(count + 1),) * dim, interval, partial(_near, lo, n, 1, 2), tent, node_box, dense)

    describe = {
        "kind": "grid",
        "dim": dim,
        "box": [lo, hi],
        "n_max": int(n_max),
    }
    return AnchoredScheme(n_max, "euclidean_grid", dense.tag, build_level, describe)


def sorgenfrey_scheme(n_max: int = 8, domain=(0.0, 1.0)) -> AnchoredScheme:
    """Characteristic-function partitions of the half-open tiling
    [(i-1)/n, i/n), anchored one tile to the right: the level-n anchor for
    tile i is a dyadic point of [i/n, (i+1)/n)."""
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError("domain must have positive length")
    _check_resolution(n_max, lo, hi)
    dense = dyadic_dense()

    def build_level(n: int):
        @cache
        def tile(i):
            return SupportBox.interval((i - 1) / n, i / n, closed_lo=True, closed_hi=False)

        axes = (range(math.floor(lo * n) - 1, math.ceil(hi * n) + 2),)
        # x lies in tile floor(x*n)+1, up to float rounding of x*n
        return _anchored_level(axes, tile, partial(_near, 0.0, n, 0, 2), lambda key, x: 1.0, lambda key: tile(key[0] + 1), dense)

    describe = {
        "kind": "sorgenfrey",
        "domain": [lo, hi],
        "n_max": int(n_max),
    }
    return AnchoredScheme(n_max, "sorgenfrey", dense.tag, build_level, describe)


def _anchor_in_neighborhood(space_kind: str, anchor, x, radius: float) -> bool:
    if space_kind == "sorgenfrey":
        return x <= anchor < x + radius
    return _norm_metric(anchor, x) < radius


def verify_anchoring(scheme: AnchoredScheme, x, radius: float) -> int:
    """Least n0 such that for every n in [n0, n_max], all bumps whose support
    contains x have their anchor inside the radius-neighborhood of x
    (metric ball, or [x, x+radius) on the half-open line)."""
    radius = float(radius)
    if not radius > 0:
        raise ValueError("radius must be positive")
    ok = []
    for n in range(1, scheme.n_max + 1):
        family = scheme.family(n)
        good = all(
            _anchor_in_neighborhood(scheme.space_kind, scheme.anchor(n, key), x, radius)
            for key in family.active_keys(x)
        )
        ok.append(good)
    n0 = None
    for n in range(scheme.n_max, 0, -1):
        if not ok[n - 1]:
            break
        n0 = n
    if n0 is None:
        raise AnchoringError(f"anchoring fails at every tail up to n_max={scheme.n_max}")
    return n0


def pointwise_finiteness(families: Sequence[BumpFamily], x) -> int:
    """Largest number of supports containing x across the families."""
    families = list(families)
    if not families:
        raise ValueError("need at least one family")
    return max(len(f.active_keys(x)) for f in families)


class CoverCellPartition:
    """Pairwise-disjoint indexed cells; each covered point lies in exactly one.

    With ``first_of(x)``, which lists in key order the keys of the cover sets
    holding x, the cell is the first of them, and no cell predicate runs.
    """

    __slots__ = ("cells", "provenance", "first_of")

    def __init__(self, cells: Sequence, provenance: str, first_of: Callable[[object], Sequence] | None = None):
        self.cells = cells  # (key, membership predicate) pairs
        self.provenance = provenance  # "disjointified"
        self.first_of = first_of

    def cell_of(self, x):
        if self.first_of is not None:
            hits = self.first_of(x)[:1]
        else:
            hits = [key for key, member in self.cells if member(x)]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise CoverError(f"point {x!r} lies in no cell")
        raise CoverError(f"point {x!r} lies in {len(hits)} cells: {hits!r}")

    def keys(self) -> tuple:
        return tuple(key for key, _ in self.cells)


def disjointify(cover: Sequence, first_of=None) -> CoverCellPartition:
    """First-containing-index refinement of an ordered cover: cell k keeps the
    points of set k not claimed by any earlier set.  ``first_of(x)``, when
    given, lists in cover order the keys of the sets holding x, so
    ``cell_of`` reads the first one instead of running the predicate chain;
    the cover is then kept as it is, and cell k's predicate, made on access,
    asks whether k comes first."""
    if not len(cover):
        raise CoverError("cover is empty")
    if first_of is not None:
        return CoverCellPartition(_MapView(lambda item: (item[0], lambda x: item[0] in first_of(x)[:1]), cover), "disjointified", first_of)
    items = [(_as_key(key), member) for key, member in cover]
    members = tuple(member for _, member in items)

    def cell(idx):
        def cell_member(x):
            return bool(members[idx](x)) and not any(m(x) for m in members[:idx])

        return cell_member

    return CoverCellPartition(tuple((key, cell(idx)) for idx, (key, _) in enumerate(items)), "disjointified", first_of)
