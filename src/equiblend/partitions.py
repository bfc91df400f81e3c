"""Partitions of unity with decidable supports, anchored refinement schemes,
and cover combinatorics on the model line and grid.

A support is a product of intervals, one per axis, each with open/closed
endpoint flags, so "x lies in the support" is an exact float comparison
rather than a threshold on the bump value.  A bump is only evaluated on its
declared support and counts as exact 0.0 outside it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass

from .connectors import _check_dim, _coords, _norm_metric

class DenseSetError(RuntimeError):
    pass


class CoverError(ValueError):
    pass


class AnchoringError(ValueError):
    pass


class FamilyError(ValueError):
    pass


def _as_key(key) -> tuple:
    # bools hash and compare like 0 and 1, but are not keys
    if isinstance(key, tuple):
        if not key or not all(type(k) is int for k in key):
            raise FamilyError(f"keys must be integer tuples, got {key!r}")
        return key
    if type(key) is int:
        return (key,)
    raise FamilyError(f"keys must be integers or integer tuples, got {key!r}")


class SupportBox:
    """An interval of the line with closed/open endpoint flags; a support is
    the product of one such interval per axis."""

    __slots__ = ("lo", "hi", "closed_lo", "closed_hi")

    def __init__(self, lo: float, hi: float, closed_lo: bool, closed_hi: bool):
        self.lo, self.hi, self.closed_lo, self.closed_hi = lo, hi, closed_lo, closed_hi

    @classmethod
    def interval(cls, lo: float, hi: float, closed_lo: bool = True, closed_hi: bool = True) -> "SupportBox":
        return cls(float(lo), float(hi), bool(closed_lo), bool(closed_hi))

    def contains(self, v) -> bool:
        """Whether the number v lies in the interval.  Both comparisons must
        hold for membership, so nan, which fails them all, is in no interval."""
        return (v > self.lo or (v == self.lo and self.closed_lo)) and (v < self.hi or (v == self.hi and self.closed_hi))


class _KeyView:
    """The keys of the product of the integer ranges ``axes``: their count,
    truth and membership, never stored.  Key order is that of
    ``itertools.product(*axes)``; the view is not iterable, so nothing lists
    a level's keys, which may outnumber memory."""

    def __init__(self, axes: tuple):
        self.axes = axes

    def __len__(self) -> int:
        return math.prod(map(len, self.axes))

    def __bool__(self) -> bool:  # len() refuses a count above sys.maxsize
        return all(self.axes)

    def __contains__(self, key) -> bool:
        return isinstance(key, tuple) and len(key) == len(self.axes) and all(type(j) is int and j in axis for j, axis in zip(key, self.axes))


class BumpFamily:
    """An indexed family of bumps with declared supports: key k's support is
    the product of the intervals ``interval(j)`` for j in k, and its bump the
    product of the axis weights ``weight(j, v)`` at the point's coordinates.

    ``weight(j, v)`` is only called for v in ``interval(j)``; a bump counts
    as exactly 0.0 off its support, and families here are finite, so local
    finiteness holds with the whole space as witness neighborhood.
    ``near(v, axis)`` lists the indices of ``axis`` whose interval may hold
    the coordinate v; a lookup tests only those.
    """

    __slots__ = ("index_keys", "weight", "interval", "near")

    def __init__(
        self,
        index_keys: _KeyView,
        weight: Callable[[int, float], float],
        interval: Callable[[int], SupportBox],
        near: Callable[[float, range], range],
    ):
        self.index_keys, self.weight, self.interval, self.near = index_keys, weight, interval, near

    def active_keys(self, x) -> list:
        """Keys whose support holds x, in key order."""
        return [key for key, _ in self.weights_at(x)]

    def weights_at(self, x) -> list:
        """(key, bump value) over supports containing x, in key order: keys are
        the product of each axis's hits, as a support test is the conjunction of
        its intervals' tests, and values 1.0 times each hit's weight, in axis order."""
        coords = _coords(x)
        axes = self.index_keys.axes
        if len(coords) != len(axes):
            return []
        interval, weight, near = self.interval, self.weight, self.near
        v, axis = coords[0], axes[0]
        out = [((j,), weight(j, v)) for j in near(v, axis) if interval(j).contains(v)]
        for v, axis in zip(coords[1:], axes[1:]):
            hits = [(j, weight(j, v)) for j in near(v, axis) if interval(j).contains(v)]
            out = [(key + (j,), w * a) for key, w in out for j, a in hits]
        return out

    def partition_sum(self, x) -> float:
        return float(sum(v for _, v in self.weights_at(x)))


# stays a dataclass: bench/spans.py calls dataclasses.replace on it
@dataclass(frozen=True)
class DenseSet:
    """A countable dense set given operationally: pick one of its points
    inside any nonempty region."""

    tag: str
    pick: Callable[[tuple[SupportBox, ...]], object]  # a region: one interval per axis


def _coarsest_dyadic_in(interval: SupportBox) -> float:
    lo, hi, closed_lo, closed_hi = interval.lo, interval.hi, interval.closed_lo, interval.closed_hi
    q = 1.0
    for _ in range(61):
        p = math.ceil(lo * q)
        v = p / q
        if v < lo or (v == lo and not closed_lo):
            p += 1
            v = p / q
        if v < hi or (v == hi and closed_hi):
            return v
        q *= 2.0
    raise DenseSetError(f"no dyadic point found in [{lo}, {hi}] within 60 refinement levels")


def dyadic_dense() -> DenseSet:
    """Dyadic rationals p/2^k, picked deterministically: coarsest level first,
    then smallest numerator."""

    def pick(region: tuple):
        coords = tuple(map(_coarsest_dyadic_in, region))
        return coords[0] if len(coords) == 1 else coords

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
        family, anchor = self.level(n)
        if (key := _as_key(key)) not in family.index_keys:
            raise KeyError(key)
        return anchor(key)

    def describe(self) -> dict:
        return dict(self._describe)


def _near(origin: float, n: int, below: int, above: int):
    """``near(v, axis)``: the indices of ``axis`` within floor(t)-below ..
    floor(t)+above for t = (v - origin)*n; none when t is not finite."""
    def near(v: float, axis: range) -> range:
        t = (v - origin) * n
        if not math.isfinite(t):
            return range(0)
        f = math.floor(t)
        return range(max(f - below, axis.start), min(f + above + 1, axis.stop))

    return near


class _Memo(dict):
    """A dict that builds a missing value as ``make(key)`` and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        return self.setdefault(key, self.make(key))


def _anchored_level(axes: tuple, interval, near, weight, anchor_interval, dense: DenseSet):
    """One scheme level: the bump family over the keys of the product of the
    integer ranges ``axes``, and its anchors, a function of the key; nothing
    is built per key.

    ``weight(j, v)`` need only be right for v in ``interval(j)``: the family
    never calls it elsewhere.  Key k's anchor is (c(j) for j in k), bare in
    dim 1, with c(j) the dense set's pick inside ``anchor_interval(j)``; each
    c(j), anchor and ``interval(j)`` is made on first use and kept.
    ``AnchoredScheme.anchor`` rejects keys outside the level.
    """
    coord = _Memo(lambda j: dense.pick((anchor_interval(j),))).__getitem__
    return BumpFamily(_KeyView(axes), weight, interval, near), _Memo(lambda key: coord(key[0]) if len(key) == 1 else tuple(map(coord, key))).__getitem__


def _check_resolution(n_max, lo: float, hi: float) -> None:
    """Reject levels finer than the floats resolve on [lo, hi], where adjacent
    nodes round to one float and supports go empty.  ``1 / n_max`` divides
    integers with one rounding, so it cannot overflow however large n_max is."""
    if n_max >= 1 and not 1 / n_max > math.ulp(max(abs(lo), abs(hi))):
        raise ValueError(f"a schedule level is finer than the floats resolve on [{lo}, {hi}]")


def grid_scheme(dim: int, box, n_max: int = 8) -> AnchoredScheme:
    """Multilinear tent partitions on the mesh-(1/n) grid over a box.

    The box's hi must be lo plus a whole number, exactly, so every mesh tiles
    it and the top node lands on hi.
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
    side = round(side)
    if lo + side != hi:
        raise ValueError("box hi must be lo plus a whole number so meshes tile it exactly")
    _check_resolution(n_max, lo, hi)
    dense = dyadic_dense()

    def build_level(n: int):
        count = side * n  # nodes 0..count per axis; node j is lo + j / n
        interval = _Memo(lambda j: SupportBox(lo + max(j - 1, 0) / n, lo + min(j + 1, count) / n, True, j + 1 >= count)).__getitem__

        def tent(j, v) -> float:
            w = 1.0 - n * abs(v - (lo + j / n))
            return w if w > 0.0 else 0.0  # the bits of max(0.0, w), -0.0 and nan included

        def node_interval(j):  # the points of the box within 1/(2n) of node j
            return SupportBox(max(lo + j / n - 0.5 / n, lo), min(lo + j / n + 0.5 / n, hi), True, True)

        # nodes floor(t)-1 .. floor(t)+2 for t = (v - lo)*n: float rounding
        # of t cannot drop a support holding v
        return _anchored_level((range(count + 1),) * dim, interval, _near(lo, n, 1, 2), tent, node_interval, dense)

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
        tile = _Memo(lambda i: SupportBox.interval((i - 1) / n, i / n, closed_lo=True, closed_hi=False)).__getitem__
        axes = (range(math.floor(lo * n) - 1, math.ceil(hi * n) + 2),)
        # x lies in tile floor(x*n)+1, up to float rounding of x*n
        return _anchored_level(axes, tile, _near(0.0, n, 0, 2), lambda j, v: 1.0, lambda j: tile(j + 1), dense)

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
    n0 = None
    for n in range(scheme.n_max, 0, -1):  # the tail ends at the first failure from the top
        anchors = (scheme.anchor(n, key) for key in scheme.family(n).active_keys(x))
        if not all(_anchor_in_neighborhood(scheme.space_kind, a, x, radius) for a in anchors):
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
    """The pairwise-disjoint cells of an ordered cover: a point's cell is the
    first cover set, in key order, that holds it.

    ``first_of(x)`` lists in key order the keys of the cover sets holding x,
    or at least the first of them.
    """

    __slots__ = ("keys", "first_of")
    provenance = "disjointified"

    def __init__(self, keys: Collection, first_of: Callable[[object], Sequence]):
        self.keys, self.first_of = keys, first_of

    @property
    def cells(self):
        """(key, membership predicate) pairs in key order, made as they are read."""
        if isinstance(self.keys, _KeyView):
            raise CoverError("a level cover's cells are not listed, since its keys may outnumber memory; use cell_of")
        first_of = self.first_of
        return ((key, lambda x, key=key: key in first_of(x)[:1]) for key in self.keys)

    def cell_of(self, x):
        hits = self.first_of(x)[:1]
        if not hits:
            raise CoverError(f"point {x!r} lies in no cell")
        return hits[0]


def disjointify(cover: Collection, first_of=None) -> CoverCellPartition:
    """First-containing-index refinement of an ordered cover: cell k keeps the
    points of set k not claimed by any earlier set.  The cover is its keys
    with ``first_of(x)``, which lists in key order the keys of the sets
    holding x, or, without ``first_of``, (key, membership predicate) pairs."""
    if not cover:
        raise CoverError("cover is empty")
    if first_of is None:
        items = [(_as_key(key), member) for key, member in cover]
        cover = [key for key, _ in items]

        def first_of(x):
            return next(([key] for key, member in items if member(x)), [])

    return CoverCellPartition(cover, first_of)
