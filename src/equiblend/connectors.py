"""Connector calculus on concrete model spaces.

A connector space is a point universe together with a continuous path map
``connect(x, y, t)`` joining any two points for t in [0, 1], with exact
endpoints and ``connect(x, x, t) == x``.  Weighted n-point combinations are
folded through ``connect`` by a fixed left-to-right recursion.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

Point = "float | tuple"

# validation slack before weights are renormalised
WEIGHT_ATOL = 1e-9


class WeightError(ValueError):
    pass


def _coords(p) -> tuple:
    """A point's coordinates as floats: a number, numpy scalar or 0-d array
    is one coordinate; a tuple, list or array is read by iterating over it."""
    if isinstance(p, (int, float)) or getattr(p, "ndim", 1) == 0 or not hasattr(p, "__iter__"):
        return (float(p),)
    return tuple(map(float, p))


def _points_equal(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    return _coords(a) == _coords(b)


def _check_dim(dim) -> None:
    if not (isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1):
        raise ValueError(f"dim must be a positive integer, got {dim!r}")


def _norm_metric(a, b) -> float:
    """Euclidean distance.  ``abs`` and ``math.dist`` scale the difference,
    so tiny and huge distances neither underflow to 0 nor overflow."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b))
    return math.dist(_coords(a), _coords(b))


# stays a dataclass: bench/spans.py calls dataclasses.replace on it
@dataclass(frozen=True)
class ConnectorSpace:
    """A point universe with a two-point path map.

    ``connect(x, y, t)`` must return x at t=0, y at t=1 and x whenever the
    endpoints coincide; built-in constructors wrap the raw map so those
    identities hold exactly in floats.
    """

    point_dim: int
    contains: Callable[[Point], bool]
    connect: Callable[[Point, Point, float], Point]
    metric: Callable[[Point, Point], float]
    name: str = ""


def _with_endpoint_identities(raw):
    def connect(x, y, t):
        if not 0.0 <= t <= 1.0:
            raise WeightError(f"connector parameter {t!r} outside [0, 1]")
        if t == 0.0:
            return x
        if t == 1.0:
            return y
        if _points_equal(x, y):
            return x
        return raw(x, y, t)

    return connect


def affine_space(lo, hi, dim: int = 1, name: str = "") -> ConnectorSpace:
    """Straight-line connector on a closed box, (1-t)x + t y.

    ``lo``/``hi`` are scalars applied to every axis, infinite ones included.
    Membership needs finite coordinates and allows 1e-9 slack for rounding
    drift at the box faces.
    """
    lo = float(lo)
    hi = float(hi)
    if not hi > lo:
        raise ValueError("affine_space needs hi > lo")
    _check_dim(dim)

    def contains(p) -> bool:
        try:
            coords = _coords(p)
        except (TypeError, ValueError):  # None, or not numbers
            return False
        return len(coords) == dim and all(math.isfinite(v) and lo - 1e-9 <= v <= hi + 1e-9 for v in coords)

    def raw(x, y, t):
        if isinstance(x, (tuple, list)) or isinstance(y, (tuple, list)):
            return tuple((1.0 - t) * a + t * b for a, b in zip(_coords(x), _coords(y)))
        # numbers, and arrays with their own elementwise arithmetic
        return (1.0 - t) * x + t * y

    return ConnectorSpace(
        point_dim=dim,
        contains=contains,
        connect=_with_endpoint_identities(raw),
        metric=_norm_metric,
        name=name or f"affine[{lo},{hi}]^{dim}",
    )


def affine_line(dim: int = 1, name: str = "") -> ConnectorSpace:
    """Unbounded straight-line connector (all finite points)."""
    return affine_space(-math.inf, math.inf, dim, name or f"affine_line^{dim}")


def _h(u: float) -> float:
    return u * u * u + u


def warped_line(name: str = "warped_line") -> ConnectorSpace:
    """Connector on the real line pulled back through h(u) = u^3 + u.

    ``connect(x, y, t) = h^-1((1-t) h(x) + t h(y))``; h is strictly increasing
    so the inverse is well defined everywhere.  Building one imports numpy.
    """
    # numpy.cbrt, not math.cbrt: numpy may dispatch cbrt to a SIMD kernel
    # (AVX-512 on x86-64) whose last bit differs from libm's on about half of
    # all inputs, and the difference survives the Newton polish in about 2%
    # of inverses.  So warped values, and the benchmark's stored warped probe
    # values, depend on the CPU features numpy dispatches to.
    from numpy import cbrt

    def h_inv(w: float) -> float:
        # u^3 + u - w = 0 has a single real root (discriminant is always negative)
        s = math.sqrt(0.25 * w * w + 1.0 / 27.0)
        u = float(cbrt(0.5 * w + s) + cbrt(0.5 * w - s))
        for _ in range(2):  # Newton polish to machine precision
            u -= (u * u * u + u - w) / (3.0 * u * u + 1.0)
        return u

    def contains(p) -> bool:
        return isinstance(p, (int, float)) and math.isfinite(float(p))

    def raw(x, y, t):
        return h_inv((1.0 - t) * _h(float(x)) + t * _h(float(y)))

    return ConnectorSpace(
        point_dim=1,
        contains=contains,
        connect=_with_endpoint_identities(raw),
        metric=lambda a, b: abs(float(a) - float(b)),
        name=name,
    )


def _numpy_sum(w: tuple) -> float:
    """The sum of w in numpy's order for a float64 array (pairwise
    summation): sequential below 8 entries, 8 strided partial sums up to
    128, and halves (the first a multiple of 8) above that.  So weights
    renormalise to the same bits as ``w / np.sum(w)``."""
    n = len(w)
    if n < 8:
        s = 0.0
        for v in w:
            s += v
        return s
    if n <= 128:
        stop = n - n % 8
        r = [reduce(add, w[j:stop:8]) for j in range(8)]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in w[stop:]:
            s += v
        return s
    half = n // 2 - n // 2 % 8
    return _numpy_sum(w[:half]) + _numpy_sum(w[half:])


def _normalised(w: tuple) -> tuple:
    """w divided by its sum, which must be 1 within WEIGHT_ATOL; returned
    as is when the sum is exactly 1."""
    s = _numpy_sum(w)
    if not abs(s - 1.0) <= WEIGHT_ATOL:
        raise WeightError(f"weights sum to {s!r}, not 1 within {WEIGHT_ATOL}")
    return w if s == 1.0 else tuple(v / s for v in w)


def _clean_weights(values) -> tuple:
    try:
        w = tuple(map(float, values))
    except (TypeError, ValueError) as exc:
        raise WeightError("weights must be a nonempty 1-d sequence of numbers") from exc
    if not w:
        raise WeightError("weights must be a nonempty 1-d sequence of numbers")
    if any(v < -WEIGHT_ATOL for v in w):
        raise WeightError("negative weight beyond tolerance")
    if any(v > 1.0 + WEIGHT_ATOL for v in w):
        raise WeightError("weight above 1 beyond tolerance")
    return _normalised(tuple(0.0 if v < 0.0 else v for v in w))


def _fold(space: ConnectorSpace, points: list, weights: tuple) -> Point:
    for p in points:
        size = len(_coords(p))
        if size != space.point_dim:
            raise WeightError(f"point of dimension {size} in a {space.point_dim}-dimensional space")
    point, total = points[0], weights[0]
    for q, v in zip(points[1:], weights[1:]):
        s = total + v
        if s == 0.0:
            point, total = q, v
        else:
            point, total = space.connect(point, q, v / s), s
    return point


def convex_combination(space: ConnectorSpace, points: Sequence, weights) -> Point:
    """Weighted combination of n points folded through the connector.

    One entry returns its point.  With more entries the first two are merged:
    if w1 + w2 > 0 they collapse to ``connect(x1, x2, w2/(w1+w2))`` carrying
    weight w1 + w2; if w1 + w2 == 0 (exact float test; weights are
    nonnegative, so both are exact zeros) the first entry is dropped.  Exact
    zero weights therefore never move the result.
    """
    w = _clean_weights(weights)
    pts = list(points)
    if len(pts) != len(w):
        raise WeightError(f"{len(pts)} points with {len(w)} weights")
    return _fold(space, pts, w)


def lambda_sum(space: ConnectorSpace, points: Sequence, weights: Sequence[float]) -> Point:
    """Connector sum: fold the points with their weights, in the given
    order, as :func:`convex_combination` does.  The weights are a bump
    family's positive values in key order; the family bounds each one, so
    they are only renormalised."""
    return _fold(space, list(points), _normalised(tuple(weights)))


class Contraction:
    """A map gamma(z, t) sliding every point to ``star`` as t goes 0 -> 1."""

    __slots__ = ("gamma", "star", "name")

    def __init__(self, gamma: Callable[[Point, float], Point], star: Point, name: str = ""):
        self.gamma, self.star, self.name = gamma, star, name


def _with_contraction_identities(raw, star):
    def gamma(z, t):
        if t == 0.0:
            return z
        if t == 1.0:
            return star
        return raw(z, t)

    return gamma


def make_contraction(raw_gamma, star, name: str = "") -> Contraction:
    """Wrap a raw gamma so gamma(z,0)=z and gamma(z,1)=star hold exactly."""
    if not callable(raw_gamma):
        raise TypeError("raw_gamma must be callable")
    return Contraction(gamma=_with_contraction_identities(raw_gamma, star), star=star, name=name)


def straight_line_contraction(star=0.0, name: str = "") -> Contraction:
    """gamma(z, t) = (1-t) z + t star on a euclidean universe."""

    def raw(z, t):
        return (1.0 - t) * z + t * star

    return make_contraction(raw, star, name or "straight_line")


def contract_eval(c: Contraction, z, t: float) -> Point:
    """Evaluate a contraction; t must lie in [0, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise WeightError(f"contraction parameter {t!r} outside [0, 1]")
    return c.gamma(z, t)
