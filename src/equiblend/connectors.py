"""Connector calculus on concrete model spaces.

A connector space is a continuous path map ``connect(x, y, t)`` joining any
two points for t in [0, 1], with exact endpoints and ``connect(x, x, t) == x``.
Weighted n-point combinations are folded through ``connect`` by a fixed
left-to-right recursion.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

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
    """A two-point path map on points of ``point_dim`` coordinates: all that
    a blend needs of the space.

    ``connect(x, y, t)`` must return x at t=0, y at t=1 and x whenever the
    endpoints coincide; built-in constructors wrap the raw map so those
    identities hold exactly in floats.
    """

    point_dim: int
    connect: Callable[[Point, Point, float], Point]


def _with_endpoint_identities(raw):
    def connect(x, y, t):
        if not 0.0 <= t <= 1.0:
            raise WeightError(f"connector parameter {t!r} outside [0, 1]")
        if t == 0.0:
            return x
        if t == 1.0:
            return y
        if (x == y if type(x) is float and type(y) is float else _points_equal(x, y)):
            return x
        return raw(x, y, t)

    return connect


def affine_space(lo, hi, dim: int = 1) -> ConnectorSpace:
    """Straight-line connector, (1-t)x + t y, named by a box.

    ``lo``/``hi`` are scalars, infinite ones included, that must satisfy
    hi > lo; they bound no point, since the path map needs no membership.
    """
    if not float(hi) > float(lo):
        raise ValueError("affine_space needs hi > lo")
    _check_dim(dim)

    def raw(x, y, t):  # numbers, and arrays with their own elementwise arithmetic
        return (1.0 - t) * x + t * y

    return ConnectorSpace(point_dim=dim, connect=_with_endpoint_identities(raw))


def affine_line(dim: int = 1) -> ConnectorSpace:
    """Straight-line connector on the whole space: the box is unbounded."""
    return affine_space(-math.inf, math.inf, dim)


def _h(u: float) -> float:
    return u * u * u + u


def warped_line() -> ConnectorSpace:
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

    def raw(x, y, t):
        return h_inv((1.0 - t) * _h(float(x)) + t * _h(float(y)))

    return ConnectorSpace(point_dim=1, connect=_with_endpoint_identities(raw))


def _normalised(w: Sequence) -> Sequence:
    """w divided by its sum, which must be 1 within WEIGHT_ATOL; returned
    as is when the sum is exactly 1.  The sum is ``math.fsum``'s, correctly
    rounded, so it does not depend on the order of w."""
    try:
        s = math.fsum(w)
    except (ValueError, OverflowError) as exc:  # inf - inf, or a sum beyond the floats
        raise WeightError(f"weights have no finite sum: {exc}") from None
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


def _fold(space: ConnectorSpace, points: Sequence, weights: Sequence) -> Point:
    dim, connect = space.point_dim, space.connect
    for p in points:
        size = 1 if dim == 1 and isinstance(p, float) else len(_coords(p))
        if size != dim:
            raise WeightError(f"point of dimension {size} in a {dim}-dimensional space")
    point, total = points[0], weights[0]
    pairs = zip(points, weights)
    next(pairs)  # the first pair, read above
    for q, v in pairs:
        s = total + v
        if s == 0.0:
            point, total = q, v
        else:
            point, total = connect(point, q, v / s), s
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
    return _fold(space, points, _normalised(weights))


class Contraction:
    """A map gamma(z, t) sliding every point to ``star`` as t goes 0 -> 1."""

    __slots__ = ("gamma", "star")

    def __init__(self, gamma: Callable[[Point, float], Point], star: Point):
        self.gamma, self.star = gamma, star


def straight_line_contraction(star=0.0) -> Contraction:
    """gamma(z, t) = (1-t) z + t star on a euclidean universe, with
    gamma(z, 0) = z and gamma(z, 1) = star exactly."""

    def gamma(z, t):
        if t == 0.0:
            return z
        if t == 1.0:
            return star
        return (1.0 - t) * z + t * star

    return Contraction(gamma=gamma, star=star)
