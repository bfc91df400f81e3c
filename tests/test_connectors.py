"""Connector spaces: endpoint identities, weight hygiene, iterated blends."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from equiblend.connectors import (
    WeightError,
    _clean_weights,
    _norm_metric,
    affine_line,
    affine_space,
    convex_combination,
    lambda_sum,
    straight_line_contraction,
    warped_line,
)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def test_endpoint_identities_are_exact():
    rng = np.random.default_rng(11)
    sp = affine_line(3)
    wl = warped_line()
    for _ in range(200):
        x = rng.uniform(-5.0, 5.0, size=3)
        y = rng.uniform(-5.0, 5.0, size=3)
        assert sp.connect(x, y, 0.0) is x
        assert sp.connect(x, y, 1.0) is y
        assert sp.connect(x, x, rng.uniform()) is x
        a, b = rng.uniform(-2.0, 2.0, size=2)
        assert wl.connect(a, b, 0.0) == a
        assert wl.connect(a, b, 1.0) == b
        assert wl.connect(a, a, rng.uniform()) == a


def test_connect_rejects_out_of_range_parameter():
    sp = affine_line(2)
    x = np.zeros(2)
    y = np.ones(2)
    with pytest.raises(WeightError):
        sp.connect(x, y, -0.01)
    with pytest.raises(WeightError):
        sp.connect(x, y, 1.01)


def test_simplex_weights_validation():
    w = _clean_weights((0.25, 0.25, 0.5))
    assert sum(w) == 1.0
    with pytest.raises(WeightError):
        _clean_weights((0.5, 0.6))
    with pytest.raises(WeightError):
        _clean_weights((-0.2, 1.2))
    # tiny negatives clamp to exact zero, tiny drift renormalizes
    w2 = _clean_weights((-1e-12, 0.3, 0.7 + 1e-10))
    assert w2[0] == 0.0
    assert sum(w2) == 1.0


def test_affine_combination_matches_weighted_average():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        sp = affine_line(dim)
        pts = [rng.uniform(-5.0, 5.0, size=dim) for _ in range(k)]
        raw = rng.uniform(0.1, 1.0, size=k)
        weights = raw / raw.sum()
        out = convex_combination(sp, pts, weights)
        oracle = np.average(np.stack(pts), axis=0, weights=weights)
        assert np.max(np.abs(out - oracle)) <= 1e-12


def test_zero_weight_entries_never_move_the_result():
    rng = np.random.default_rng(37)
    sp = affine_line(2)
    wl = warped_line()
    for _ in range(500):
        k = int(rng.integers(2, 7))
        pts = [rng.uniform(-3.0, 3.0, size=2) for _ in range(k)]
        raw = rng.uniform(0.1, 1.0, size=k)
        weights = list(raw / raw.sum())
        base = convex_combination(sp, pts, weights)
        # splice exact-zero entries at a random slot; result must be bit-identical
        slot = int(rng.integers(0, k + 1))
        pts2 = pts[:slot] + [rng.uniform(-3.0, 3.0, size=2)] + pts[slot:]
        w2 = weights[:slot] + [0.0] + weights[slot:]
        assert _bits(convex_combination(sp, pts2, w2)) == _bits(base)

        vals = [float(rng.uniform(-2.0, 2.0)) for _ in range(k)]
        wbase = convex_combination(wl, vals, weights)
        vals2 = vals[:slot] + [float(rng.uniform(-2.0, 2.0))] + vals[slot:]
        assert convex_combination(wl, vals2, w2) == wbase


def _dyadic_weights(rng, k: int) -> list[float]:
    # weights j/64 with every j >= 1; all partial sums are exact in floats,
    # so no renormalization kicks in anywhere
    while True:
        counts = rng.multinomial(64, [1.0 / k] * k)
        if counts.min() >= 1:
            return [int(c) / 64.0 for c in counts]


def test_combination_recursion_identity():
    # merging the first pair by hand and recursing reproduces the result bit
    # for bit, on the affine space and on the warped line alike
    rng = np.random.default_rng(41)
    sp = affine_line(3)
    wl = warped_line()
    for _ in range(300):
        k = int(rng.integers(3, 7))
        weights = _dyadic_weights(rng, k)
        s = weights[0] + weights[1]

        pts = [rng.uniform(-4.0, 4.0, size=3) for _ in range(k)]
        merged = sp.connect(pts[0], pts[1], weights[1] / s)
        lhs = convex_combination(sp, pts, weights)
        rhs = convex_combination(sp, [merged] + pts[2:], [s] + weights[2:])
        assert _bits(lhs) == _bits(rhs)

        vals = [float(rng.uniform(-2.0, 2.0)) for _ in range(k)]
        vmerged = wl.connect(vals[0], vals[1], weights[1] / s)
        vlhs = convex_combination(wl, vals, weights)
        vrhs = convex_combination(wl, [vmerged] + vals[2:], [s] + weights[2:])
        assert vlhs == vrhs


def test_idempotence_on_repeated_points():
    sp = affine_line(2)
    p = np.array([0.7, -0.3])
    out = convex_combination(sp, [p, p, p, p], [0.1, 0.2, 0.3, 0.4])
    assert out is p
    wl = warped_line()
    assert convex_combination(wl, [1.3, 1.3, 1.3], [0.5, 0.25, 0.25]) == 1.3


def test_warped_connect_parameter_continuity():
    # small parameter changes move the output a little; the warp keeps the
    # displacement bounded on a moderate window
    rng = np.random.default_rng(53)
    wl = warped_line()
    for _ in range(500):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        t = rng.uniform(0.05, 0.95)
        base = wl.connect(a, b, t)
        nudged = wl.connect(a, b, t + 1e-7)
        assert abs(nudged - base) <= 1e-4


def test_warped_midpoint_respects_cubic_pull():
    # the warp h(u) = u^3 + u is convex on [0, inf); midpoints get pulled
    # toward the larger endpoint
    wl = warped_line()
    mid = wl.connect(0.0, 2.0, 0.5)
    assert 1.0 < mid < 2.0
    # h(mid) must be the exact average of h(0) and h(2) up to solver dust
    h = lambda u: u * u * u + u
    assert abs(h(mid) - 0.5 * (h(0.0) + h(2.0))) <= 1e-9


def test_lambda_sum_single_entry_returns_the_point():
    sp = affine_line(2)
    p = np.array([0.1, 0.2])
    assert lambda_sum(sp, [p], [1.0]) is p
    with pytest.raises(WeightError):
        lambda_sum(sp, [], [])


def test_lambda_sum_matches_convex_combination():
    rng = np.random.default_rng(61)
    sp = affine_line(2)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        raw = rng.uniform(0.1, 1.0, size=k)
        weights = raw / raw.sum()
        pts = [rng.uniform(-1.0, 1.0, size=2) for _ in range(k)]
        assert _bits(lambda_sum(sp, pts, [float(v) for v in weights])) == _bits(convex_combination(sp, pts, weights))


def test_contraction_endpoints():
    c = straight_line_contraction()
    assert c.gamma(0.8, 0.0) == 0.8
    assert c.gamma(0.8, 1.0) == 0.0
    assert c.star == 0.0

    star = np.array([1.0, -1.0])
    c2 = straight_line_contraction(star)
    z = np.array([0.25, 0.5])
    assert c2.gamma(z, 0.0) is z
    assert c2.gamma(z, 1.0) is star


def test_renormalised_weights_are_divided_by_the_exact_sum():
    # the sum is correctly rounded, so it is the float nearest the exact
    # rational sum whatever the length or order of the weights
    rng = np.random.default_rng(67)
    atol = 1e-9  # WEIGHT_ATOL
    for n in range(1, 301):
        for scale in (1.0, 1.0 - 0.999 * atol, 1.0 + 0.999 * atol, 1.0 + 3e-10):
            w = rng.uniform(0.0, 1.0, size=n)
            w[rng.uniform(size=n) < 0.2] = 0.0
            w[rng.uniform(size=n) < 0.1] = -0.0
            tiny = rng.uniform(size=n) < 0.2
            w[tiny] = rng.uniform(0.1e-9, 2e-9, size=int(tiny.sum()))
            if not w.any():
                w[0] = 1.0
            w = (w / np.sum(w) * scale).tolist()
            s = float(sum(map(Fraction, w)))
            if abs(s - 1.0) > atol:
                with pytest.raises(WeightError):
                    _clean_weights(w)
                continue
            assert _bits(_clean_weights(w)) == _bits([v / s for v in w]), n


@pytest.mark.parametrize("weights", [(math.inf, -math.inf), (1e308, 1e308), (0.5, math.nan), (math.nan, 1.0)])
def test_weights_without_a_finite_sum_are_a_weight_error(weights):
    with pytest.raises(WeightError):
        lambda_sum(affine_line(1), [0.0, 1.0], weights)


def _warped_reference(x: float, y: float, t: float) -> float:
    def h(u):
        return u * u * u + u

    w = (1.0 - t) * h(x) + t * h(y)
    s = math.sqrt(0.25 * w * w + 1.0 / 27.0)
    u = float(np.cbrt(0.5 * w + s) + np.cbrt(0.5 * w - s))
    for _ in range(2):
        u -= (u * u * u + u - w) / (3.0 * u * u + 1.0)
    return u


def test_warped_connect_matches_the_numpy_cbrt_formula():
    # numpy's cbrt may run a SIMD kernel whose last bit differs from
    # math.cbrt's; the warped connector keeps numpy's, bit for bit
    rng = np.random.default_rng(71)
    wl = warped_line()
    xs = rng.uniform(-3.0, 3.0, size=10_000)
    ys = rng.uniform(-3.0, 3.0, size=10_000)
    ts = rng.uniform(1e-6, 1.0 - 1e-6, size=10_000)
    for x, y, t in zip(xs.tolist(), ys.tolist(), ts.tolist()):
        assert wl.connect(x, y, t) == _warped_reference(x, y, t), (x, y, t)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("d", [1e-200, 1e200])
def test_affine_metric_neither_underflows_nor_overflows(dim, d):
    # the metric tail gaps are measured in
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if dim == 1:
            assert _norm_metric(0.0, d) == d
            assert _norm_metric(np.array([d]), np.zeros(1)) == d
        else:
            assert _norm_metric((0.0, 0.0), (d, 0.0)) == d
            assert _norm_metric(np.zeros(2), np.array([0.0, -d])) == d
            assert _norm_metric((0.0, 0.0), (d, d)) == pytest.approx(d * math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize(
    "x", [np.array(0.5), np.float32(0.5), np.int64(0), np.float64(0.5)], ids=["0d_array", "float32", "int64", "float64"]
)
def test_numpy_scalars_are_one_coordinate(x):
    sp = affine_space(0.0, 1.0)
    assert convex_combination(sp, [x, 1.0], [0.5, 0.5]) == pytest.approx(0.5 * float(x) + 0.5)
    assert _norm_metric(x, 1.0) == pytest.approx(1.0 - float(x))
