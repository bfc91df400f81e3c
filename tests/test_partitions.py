"""Anchored partition schemes, dense picks, covers, and convergence checks."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from equiblend import partitions
from equiblend.connectors import affine_line, convex_combination
from equiblend.operators import PartitionViolationError, SectionedFunction, lambda_blend, piecewise_anchor
from equiblend.partitions import (
    AnchoredScheme,
    AnchoringError,
    CoverCellPartition,
    CoverError,
    DenseSetError,
    FamilyError,
    SupportBox,
    disjointify,
    dyadic_dense,
    grid_scheme,
    pointwise_finiteness,
    sorgenfrey_scheme,
    verify_anchoring,
)


# ---------------------------------------------------------------- SupportBox


def test_interval_edge_membership():
    half = SupportBox.interval(0.0, 1.0, closed_lo=True, closed_hi=False)
    assert half.contains(0.0)
    assert half.contains(0.999999)
    assert not half.contains(1.0)
    assert not half.contains(-1e-12)

    closed = SupportBox.interval(-0.5, 0.5)
    assert closed.contains(0.5)
    assert closed.contains(-0.5)
    # nan fails every comparison, so it lies in no interval
    assert not closed.contains(float("nan"))
    assert not SupportBox.interval(float("-inf"), float("inf")).contains(np.float64("nan"))
    # adversarial floats on a dyadic and a non-dyadic interval, every pair of
    # end flags: each face and its 1-ulp neighbours, -0.0 at a 0.0 face, the
    # infinities, nan and the least subnormal; finite points are checked
    # against exact rational comparisons
    for lo, hi in ((0.0, 1.0), (0.1, 0.7)):
        points = [v for face in (lo, hi) for v in (math.nextafter(face, -math.inf), face, math.nextafter(face, math.inf))]
        points += [-0.0, math.inf, -math.inf, math.nan, 5e-324]
        for closed_lo, closed_hi in itertools.product((True, False), repeat=2):
            interval = SupportBox.interval(lo, hi, closed_lo, closed_hi)
            for v in points:
                expected = False
                if math.isfinite(v):
                    a, b, q = Fraction(lo), Fraction(hi), Fraction(v)
                    expected = a < q < b or (q == a and closed_lo) or (q == b and closed_hi)
                assert interval.contains(v) is expected, (lo, hi, closed_lo, closed_hi, v)


# ---------------------------------------------------------------- dense sets


def test_dyadic_pick_is_coarsest():
    d = dyadic_dense()
    assert d.pick((SupportBox.interval(0.3, 0.4),)) == 0.375
    assert d.pick((SupportBox.interval(0.0, 1.0, closed_hi=False),)) == 0.0
    assert d.pick((SupportBox.interval(0.5, 0.75, closed_hi=False),)) == 0.5
    assert d.pick((SupportBox.interval(0.5, 0.75, closed_lo=False),)) == 0.75
    # a region of several axes picks on each and gives a tuple
    assert d.pick((SupportBox.interval(0.3, 0.4), SupportBox.interval(0.5, 0.75, closed_lo=False))) == (0.375, 0.75)


def test_dyadic_pick_succeeds_on_float_singleton():
    # every float is a dyadic rational, so a closed degenerate window still
    # has a pick: the point itself
    d = dyadic_dense()
    assert d.pick((SupportBox.interval(0.1, 0.1),)) == 0.1


def test_dyadic_pick_fails_on_empty_window():
    d = dyadic_dense()
    with pytest.raises(DenseSetError):
        d.pick((SupportBox.interval(0.1, 0.1, closed_hi=False),))
    with pytest.raises(DenseSetError):
        d.pick((SupportBox.interval(0.3, 0.4), SupportBox.interval(0.1, 0.1, closed_hi=False)))


# ---------------------------------------------------------------- grid scheme


def test_grid_partition_of_unity():
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        scheme = grid_scheme(dim, box=(0.0, 1.0), n_max=8)
        for n in (1, 2, 3, 5, 8):
            fam = scheme.family(n)
            for _ in range(40):
                x = rng.uniform(0.0, 1.0, size=dim)
                total = fam.partition_sum(x)
                assert abs(total - 1.0) <= 1e-12
                assert len(fam.active_keys(x)) <= 2 ** dim
    # adversarial floats: every node and its 1-ulp neighbours inside the box,
    # on non-dyadic meshes; dims 2 and 3 pair them against the reversed and
    # the rotated list so every coordinate sits at a node edge
    for dim, ns in ((1, (3, 7, 10, 49, 199)), (2, (3, 7, 10, 49, 199)), (3, (3, 7))):
        scheme = grid_scheme(dim, box=(-1.0, 1.0), n_max=max(ns))
        for n in ns:
            fam = scheme.family(n)
            nodes = [-1.0 + j / n for j in range(2 * n + 1)]
            coords = [v for c in nodes for v in (np.nextafter(c, -2.0), c, np.nextafter(c, 2.0)) if -1.0 <= v <= 1.0]
            axes = (coords, coords[::-1], coords[1:] + coords[:1])[:dim]
            points = coords if dim == 1 else [np.array(p) for p in zip(*axes)]
            for x in points:
                weights = [w for _, w in fam.weights_at(x)]  # what partition_sum adds up
                assert abs(sum(weights) - 1.0) <= 1e-12
                assert len(weights) <= 2 ** dim


def test_grid_supports_cover_without_slack():
    scheme = grid_scheme(1, box=(0.0, 1.0), n_max=4)
    fam = scheme.family(4)
    # supports touching the top face clamp closed there, so the corner point
    # sits in the last two supports but all its weight rides the top node
    assert fam.weights_at(1.0) == [((3,), 0.0), ((4,), 1.0)]
    # interior mesh edges stay right-open: one-sided membership only
    assert fam.interval(1).contains(0.25)
    assert not fam.interval(1).contains(0.5)
    # just outside the box nothing is active
    assert fam.active_keys(1.25) == []
    assert fam.weights_at(1.25) == []


@pytest.mark.parametrize("x", [(0.3, 0.55), (0.3, 0.55, 0.125)], ids=["dim2", "dim3"])
def test_weights_at_makes_at_most_four_interval_tests_per_axis(monkeypatch, x):
    # a lookup tests each axis's candidate intervals, never a whole support
    dim = len(x)
    fam = grid_scheme(dim, box=(0.0, 1.0), n_max=8).family(8)
    tested = []
    contains = SupportBox.contains
    monkeypatch.setattr(SupportBox, "contains", lambda interval, v: tested.append(v) or contains(interval, v))
    weights = fam.weights_at(x)
    assert 0 < len(tested) <= 4 * dim  # a test per candidate key took 4^dim
    assert set(tested) <= set(x)  # each test is of one coordinate
    monkeypatch.undo()
    full_scan = [k for k in _keys(fam) if _in_support(fam, k, x)]
    assert [k for k, _ in weights] == full_scan
    assert [w.hex() for _, w in weights] == [_bump_value(0.0, 8, k, x).hex() for k in full_scan]


def test_grid_full_box_support_at_level_one():
    # with one mesh cell the interior node's support is the whole box, closed
    scheme = grid_scheme(1, box=(0.0, 1.0), n_max=2)
    sup = scheme.family(1).interval(0)
    assert sup.lo == 0.0
    assert sup.hi == 1.0
    assert sup.closed_lo is True
    assert sup.closed_hi is True


def test_grid_anchor_hits_dyadic_nodes():
    scheme = grid_scheme(1, box=(-1.0, 1.0), n_max=8)
    # power-of-two meshes put every node in the dense set, so the pick is the
    # node itself
    for n in (1, 2, 4, 8):
        for key in _keys(scheme.family(n)):
            node = -1.0 + key[0] / n
            assert scheme.anchor(n, key) == node
    # a non-dyadic mesh still anchors within half a cell
    for key in _keys(scheme.family(3)):
        node = -1.0 + key[0] / 3
        assert abs(scheme.anchor(3, key) - node) <= 0.5 / 3 + 1e-15


def test_grid_rejects_fractional_side():
    with pytest.raises(ValueError):
        grid_scheme(1, box=(0.0, 1.5))


def test_grid_level_bounds_and_cache():
    scheme = grid_scheme(1, box=(0.0, 1.0), n_max=4)
    with pytest.raises(ValueError):
        scheme.family(0)
    with pytest.raises(ValueError):
        scheme.family(5)
    assert scheme.family(3) is scheme.family(3)


# ---------------------------------------------------------- sorgenfrey scheme


def test_sorgenfrey_tiles_partition_exactly():
    rng = np.random.default_rng(17)
    scheme = sorgenfrey_scheme(n_max=8)
    for n in (1, 2, 5, 8):
        fam = scheme.family(n)
        for _ in range(50):
            x = float(rng.uniform(0.0, 1.0))
            active = fam.active_keys(x)
            assert len(active) == 1
            assert fam.partition_sum(x) == 1.0
            (i,) = active[0]
            assert (i - 1) / n <= x < i / n


def test_sorgenfrey_anchor_sits_ahead_of_its_tile():
    scheme = sorgenfrey_scheme(n_max=8)
    for n in (1, 2, 4, 8):
        fam = scheme.family(n)
        for (i,) in _keys(fam):
            anchor = scheme.anchor(n, (i,))
            # the pick window [i/n, (i+1)/n) starts at a dyadic point, so the
            # anchor is the tile's excluded right endpoint, exactly
            assert anchor == i / n
            sup = fam.interval(i)
            assert sup.hi == anchor
            assert not sup.contains(anchor)


def test_sorgenfrey_anchoring_tail():
    rng = np.random.default_rng(23)
    scheme = sorgenfrey_scheme(n_max=16)
    for _ in range(50):
        x = float(rng.uniform(0.05, 0.9))
        radius = float(rng.uniform(0.2, 0.8))
        n0 = verify_anchoring(scheme, x, radius)
        assert n0 <= math.ceil(2.0 / radius) + 1


def test_anchoring_error_when_radius_too_tight():
    scheme = sorgenfrey_scheme(n_max=2)
    # with only two levels a tiny forward window cannot capture the anchors
    with pytest.raises(AnchoringError):
        verify_anchoring(scheme, 0.3, 0.01)


def test_pointwise_finiteness_bound():
    grid = grid_scheme(2, box=(0.0, 1.0), n_max=4)
    fams = [grid.family(n) for n in (1, 2, 3, 4)]
    worst = pointwise_finiteness(fams, np.array([0.31, 0.77]))
    assert 1 <= worst <= 4


# ------------------------------------------------- candidate lookup, anchors


def _edge_coords(lo: float, hi: float, n: int) -> list:
    """Nodes and their 1-ulp neighbours, the box faces and points outside."""
    nodes = [lo + j / n for j in range(round((hi - lo) * n) + 1)]
    near = [v for c in nodes for v in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))]
    return near + [lo - 0.5, hi + 0.5, -np.inf, np.inf]


def _keys(fam):
    """Every key of a family, in key order: the full-scan oracles' walk."""
    return itertools.product(*fam.index_keys.axes)


def _in_support(fam, key, x) -> bool:
    """The reference support test: key's interval on each axis holds x's
    coordinate there, and x has one coordinate per axis."""
    coords = [float(v) for v in np.ravel(x)]
    return len(coords) == len(key) and all(fam.interval(j).contains(v) for j, v in zip(key, coords))


def _bump_value(lo, n: int, key, x) -> float:
    """The bump value written out: a grid tent over a box from ``lo`` is
    1.0 times each axis's tent factor, in axis order; a Sorgenfrey tile
    (``lo`` None) is 1.0."""
    value = 1.0
    if lo is not None:
        for v, j in zip((float(v) for v in np.ravel(x)), key):
            value *= max(0.0, 1.0 - n * abs(v - (lo + j / n)))
    return value


def _lookup_cases():
    for dim, ns in ((1, (3, 7, 10, 49)), (2, (3, 7)), (3, (3,))):
        scheme = grid_scheme(dim, box=(-1.0, 2.0), n_max=max(ns))
        for n in ns:
            coords = _edge_coords(-1.0, 2.0, n)
            if dim == 1:
                points = coords
            else:
                axes = (coords, coords[::-1], coords[1:] + coords[:1])[:dim]
                points = [np.array(p) for p in zip(*axes)]
                points += [np.array([v] + [0.5] * (dim - 1)) for v in coords]
            yield scheme, n, [*points, float("nan"), np.full(dim, np.nan)]
    scheme = sorgenfrey_scheme(n_max=1024, domain=(-0.5, 1.0))
    for n in (1, 3, 7, 10, 1024):
        edges = {*range(-n - 2, n + 3, 1 + n // 16), n // 2 - 1, n, n + 1, n + 2}  # sparse on the finest mesh
        coords = [v for i in sorted(edges) for v in (np.nextafter(i / n, -np.inf), i / n, np.nextafter(i / n, np.inf))]
        yield scheme, n, [*coords, -5.0, 5.0, float("nan"), np.array([0.25])]


def test_candidate_lookup_matches_the_full_scan():
    # the index-arithmetic lookup against every key's support, and the
    # scheme's cell lookup against the disjointified cover of its support predicates
    for scheme, n, points in _lookup_cases():
        fam = scheme.family(n)
        cells = disjointify(fam.index_keys, fam.active_keys)
        chain = disjointify([(k, partial(_in_support, fam, k)) for k in _keys(fam)])
        for x in points:
            assert fam.active_keys(x) == [k for k in _keys(fam) if _in_support(fam, k, x)]
            if len(fam.index_keys) > 500:
                continue  # the predicate cover costs O(#keys) per point
            try:
                expected = chain.cell_of(x)
            except CoverError:
                with pytest.raises(CoverError):
                    cells.cell_of(x)
            else:
                assert cells.cell_of(x) == expected


def test_weights_at_is_the_tent_product_bit_for_bit():
    for scheme, n, points in _lookup_cases():
        fam = scheme.family(n)
        lo = None if scheme.space_kind == "sorgenfrey" else -1.0
        for x in points:
            weights = fam.weights_at(x)
            assert [k for k, _ in weights] == fam.active_keys(x)
            assert [w.hex() for _, w in weights] == [_bump_value(lo, n, k, x).hex() for k, _ in weights], (n, x)


def test_a_blend_term_weighs_each_axis_hit_once(monkeypatch):
    # a term tests at most 4 candidate intervals per axis, at most 2 of which
    # hold the coordinate, and weighs each of those hits once
    calls = {"contains": 0, "weight": 0}
    contains = SupportBox.contains

    def counted_contains(interval, v):
        calls["contains"] += 1
        return contains(interval, v)

    monkeypatch.setattr(SupportBox, "contains", counted_contains)
    f = SectionedFunction(lambda a, y: 0.5)
    most = {}
    for scheme, n, points in _lookup_cases():
        fam = scheme.family(n)
        dim = len(fam.index_keys.axes)

        def counted_weight(j, v, weight=fam.weight):
            calls["weight"] += 1
            return weight(j, v)

        monkeypatch.setattr(fam, "weight", counted_weight)
        term = lambda_blend(f, scheme, affine_line(), n)
        for x in points:
            calls.update(contains=0, weight=0)
            try:
                term(x, 0.25)
            except PartitionViolationError:
                pass
            assert calls["contains"] <= 4 * dim and calls["weight"] <= 2 * dim, (n, x, calls)
            most[scheme.space_kind, dim] = max(most.get((scheme.space_kind, dim), 0), calls["weight"])
    # inside a grid every axis has two hits, so the bound is reached
    assert most == {("euclidean_grid", 1): 2, ("euclidean_grid", 2): 4, ("euclidean_grid", 3): 6, ("sorgenfrey", 1): 1}


def test_a_blend_term_is_the_convex_combination_of_its_live_anchor_sections():
    # lambda_sum only renormalises the bump values, so at the adversarial
    # lookup points a term must carry the bits of the validated fold
    z_space = affine_line()
    f = SectionedFunction(lambda a, y: math.sin(3.0 * math.fsum(np.atleast_1d(a))) + y)
    y = 0.375
    for scheme, n, points in _lookup_cases():
        family, anchors = scheme.level(n)
        term = lambda_blend(f, scheme, z_space, n)
        for x in points:
            live = [(k, w) for k, w in family.weights_at(x) if w > 0.0]
            if not live:
                with pytest.raises(PartitionViolationError):
                    term(x, y)
                continue
            expected = convex_combination(z_space, [f.eval(anchors(k), y) for k, _ in live], [w for _, w in live])
            assert np.float64(term(x, y)).tobytes() == np.float64(expected).tobytes(), (n, x)


def _key_views():
    for dim in (1, 2, 3):
        yield grid_scheme(dim, box=(-1.0, 1.0), n_max=3).family(3).index_keys
    yield sorgenfrey_scheme(n_max=7, domain=(-0.5, 1.0)).family(7).index_keys


@pytest.mark.parametrize("view", _key_views(), ids=["grid1", "grid2", "grid3", "sorgenfrey"])
def test_level_keys_are_a_view_of_the_axis_product(view):
    keys = tuple(itertools.product(*view.axes))
    assert len(view) == len(keys)
    with pytest.raises(TypeError):  # a level's keys are never listed
        iter(view)
    assert all(key in view for key in keys)
    first, last = keys[0], keys[-1]
    dim = len(first)
    below = [first[:i] + (first[i] - 1,) + first[i + 1 :] for i in range(dim)]
    above = [last[:i] + (last[i] + 1,) + last[i + 1 :] for i in range(dim)]
    # axis 0 holds 1 on every level here, so only the coordinate type is wrong
    typed = [(1.0,), (True,), (1.0,) + first[1:], (True,) + first[1:], 1]
    for foreign in [*below, *above, first + first[:1], first[:-1], *typed]:
        assert foreign not in view


def test_a_fine_level_and_its_cells_build_nothing_per_key(monkeypatch):
    # a dim-2 n = 256 level has 263,169 keys; a per-key tuple or closure
    # would take tens of MB
    picks = _counted_picks(monkeypatch)
    f = SectionedFunction(lambda x, y: 0.5)
    tracemalloc.start()
    try:
        scheme = grid_scheme(2, box=(-1.0, 1.0), n_max=256)
        value = piecewise_anchor(f, scheme, 256)((0.3, -0.21), 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0.5
    assert len(scheme.family(256).index_keys) == 513**2
    assert peak < 1 << 20
    assert len(picks) <= 2**2


def test_a_long_grid_level_stores_no_nodes():
    # side * n + 1 = 256,001 nodes at n = 256; a stored node list took 8 MB
    f = SectionedFunction(lambda x, y: 0.5)
    tracemalloc.start()
    try:
        scheme = grid_scheme(1, box=(0.0, 1000.0), n_max=256)
        value = lambda_blend(f, scheme, affine_line(1), 256)(500.3, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0.5
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", ["grid", "sorgenfrey"])
def test_a_level_builds_each_interval_once(monkeypatch, kind):
    scheme, x = (grid_scheme(2, box=(0.0, 1.0), n_max=8), (0.3, 0.55)) if kind == "grid" else (sorgenfrey_scheme(n_max=8), 0.3)
    fam = scheme.family(8)
    assert fam.interval(3) is fam.interval(3)
    weights = fam.weights_at(x)
    key = weights[0][0]
    support = [fam.interval(j) for j in key]
    built = []
    init = SupportBox.__init__
    monkeypatch.setattr(SupportBox, "__init__", lambda interval, *args: built.append(args) or init(interval, *args))
    for _ in range(3):
        assert fam.weights_at(x) == weights
        assert fam.active_keys(x) == [k for k, _ in weights]
    # a support's intervals are the level's kept ones
    assert all(fam.interval(j) is side for j, side in zip(key, support))
    assert built == []


def test_nan_lies_in_no_support():
    fam = grid_scheme(2, box=(0.0, 1.0), n_max=8).family(8)
    for x in (np.array([np.nan, 0.5]), np.array([0.5, np.nan])):
        assert [k for k in _keys(fam) if _in_support(fam, k, x)] == []
        assert fam.active_keys(x) == []
    # the other coordinate alone lies in some interval
    assert any(fam.interval(j).contains(0.5) for j in fam.index_keys.axes[0])



def test_numpy_scalar_points_weigh_like_floats():
    fam = grid_scheme(1, box=(0.0, 1.0), n_max=8).family(8)
    expected = fam.weights_at(0.3)
    for x in (np.array(0.3), np.float64(0.3)):
        assert fam.weights_at(x) == expected
    assert fam.active_keys(np.float32(0.25)) == fam.active_keys(float(np.float32(0.25)))
    (j,) = fam.active_keys(0.25)[0]
    assert fam.interval(j).contains(np.array(0.25)) and fam.interval(j).contains(np.float64(0.25))

def _counted_picks(monkeypatch) -> list:
    picks = []
    dyadic = partitions.dyadic_dense

    def counted():
        dense = dyadic()
        return dataclasses.replace(dense, pick=lambda region: picks.append(region) or dense.pick(region))

    monkeypatch.setattr(partitions, "dyadic_dense", counted)
    return picks


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_blend_term_picks_only_the_anchors_it_reads(monkeypatch, dim):
    picks = _counted_picks(monkeypatch)
    scheme = grid_scheme(dim, box=(-1.0, 1.0), n_max=16)
    f = SectionedFunction(lambda x, y: 0.5)
    x = np.array([0.3, -0.21, 0.05][:dim]) if dim > 1 else 0.3
    for n in (1, 7, 16):
        before = len(picks)
        term = lambda_blend(f, scheme, affine_line(1), n)
        term(x, 0.0)
        assert len(picks) - before <= 2 * dim
        after = len(picks)
        term(x, 0.0)
        assert len(picks) == after


def test_lazy_anchors_equal_the_eager_picks(monkeypatch):
    picks = _counted_picks(monkeypatch)
    dense = dyadic_dense()
    for dim, n in ((1, 7), (2, 3)):
        scheme = grid_scheme(dim, box=(-1.0, 1.0), n_max=8)
        eager = {}
        for key in _keys(scheme.family(n)):
            node = [-1.0 + j / n for j in key]
            region = tuple(SupportBox.interval(max(c - 0.5 / n, -1.0), min(c + 0.5 / n, 1.0)) for c in node)
            eager[key] = dense.pick(region)
        picked = len(picks)
        lazy = {key: scheme.anchor(n, key) for key in _keys(scheme.family(n))}
        read = {j for key in eager for j in key}  # one pick per distinct axis index read
        assert len(picks) - picked == len(read)
        assert list(lazy) == list(eager)
        assert all(np.asarray(lazy[k]).tobytes() == np.asarray(eager[k]).tobytes() for k in eager)
        assert {key: scheme.anchor(n, key) for key in lazy} == lazy  # picked once, then kept
        assert len(picks) - picked == len(read)
        for foreign in ((2 * n + 1,) * dim, (-1,) * dim, (0,) * (dim + 1)):
            with pytest.raises(KeyError):
                scheme.anchor(n, foreign)
    scheme = sorgenfrey_scheme(n_max=8)
    for n in (3, 8):
        anchors = {key: scheme.anchor(n, key) for key in _keys(scheme.family(n))}
        assert anchors == {key: dense.pick((SupportBox.interval(key[0] / n, (key[0] + 1) / n, closed_hi=False),)) for key in _keys(scheme.family(n))}
        with pytest.raises(KeyError):
            scheme.anchor(n, (n + 2,))


def _node_box(lo: float, hi: float, n: int, key: tuple) -> tuple:
    """A key's anchor region when each key made its own pick: the closed box
    of radius 1/(2n) around its node, clipped to the grid's box."""
    r = 0.5 / n
    return tuple(SupportBox.interval(max(c - r, lo), min(c + r, hi)) for c in (lo + j / n for j in key))


def _bits(anchor) -> tuple:
    return tuple(map(float.hex, anchor)) if isinstance(anchor, tuple) else ("bare", float.hex(anchor))


@pytest.mark.parametrize("box", [(-1.0, 1.0), (0.1, 1.1)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_per_axis_anchors_equal_the_per_key_picks(monkeypatch, dim, box):
    # a key's anchor, assembled from per-axis picks, has the bits of the
    # dense set's pick inside the key's whole node box, at dyadic and
    # non-dyadic n, for keys on and next to the box's faces and for the keys
    # active at each of their nodes and 1 ulp either side
    picks = _counted_picks(monkeypatch)
    dense = dyadic_dense()
    lo, hi = box
    scheme = grid_scheme(dim, box, n_max=3**5)
    for n in (1, 3, 7, 16, 3**5):
        count = round(hi - lo) * n
        faces = sorted({0, 1, count // 2, count - 1, count})
        coords = sorted({v for c in (lo + j / n for j in faces) for v in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)) if lo <= v <= hi})
        keys = dict.fromkeys(itertools.product(faces, repeat=dim))
        for x in itertools.product(coords, repeat=dim):
            keys.update(dict.fromkeys(scheme.family(n).active_keys(x if dim > 1 else x[0])))
        before = len(picks)
        for key in keys:
            assert _bits(scheme.anchor(n, key)) == _bits(dense.pick(_node_box(lo, hi, n, key))), (n, key)
        # each axis index read is picked once, whichever axis and key read it
        read = {j for key in keys for j in key}
        assert len(picks) - before == len(read)
        assert len({(region[0].lo, region[0].hi) for region in picks[before:]}) == len(read)
        assert all(len(region) == 1 for region in picks[before:])


@pytest.mark.parametrize("kind", ["grid", "sorgenfrey"])
def test_a_level_build_wraps_nothing_and_a_second_probe_builds_nothing(monkeypatch, kind):
    # a level build makes no function wrapper, interval or pick; a probe
    # in cells already read builds no interval and picks nothing
    picks = _counted_picks(monkeypatch)
    scheme = grid_scheme(2, box=(0.0, 1.0), n_max=8) if kind == "grid" else sorgenfrey_scheme(n_max=8)
    first, second = ((0.3, 0.55), (0.31, 0.56)) if kind == "grid" else (0.3, 0.32)
    wrapped, built = [], []
    update_wrapper, init = functools.update_wrapper, SupportBox.__init__
    monkeypatch.setattr(functools, "update_wrapper", lambda *args, **kwargs: wrapped.append(args) or update_wrapper(*args, **kwargs))
    monkeypatch.setattr(SupportBox, "__init__", lambda interval, *args: built.append(args) or init(interval, *args))
    for n in (1, 5, 8):
        scheme.level(n)
    assert (wrapped, built, picks) == ([], [], [])
    f = SectionedFunction(lambda x, y: 0.5)
    terms = [lambda_blend(f, scheme, affine_line(1), 8), piecewise_anchor(f, scheme, 8)]
    for term in terms:
        term(first, 0.0)
    assert built and picks
    assert scheme.family(8).active_keys(first) == scheme.family(8).active_keys(second)
    built.clear()
    picks.clear()
    for term in terms:
        term(second, 0.0)
    assert (wrapped, built, picks) == ([], [], [])


def test_bools_are_not_keys():
    # (True, True) equals and hashes like the picked key (1, 1), yet no
    # level holds it, whatever was picked before
    scheme = grid_scheme(2, box=(-1.0, 1.0), n_max=4)
    for _ in range(2):
        for foreign in ((True, True), (1, True), True):
            with pytest.raises(FamilyError):
                scheme.anchor(4, foreign)
        scheme.anchor(4, (1, 1))


# ------------------------------------------------------------------- covers


def test_disjointify_assigns_first_containing_cell():
    cells = [
        (1, SupportBox.interval(0.0, 0.6).contains),
        (2, SupportBox.interval(0.4, 1.0).contains),
    ]
    part = disjointify(cells)
    assert part.cell_of(0.5) == (1,)
    assert part.cell_of(0.7) == (2,)
    assert [key for key, _ in part.cells] == [(1,), (2,)]
    with pytest.raises(CoverError):
        part.cell_of(1.5)


def test_disjointify_decides_emptiness_without_counting_keys():
    # a dim-2 level at n = 2**32 holds more keys than len() can count
    for empty in ([], partitions._KeyView((range(3), range(0)))):
        with pytest.raises(CoverError, match="empty"):
            disjointify(empty, lambda x: [])
    family = grid_scheme(2, box=(-1.0, 1.0), n_max=2**32).family(2**32)
    assert disjointify(family.index_keys, family.active_keys).cell_of((0.25, 0.5)) == (5 * 2**30, 6 * 2**30)


def test_a_level_cover_does_not_list_its_cells():
    # a level's keys may outnumber memory, so its cover answers cell_of only;
    # a cover given as (key, predicate) pairs still lists its cells
    family = grid_scheme(1, box=(0.0, 1.0), n_max=4).family(4)
    level = disjointify(family.index_keys, family.active_keys)
    with pytest.raises(CoverError, match="cells are not listed.*use cell_of"):
        level.cells
    assert level.cell_of(0.3) == (1,)
    halves = disjointify([(0, SupportBox.interval(0.0, 0.5).contains), (1, SupportBox.interval(0.0, 1.0).contains)])
    assert [(key, member(0.25), member(0.75)) for key, member in halves.cells] == [((0,), True, False), ((1,), False, True)]


def test_disjointify_random_covers():
    rng = np.random.default_rng(31)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        cells = []
        for j in range(k):
            lo = float(rng.uniform(0.0, 0.8))
            hi = lo + float(rng.uniform(0.05, 0.4))
            cells.append((j, SupportBox.interval(lo, hi).contains))
        cells.append((k, SupportBox.interval(0.0, 1.2).contains))  # catch-all
        part = disjointify(cells)
        for _ in range(50):
            x = float(rng.uniform(0.0, 1.0))
            key = part.cell_of(x)
            expected = next(j for j, member in cells if member(x))
            assert key == (expected,)


# ---------------------------------------------------------------- describe()


def test_describe_reports_scheme_shape():
    g = grid_scheme(2, box=(0.0, 1.0), n_max=4)
    d = g.describe()
    assert d["kind"] == "grid"
    assert d["dim"] == 2
    s = sorgenfrey_scheme(n_max=4)
    assert s.describe()["kind"] == "sorgenfrey"
    assert isinstance(g, AnchoredScheme)
