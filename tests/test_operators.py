"""Approximation operators: blends, anchored pieces, glued limits, tails."""

from __future__ import annotations

import numpy as np
import pytest

from equiblend import operators
from equiblend.connectors import affine_line, affine_space, straight_line_contraction
from equiblend.gallery import dirichlet_tower, half_line_instance, TaggedReal
from equiblend.operators import (
    TARGET_LEVELS,
    AmbiguousCell,
    BaireTower,
    DiscretenessError,
    GlueBump,
    PartitionViolationError,
    SectionedFunction,
    TailReport,
    ambiguous_limit,
    ambiguous_target,
    contractible_glue,
    lambda_blend,
    piecewise_anchor,
    tail_check,
    tower_tail,
)
from equiblend.partitions import SupportBox, grid_scheme, sorgenfrey_scheme


# ----------------------------------------------------------------- towers


def test_tower_depth_validation():
    for depth in (-1, 1.5, True):
        with pytest.raises(ValueError):
            BaireTower(depth=depth, limit_eval=lambda y: 0.0, tower=lambda n: None)
    with pytest.raises(ValueError):
        BaireTower(depth=1, limit_eval=lambda y: 0.0)  # depth>0 needs stages
    with pytest.raises(ValueError):
        BaireTower(depth=0, limit_eval=lambda y: 0.0, tower=lambda n: None)
    # any finite depth: stage n of this depth-3 tower is the depth-2
    # Dirichlet tower, whose limit is the tower's own, so every level is exact
    stage = dirichlet_tower()
    tower = BaireTower(depth=3, limit_eval=stage.limit_eval, tower=lambda n: stage)
    for y, value in ((TaggedReal.rational(2, 3), 1.0), (TaggedReal.irrational(2.0**0.5), 0.0)):
        report = tower_tail(tower, y, schedule=(1, 2, 4, 8), eps=0.0)
        assert report.passed
        assert report.target == value
        assert report.terms == (value,) * 4


def test_tail_check_windows():
    # the last TAIL_K = 3 values decide
    passed, gaps, final = tail_check((0.0, 0.0, 1.0, 1.0, 1.0), 1.0, eps=0.0)
    assert passed
    assert final == 0.0
    assert gaps[-3:] == (0.0, 0.0, 0.0)
    short, _, _ = tail_check((1.0,), 1.0, eps=1.0)
    assert not short
    drift, _, _ = tail_check((0.0, 1.0, 0.9), 1.0, eps=1e-3)
    assert not drift


def test_tower_tail_on_fading_stages():
    tower = BaireTower(
        depth=1,
        limit_eval=lambda y: float(y),
        tower=lambda n: BaireTower(depth=0, limit_eval=lambda y, n=n: float(y) * (1.0 - 2.0 ** -n)),
    )
    report = tower_tail(tower, 0.8, schedule=(1, 2, 4, 8, 16, 32, 64), eps=1e-3)
    assert isinstance(report, TailReport)
    assert report.passed
    assert report.target == 0.8
    assert report.final_gap <= 0.8 * 2.0 ** -64 + 1e-18
    with pytest.raises(ValueError):
        tower_tail(BaireTower(depth=0, limit_eval=lambda y: 0.0), 0.8, schedule=(1, 2), eps=1.0)


def test_tower_tail_on_tag_indicator_tower():
    t = dirichlet_tower()
    sched = (1, 2, 4, 8, 16, 32)
    rep = tower_tail(t, TaggedReal.rational(1, 2), schedule=sched, eps=0.0)
    assert rep.passed
    assert rep.target == 1.0
    assert rep.terms[-1] == 1.0
    rep2 = tower_tail(t, TaggedReal.irrational(2.0 ** 0.5), schedule=sched, eps=0.0)
    assert rep2.passed
    assert rep2.target == 0.0
    assert all(v == 0.0 for v in rep2.terms)


# ------------------------------------------------------------- sectioned fns


def test_sectioned_function_from_callable():
    f = SectionedFunction(lambda x, y: float(x) + float(y))
    assert f.eval(1.0, 2.0) == 3.0
    assert f.anchor_regularity is None


# -------------------------------------------------------------- lambda blend


def test_blend_of_constant_function_is_exact():
    f = SectionedFunction(lambda x, y: 0.5)
    scheme = grid_scheme(1, box=(0.0, 1.0), n_max=4)
    z = affine_space(0.0, 1.0)
    for n in (1, 2, 3, 4):
        term = lambda_blend(f, scheme, z, n)
        assert term(0.3, 9.9) == 0.5


def test_blend_reproduces_linear_sections():
    # f(x, y) = x*y is linear in x, and a two-tent blend with node anchors
    # reproduces linear functions up to float dust
    f = SectionedFunction(lambda x, y: float(x) * float(y))
    scheme = grid_scheme(1, box=(0.0, 1.0), n_max=8)
    z = affine_line(1)
    rng = np.random.default_rng(7)
    for n in (1, 2, 4, 8):
        term = lambda_blend(f, scheme, z, n)
        for _ in range(25):
            x = float(rng.uniform(0.0, 1.0))
            y = float(rng.uniform(-2.0, 2.0))
            assert abs(term(x, y) - x * y) <= 1e-12


def test_blend_outside_every_support_raises():
    f = SectionedFunction(lambda x, y: 0.0)
    scheme = sorgenfrey_scheme(n_max=2, domain=(0.0, 1.0))
    z = affine_line(1)
    term = lambda_blend(f, scheme, z, 2)
    with pytest.raises(PartitionViolationError):
        term(9.0, 0.0)


def test_blend_on_single_tile_equals_anchor_value():
    f = SectionedFunction(lambda x, y: float(x) * 7.0 + float(y))
    scheme = sorgenfrey_scheme(n_max=4, domain=(0.0, 1.0))
    z = affine_line(1)
    term = lambda_blend(f, scheme, z, 4)
    # one active tile with weight one: the blend is the anchored value, bitwise
    x = 0.3
    anchor = scheme.anchor(4, (2,))
    assert term(x, 0.11) == f.eval(anchor, 0.11)


# ---------------------------------------------------------- piecewise anchor


def test_piecewise_anchor_matches_blend_on_half_open_tiles():
    f = SectionedFunction(lambda x, y: float(np.sin(float(x) + float(y))))
    scheme = sorgenfrey_scheme(n_max=8, domain=(0.0, 1.0))
    z = affine_line(1)
    blend = lambda_blend(f, scheme, z, 8)
    anchored = piecewise_anchor(f, scheme, 8)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(-1.0, 1.0))
        assert anchored(x, y) == blend(x, y)


# ------------------------------------------------------------------- gluing


def _one_bump() -> GlueBump:
    return GlueBump(
        phi=lambda x: max(0.0, 1.0 - abs(float(x))),
        section=lambda y: float(y) + 1.0,
        support=SupportBox.interval(-1.0, 1.0, closed_lo=False, closed_hi=False),
    )


def test_glue_outside_supports_is_star():
    c = straight_line_contraction()
    out = contractible_glue(c, [_one_bump()], 5.0, 0.25)
    assert out == 0.0
    assert out is c.star


def test_glue_full_weight_returns_section_value():
    c = straight_line_contraction()
    assert contractible_glue(c, [_one_bump()], 0.0, 0.25) == 1.25


def test_glue_partial_weight_contracts():
    c = straight_line_contraction()
    # phi(0.5) = 0.5, so the section value contracts halfway toward star 0
    assert contractible_glue(c, [_one_bump()], 0.5, 0.25) == pytest.approx(0.625, abs=1e-15)


def test_glue_overlapping_supports_raise():
    c = straight_line_contraction()
    with pytest.raises(DiscretenessError):
        contractible_glue(c, [_one_bump(), _one_bump()], 0.0, 0.25)


def test_glue_rejects_out_of_range_weight():
    c = straight_line_contraction()
    bad = GlueBump(
        phi=lambda x: 1.5,
        section=lambda y: 0.0,
        support=SupportBox.interval(-1.0, 1.0),
    )
    with pytest.raises(ValueError):
        contractible_glue(c, [bad], 0.0, 0.0)


# --------------------------------------------------------- ambiguous limits


def test_two_cell_instance_core_and_star_values():
    inst = half_line_instance()
    term = inst.term(4)
    # the level-4 regions leave a gap [-1/8, -1/16] where the term is the star
    assert term(-0.1, 0.3) == 0.0
    assert term(-0.125, 0.3) == 0.0
    # past the right region's far edge it is the star again
    assert term(7.0, 0.3) == 0.0
    # deep inside the right core the stage value comes through undamped by phi
    v = term(1.0, 0.3)
    assert v == pytest.approx(np.cos(0.3) * (1.0 - 2.0 ** -4), abs=1e-12)
    # the left core is the whole ray below -1/4, so far-left points use it too
    w = term(-1.0, 0.3)
    assert w == pytest.approx(np.sin(0.3) * (1.0 - 2.0 ** -4), abs=1e-12)
    assert term(-2.0, 0.3) == term(-1.0, 0.3)


def test_two_cell_target_selects_cell_limits():
    inst = half_line_instance()
    target = inst.target()
    assert target(2.0, 0.3) == pytest.approx(np.cos(0.3), abs=1e-15)
    assert target(-2.0, 0.3) == pytest.approx(np.sin(0.3), abs=1e-15)


def test_ambiguous_target_cap_violation():
    inst = half_line_instance()
    target = ambiguous_target(inst.cells)
    assert target(-1.0 / TARGET_LEVELS, 0.0) == 0.0  # sin(0) on the left cell
    # x = -1e-4 needs core level n >= 10000, beyond the last level searched
    with pytest.raises(PartitionViolationError):
        target(-1e-4, 0.0)


def _cells_outer_target(cells, n_cap, x, y):
    # reference: every level of one cell before the next cell
    for cell in cells:
        if any(cell.core_region(n).contains(x) for n in range(1, n_cap + 1)):
            return cell.tower.limit_eval(y)
    return None


def test_ambiguous_target_levels_outer_matches_cells_outer(monkeypatch):
    cells = half_line_instance().cells
    n_cap = 64
    monkeypatch.setattr(operators, "TARGET_LEVELS", n_cap)
    target = ambiguous_target(cells)
    edges = [v for n in (1, 2, 3, 7, 64) for v in (np.nextafter(-1.0 / n, -1.0), -1.0 / n, np.nextafter(-1.0 / n, 1.0))]
    xs = [*np.linspace(-3.0, 8.0, 221).tolist(), *edges, -0.0, 0.0, np.nextafter(0.0, -1.0), 5e-324, 8.0, 64.0, 64.5]
    for x in xs:
        expected = _cells_outer_target(cells, n_cap, x, 0.3)
        if expected is None:
            with pytest.raises(PartitionViolationError):
                target(x, 0.3)
        else:
            assert target(x, 0.3) == expected


def test_ambiguous_limit_rejects_region_overlap():
    c = straight_line_contraction()
    tower = BaireTower(
        depth=1,
        limit_eval=lambda y: 0.0,
        tower=lambda n: BaireTower(depth=0, limit_eval=lambda y: 0.0),
    )
    box = SupportBox.interval(-1.0, 1.0)
    cell = AmbiguousCell(
        phi=lambda n, x: 1.0,
        u_region=lambda n: box,
        core_region=lambda n: box,
        tower=tower,
    )
    term = ambiguous_limit(c, (cell, cell), 2)
    with pytest.raises(DiscretenessError):
        term(0.0, 0.0)
