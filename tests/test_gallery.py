"""Worked instances: tagged reals, nested shells, bump sums, fan spikes."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from equiblend.gallery import (
    _dist_supported,
    _enumeration_index,
    _finite_indicator,
    _order,
    CollapsingBump,
    FinSeq,
    GalleryError,
    SequentialPoint,
    TaggedReal,
    ambiguity_gap,
    as_float,
    as_tagged,
    collapsing_instance,
    cosine_bump,
    dirichlet_tower,
    dirichlet_value,
    example1_eval,
    example1_function,
    example2_eval,
    half_line_instance,
    in_core,
    in_open_ball,
    level_ramp,
    nested_indicator,
    rational_enumeration,
    rational_prefix,
    same_real,
    sequential_convergence_probe,
    slice_modulus,
    spike_width,
    truncation_index,
)
from equiblend.operators import tower_tail
from equiblend.partitions import SupportBox


# -------------------------------------------------------------- tagged reals


def test_tagged_real_construction():
    r = TaggedReal.rational(2, 3)
    assert r.kind == "rational"
    assert r.frac == Fraction(2, 3)
    assert r.value == float(Fraction(2, 3))
    i = TaggedReal.irrational(2.0 ** 0.5)
    assert i.kind == "irrational"
    p = TaggedReal.plain(0.25)
    assert p.kind == "plain"
    with pytest.raises(ValueError):
        TaggedReal(value=1.0, kind="weird", frac=None)
    with pytest.raises(ValueError):
        TaggedReal(value=float("nan"), kind="plain", frac=None)


def test_same_real_tag_semantics():
    assert same_real(TaggedReal.rational(1, 2), TaggedReal.rational(2, 4))
    assert not same_real(TaggedReal.rational(1), TaggedReal.irrational(1.0))
    assert same_real(TaggedReal.plain(0.5), TaggedReal.plain(0.5))
    assert same_real(TaggedReal.rational(1, 2), TaggedReal.plain(0.5))


def test_dirichlet_value_reads_the_tag():
    assert dirichlet_value(TaggedReal.rational(22, 7)) == 1.0
    assert dirichlet_value(TaggedReal.irrational(np.pi)) == 0.0
    assert dirichlet_value(TaggedReal.plain(0.5)) == 0.0


def test_as_tagged_coercions():
    assert as_tagged(0.7).kind == "plain"
    t = TaggedReal.irrational(np.e)
    assert as_tagged(t) is t
    assert as_float(t) == np.e
    assert as_float(0.7) == 0.7


# ------------------------------------------------------- rational enumeration


def test_enumeration_prefix_is_frozen():
    want = [
        Fraction(0),
        Fraction(1), Fraction(-1),
        Fraction(1, 2), Fraction(-1, 2),
        Fraction(2), Fraction(-2),
        Fraction(1, 3), Fraction(-1, 3),
        Fraction(3), Fraction(-3),
        Fraction(1, 4), Fraction(-1, 4),
        Fraction(2, 3), Fraction(-2, 3),
        Fraction(3, 2), Fraction(-3, 2),
        Fraction(4), Fraction(-4),
    ]
    assert list(rational_prefix(19)) == want


def test_enumeration_has_no_repeats():
    rats = rational_prefix(500)
    assert len(set(rats)) == 500


def test_enumeration_accessor_tags_each_entry():
    first = rational_enumeration(1)
    assert first.kind == "rational" and first.frac == 0
    fifth = rational_enumeration(5)
    assert fifth.frac == Fraction(-1, 2) and fifth.value == -0.5
    with pytest.raises(ValueError):
        rational_enumeration(0)


def test_finite_indicator_reads_the_enumeration_position():
    # every reduced p/q with |p| + q <= 40 (about 1,000, most beyond position
    # 300) against membership in each prefix; other tags are never members
    fracs = [Fraction(sign * p, s - p) for s in range(1, 41) for p in range(s) if math.gcd(p, s) == 1 for sign in ((1, -1) if p else (1,))]
    rationals = [TaggedReal.rational(f.numerator, f.denominator) for f in fracs]
    others = [TaggedReal.irrational(y.value) for y in rationals] + [TaggedReal.plain(y.value) for y in rationals]
    for n in range(1, 301):
        g = _finite_indicator(n)
        members = set(rational_prefix(n))
        assert [g(y) for y in rationals] == [1.0 if y.frac in members else 0.0 for y in rationals], n
        assert {g(y) for y in others} == {0.0}, n
        assert rational_enumeration(n).frac == rational_prefix(n)[n - 1]
    keys = list(map(_order, rational_prefix(10_000)))
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumeration_index_counts_the_blocks():
    # against the position in a prefix that holds every block up to |p|+q
    # = 60, and, in the spike regime, the level weight at that position
    position = {frac: i for i, frac in enumerate(rational_prefix(60 * 60), start=1)}
    spiky = [FinSeq.from_list([v]) for v in (0.5, -0.7, 0.02, 1e-3)]
    for s in range(1, 61):
        for frac in {Fraction(sign * p, s - p) for p in range(s) if math.gcd(p, s) == 1 for sign in (1, -1)}:
            assert _enumeration_index(frac) == position[frac], frac
            if s <= 30:
                y = TaggedReal.rational(frac.numerator, frac.denominator)
                assert all(example2_eval(x, y) == nested_indicator(position[frac])(x) for x in spiky), frac


# ------------------------------------------------------------ dirichlet tower


def test_dirichlet_tower_shape():
    t = dirichlet_tower()
    assert t.depth == 2
    mid = t.tower(3)
    assert mid.depth == 1
    leaf = mid.tower(5)
    assert leaf.depth == 0


def test_dirichlet_stage_indicators():
    t = dirichlet_tower()
    g4 = t.tower(4).limit_eval  # indicator of the first four enumerated rationals
    assert g4(TaggedReal.rational(1, 2)) == 1.0  # 1/2 is the fourth entry
    assert g4(TaggedReal.rational(2)) == 0.0  # 2 arrives later
    assert g4(TaggedReal.irrational(2.0 ** 0.5)) == 0.0


def test_dirichlet_leaf_tents_are_exact_at_centers():
    t = dirichlet_tower()
    g = t.tower(4).tower(50).limit_eval
    assert g(TaggedReal.rational(1, 2)) == 1.0
    assert g(TaggedReal.plain(0.5)) == 1.0  # leaf stages read values, not tags
    # one tent-width away from every center the sum clamps to zero
    assert g(TaggedReal.plain(0.52)) == 0.0
    assert g(TaggedReal.plain(0.51)) == pytest.approx(0.5, abs=1e-12)


def test_dirichlet_tower_tail_runs_exactly():
    t = dirichlet_tower()
    sched = (1, 2, 4, 8, 16, 32, 64)
    for k in (2, 4, 7, 14):
        y = rational_enumeration(k + 1)
        rep = tower_tail(t, y, schedule=sched, eps=0.0)
        assert rep.passed and rep.target == 1.0
    for v in (2.0 ** 0.5, np.pi, np.e):
        rep = tower_tail(t, TaggedReal.irrational(v), schedule=sched, eps=0.0)
        assert rep.passed and rep.target == 0.0


# --------------------------------------------------------------- cosine bump


def test_cosine_bump_boundary_and_center():
    assert cosine_bump(1.3, 0.3, 1.0) == 0.0
    assert cosine_bump(0.7, 0.3, 1.0) == 0.0
    assert cosine_bump(1.0, 0.3, 1.0) == 1.0
    assert cosine_bump(1.15, 0.3, 1.0) == pytest.approx(np.cos(np.pi / 4), abs=1e-15)
    assert cosine_bump(99.0, 0.3, 1.0) == 0.0
    with pytest.raises(ValueError):
        cosine_bump(0.0, 0.0, 0.0)


# ------------------------------------------------------------ collapsing bump


def test_collapsing_instance_clause_exactness():
    bump = collapsing_instance()
    assert isinstance(bump, CollapsingBump)
    rng = np.random.default_rng(19)
    center = bump.center
    for _ in range(200):
        x = float(rng.uniform(-1.0, 1.0))
        y = TaggedReal.plain(float(rng.uniform(-1.0, 1.0)))
        v = bump(x, y)
        if abs(x) >= 0.5:
            assert v == 0.0  # outside the active region
        if abs(x) <= 0.2:
            # inside the spike zone the section is the pure indicator of the
            # center, scaled by the plateau weight
            expect = bump.phi(x) if same_real(y, center) else 0.0
            assert v == expect
        assert 0.0 <= v <= 1.0


def test_collapsing_instance_peak_plateau():
    bump = collapsing_instance()
    for x in (-0.1, -0.05, 0.0, 0.07, 0.1):
        assert bump.phi(x) == 1.0
        assert bump(x, TaggedReal.rational(0)) == 1.0
        assert bump(x, TaggedReal.irrational(1e-9)) == 0.0


def test_collapsing_instance_cosine_zone():
    bump = collapsing_instance()
    x = 0.3  # phi ramps, psi = 0.1 there
    w = bump.phi(x)
    assert w == pytest.approx(0.5, abs=1e-15)
    width = bump.psi(x)
    assert width == pytest.approx(0.1, abs=1e-15)
    y = TaggedReal.plain(0.05)
    assert bump(x, y) == pytest.approx(w * np.cos(np.pi * 0.05 / (2 * width)), abs=1e-12)
    # at |y - center| = psi the bump dies exactly
    assert bump(x, TaggedReal.plain(width)) == 0.0
    assert bump(x, TaggedReal.plain(-width)) == 0.0


def test_collapsing_bump_validates_clauses():
    base = collapsing_instance()
    broken = CollapsingBump(
        phi=lambda x: 0.5,  # breaks the peak clause: weight must be 1 on the peak
        psi=base.psi,
        center=base.center,
        peak_set=base.peak_set,
        active_set=base.active_set,
        spike_set=base.spike_set,
    )
    with pytest.raises(GalleryError):
        broken(0.0, TaggedReal.rational(0))


# ------------------------------------------------------------ finite sequences


def test_finseq_construction_and_stats():
    x = FinSeq.from_list([0.5, 0.0, -0.25])
    assert coeff(x, 1) == 0.5
    assert coeff(x, 2) == 0.0
    assert coeff(x, 3) == -0.25
    assert coeff(x, 99) == 0.0
    assert x.top_index == 3
    assert x.sup_abs == 0.5
    assert FinSeq.zero().is_zero
    assert FinSeq.zero().top_index == 0
    with pytest.raises(ValueError):
        FinSeq(entries=((0, 1.0),))
    with pytest.raises(ValueError):
        FinSeq(entries=((2, 1.0), (1, 0.5)))
    with pytest.raises(ValueError):
        FinSeq(entries=((1, 0.0),))


def coeff(x: FinSeq, index: int) -> float:
    """The sequence's index-th coefficient, 0.0 off its support."""
    return dict(x.entries).get(index, 0.0)


def sup_distance(a: FinSeq, b: FinSeq) -> float:
    """The sup metric on finitely-supported sequences: the reference the
    gap's Lipschitz bound is checked against."""
    indices = {i for i, _ in a.entries} | {i for i, _ in b.entries}
    return max((abs(coeff(a, i) - coeff(b, i)) for i in indices), default=0.0)


def test_sup_distance_cases():
    a = FinSeq.from_list([0.5, 0.25])
    b = FinSeq.from_list([0.5, 0.0, 0.125])
    assert sup_distance(a, b) == 0.25
    assert sup_distance(a, a) == 0.0
    assert sup_distance(a, FinSeq.zero()) == 0.5


# ------------------------------------------ shells, layers, and the core sets


def _brute_layer(x: FinSeq, n: int, m: int) -> bool:
    # written straight from the definitions, independent of the library's
    # membership shortcuts
    union = any(
        x.top_index <= k and x.sup_abs <= 1.0 / k for k in range(n, m + 1)
    )
    return union or x.sup_abs <= 1.0 / m


def _brute_core(x: FinSeq, n: int, horizon: int) -> bool:
    return all(_brute_layer(x, n, m) for m in range(n, horizon + 1))


def _random_finseq(rng) -> FinSeq:
    k = int(rng.integers(0, 5))
    entries = []
    idx = 0
    for _ in range(k):
        idx += int(rng.integers(1, 4))
        num = int(rng.integers(-8, 9))
        den = int(rng.choice([1, 2, 3, 4, 5, 6, 8, 12]))
        if num != 0:
            entries.append((idx, num / den))
    return FinSeq(entries=tuple(entries)) if entries else FinSeq.zero()


def test_core_membership_matches_brute_force():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(300):
        x = _random_finseq(rng)
        for n in (1, 2, 3, 5):
            horizon = max(n, x.top_index) + 50
            assert in_core(x, n) == _brute_core(x, n, horizon)
            checked += 1
    assert checked == 1200


def _loop_dist_supported(x: FinSeq, k: int) -> float:
    # the distance to the supported ball k entry by entry: a head entry
    # lies |c| - 1/k outside it, a tail entry |c|
    d = 0.0
    for i, c in x.entries:
        d = max(d, abs(c) - 1.0 / k if i <= k else abs(c))
    return d


def _adversarial_finseqs(n: int):
    # one or two signed entries with coefficients 1/k and its 1-ulp
    # neighbours, or 1/(k - 1/2), for k near n, the last at index n - 1, n
    # or n + 1
    values = [v for k in (n - 1, n, n + 1) if k >= 1 for v in (1.0 / k, math.nextafter(1.0 / k, 0.0), math.nextafter(1.0 / k, 2.0), 1.0 / (k - 0.5))]
    values += [-v for v in values]
    for top in (n - 1, n, n + 1):
        if top < 1:
            continue
        for c in values:
            yield FinSeq(((top, c),))
            if top > 1:
                for b in values:
                    yield FinSeq(((1, b), (top, c)))


def test_core_and_supported_distance_at_adversarial_floats():
    checked = 0
    for n in (1, 2, 3, 5, 10):
        for x in _adversarial_finseqs(n):
            horizon = max(n, x.top_index) + 3
            for m in range(max(1, n - 1), n + 2):
                assert in_core(x, m) == _brute_core(x, m, horizon), (x.entries, m)
            for k in range(1, x.top_index + 2):
                assert _dist_supported(x, k).hex() == _loop_dist_supported(x, k).hex(), (x.entries, k)
            checked += 1
    assert checked == 6912


def _rescan_ambiguity_gap(x: FinSeq, n: int) -> float:
    # ambiguity_gap as it was first written: each layer m's distance takes
    # its minimum over the supported balls n..m afresh
    if in_core(x, n):
        return 0.0
    best = 0.0
    for m in range(n, n + 4096):
        d = max(0.0, x.sup_abs - 1.0 / m)
        for k in range(n, m + 1):
            d = min(d, _dist_supported(x, k))
        best = max(best, min(2.0 ** -m, d))
        if best > 0.0 and 2.0 ** -(m + 1) <= best:
            return best
    raise GalleryError("gap iteration failed to separate the point from the core layers")


def test_ambiguity_gap_equals_the_rescanning_loop_bit_for_bit():
    checked = 0
    for n in (1, 2, 3, 5, 10):
        for x in _adversarial_finseqs(n):
            for m in range(max(1, n - 1), n + 2):
                assert ambiguity_gap(x, m).hex() == _rescan_ambiguity_gap(x, m).hex(), (x.entries, m)
            checked += 1
    assert checked == 6912


def test_shell_memberships():
    x = FinSeq.from_list([0.0, 0.25])  # top 2, sup 1/4
    assert in_open_ball(x, 2)  # 0.25 < 1/(2-1/2)
    assert not in_open_ball(x, 5)  # needs < 1/4.5


def test_low_shells_ignore_late_coefficients():
    # only the first n slots constrain the level-n shell
    x = FinSeq(entries=((3, 5.0),))
    assert in_open_ball(x, 1) and in_open_ball(x, 2)
    assert not in_open_ball(x, 3)
    assert truncation_index(x) == 3
    assert level_ramp(x, 2) == 1.0
    # inside the shell but off the core the weight sits strictly between
    phi = nested_indicator(1)(x)
    assert 0.0 < phi < 1.0


def test_zero_sequence_is_in_every_core():
    z = FinSeq.zero()
    for n in (1, 2, 3, 10):
        assert in_core(z, n)
        assert ambiguity_gap(z, n) == 0.0
        assert nested_indicator(n)(z) == 1.0


def test_gap_vanishes_exactly_on_core_and_not_off_it():
    rng = np.random.default_rng(29)
    for _ in range(200):
        x = _random_finseq(rng)
        for n in (1, 2, 4):
            g = ambiguity_gap(x, n)
            assert 0.0 <= g <= 2.0 ** -n
            if in_core(x, n):
                assert g == 0.0
            else:
                assert g > 0.0


def test_gap_is_lipschitz_in_the_sequence():
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = _random_finseq(rng)
        y = _random_finseq(rng)
        d = sup_distance(x, y)
        for n in (1, 3):
            assert abs(ambiguity_gap(x, n) - ambiguity_gap(y, n)) <= d + 1e-12


def test_indicator_level_sets_are_exact():
    rng = np.random.default_rng(37)
    for _ in range(200):
        x = _random_finseq(rng)
        for n in (1, 2, 4):
            phi = nested_indicator(n)(x)
            assert 0.0 <= phi <= 1.0
            assert (phi == 1.0) == in_core(x, n)
            assert (phi == 0.0) == (not in_open_ball(x, n))


def test_level_ramp_plateaus_are_branch_exact():
    x = FinSeq.from_list([0.05])
    assert level_ramp(x, 3) == 1.0  # sup 0.05 <= 1/3 plateau
    far = FinSeq.from_list([0.9])
    assert level_ramp(far, 3) == 0.0  # sup 0.9 >= 1/(3-1/2)
    assert level_ramp(FinSeq.zero(), 1) == 1.0


def test_spike_width_is_level_one_gap():
    x = FinSeq.from_list([0.6])
    assert spike_width(x) == ambiguity_gap(x, 1)
    assert spike_width(FinSeq.zero()) == 0.0


# -------------------------------------------------------------- bump summing


def test_truncation_index_frozen_cases():
    # first level n with amplitude >= 1/(n - 1/2), worked by hand:
    # 0.3 crosses at n=4 (1/3.5), 0.6 at n=3 (1/2.5), 1.5 at n=2 (1/1.5),
    # 2.5 already misses the level-1 shell (radius 2)
    assert truncation_index(FinSeq.from_list([0.3])) == 4
    assert truncation_index(FinSeq.from_list([0.6])) == 3
    assert truncation_index(FinSeq.from_list([1.5])) == 2
    assert truncation_index(FinSeq.from_list([2.5])) == 1
    with pytest.raises(GalleryError):
        truncation_index(FinSeq.zero())
    with pytest.raises(GalleryError):
        truncation_index(FinSeq.from_list([1e-9]), cap=100)


def test_example2_zero_section_is_dirichlet():
    z = FinSeq.zero()
    for k in range(1, 21):
        assert example2_eval(z, rational_enumeration(k)) == 1.0
    rng = np.random.default_rng(41)
    for _ in range(20):
        v = float(rng.uniform(-3.0, 3.0)) + np.sqrt(2) * 1e-3
        assert example2_eval(z, TaggedReal.irrational(v)) == 0.0


def test_example2_truncation_identity():
    from equiblend.gallery import example2_term

    rng = np.random.default_rng(43)
    for _ in range(50):
        amp = float(rng.uniform(0.05, 1.0))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        idx = int(rng.integers(1, 6))
        entries = ((idx, sign * amp),)
        x = FinSeq(entries=entries)
        n0 = truncation_index(x)
        y = TaggedReal.plain(float(rng.uniform(-1.5, 1.5)))
        total = 0.0
        for n in range(1, n0):
            total += example2_term(n)(x, y)
        assert example2_eval(x, y) == total
        # terms at and past the truncation index vanish exactly
        for n in range(n0, n0 + 3):
            assert example2_term(n)(x, y) == 0.0
        # the collapsed spike path agrees with the naive sum on rational tags
        k = int(rng.integers(1, 8))
        yr = rational_enumeration(k)
        naive = 0.0
        for n in range(1, n0):
            naive += example2_term(n)(x, yr)
        assert example2_eval(x, yr) == naive


def test_example2_head_values_follow_indicators():
    x = FinSeq.from_list([0.6])
    r2 = nested_indicator(2)(x)
    assert example2_eval(x, TaggedReal.rational(0)) == 1.0
    assert example2_eval(x, TaggedReal.rational(1)) == r2
    assert example2_eval(x, TaggedReal.irrational(0.5 * np.sqrt(2))) == 0.0


def test_example2_tiny_amplitudes_evaluate_in_closed_form():
    # the vanished spike width collapses the sum, so a tiny head amplitude
    # needs no term-by-term scan for tagged rationals and irrationals
    tiny = FinSeq.from_list([0.001])
    assert example2_eval(tiny, TaggedReal.rational(0), n_terms_cap=64) == 1.0
    assert example2_eval(tiny, TaggedReal.irrational(np.sqrt(2)), n_terms_cap=64) == 0.0
    # a plain tag has to match centers by value, which does require the scan
    with pytest.raises(GalleryError):
        example2_eval(tiny, TaggedReal.plain(0.5), n_terms_cap=64)


def test_slice_modulus_vanishes_at_irrational_sections():
    y = TaggedReal.irrational(np.sqrt(2))
    vals = slice_modulus(y, deltas=(1e-2, 1e-3, 1e-4))
    assert vals == (0.0, 0.0, 0.0)


def test_slice_modulus_shrinks_onto_the_level_plateau():
    # along the head-coordinate slice the section at the second enumerated
    # rational is the level-2 weight: flat at 1 through |t| <= 1/2, ramping
    # down beyond, so the modulus dies exactly once delta enters the plateau
    y = TaggedReal.rational(1)
    vals = slice_modulus(y, deltas=(0.6, 0.5, 0.25))
    edge = 1.0 - nested_indicator(2)(FinSeq.from_list([0.6]))
    assert vals[0] == edge
    assert vals[0] > 0.5
    assert vals[1] == 0.0
    assert vals[2] == 0.0
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_slice_modulus_at_lead_rational_is_flat():
    # the section at the first enumerated rational equals the level-1 weight,
    # which plateaus at 1 on the whole unit amplitude window
    vals = slice_modulus(TaggedReal.rational(0), deltas=(1.0, 0.5))
    assert vals == (0.0, 0.0)


# ------------------------------------------------------------- sequential fan


def test_sequential_point_validation():
    assert SequentialPoint.origin().kind == "origin"
    assert SequentialPoint.level(3).n == 3
    leaf = SequentialPoint.leaf(2, 4)
    assert (leaf.n, leaf.m) == (2, 4)
    with pytest.raises(ValueError):
        SequentialPoint.level(0)
    with pytest.raises(ValueError):
        SequentialPoint.leaf(2, 3)  # needs m >= n^2


def test_example1_values_by_kind():
    y_half = TaggedReal.rational(1, 2)
    assert example1_eval(SequentialPoint.origin(), y_half) == 1.0
    assert example1_eval(SequentialPoint.origin(), TaggedReal.irrational(np.pi)) == 0.0
    # level n reads the finite indicator of the first n enumerated rationals
    assert example1_eval(SequentialPoint.level(4), y_half) == 1.0
    assert example1_eval(SequentialPoint.level(3), y_half) == 0.0
    # leaves read tent sums at scale 1/m
    assert example1_eval(SequentialPoint.leaf(4, 50), y_half) == 1.0
    assert example1_eval(SequentialPoint.leaf(4, 50), TaggedReal.plain(0.5 + 1.0 / 50)) == 0.0


def test_example1_towers_match_pointwise_values():
    f = example1_function()
    for p in (SequentialPoint.origin(), SequentialPoint.level(2), SequentialPoint.leaf(3, 9)):
        tower = f.anchor_regularity(p)
        assert tower is not None
        for y in (TaggedReal.rational(1, 2), TaggedReal.irrational(np.sqrt(3))):
            assert tower.limit_eval(y) == f.eval(p, y)


def test_sequential_convergence_conventions():
    to_level2 = [SequentialPoint.leaf(2, m) for m in (4, 5, 6, 7, 9, 12)]
    assert sequential_convergence_probe(SequentialPoint.level(2), to_level2)
    stuck = [SequentialPoint.leaf(2, 5)] * 6
    assert not sequential_convergence_probe(SequentialPoint.level(2), stuck)
    assert sequential_convergence_probe(SequentialPoint.leaf(2, 5), stuck)
    # to a leaf: separately built copies of it converge, any other point breaks the tail
    leaf = SequentialPoint.leaf(2, 4)
    assert sequential_convergence_probe(leaf, [SequentialPoint.leaf(2, 4) for _ in range(5)])
    for other in (SequentialPoint.leaf(2, 5), SequentialPoint.level(2)):
        assert not sequential_convergence_probe(leaf, [SequentialPoint.leaf(2, 4), other, SequentialPoint.leaf(2, 4)])

    to_origin = [SequentialPoint.level(n) for n in (1, 2, 4, 7)]
    assert sequential_convergence_probe(SequentialPoint.origin(), to_origin)
    diag = [SequentialPoint.leaf(n, n * n) for n in (1, 2, 3, 4)]
    assert not sequential_convergence_probe(SequentialPoint.origin(), diag)


def test_origin_section_oscillates_on_fine_intervals():
    # the origin section hits both 0 and 1 inside every window of width 1/100
    rats = rational_prefix(25000)
    vals = sorted(float(q) for q in rats if 0 <= q <= 1)
    import bisect

    for j in range(100):
        lo, hi = j / 100.0, (j + 1) / 100.0
        i = bisect.bisect_left(vals, lo)
        assert i < len(vals) and vals[i] <= hi, f"no enumerated rational in [{lo}, {hi}]"
        q = vals[i]
        frac = next(f for f in rats if float(f) == q and 0 <= f <= 1)
        assert example1_eval(SequentialPoint.origin(),
                             TaggedReal(value=q, kind="rational", frac=frac)) == 1.0
        mid = lo + (hi - lo) / np.pi  # irrational offset inside the window
        assert example1_eval(SequentialPoint.origin(), TaggedReal.irrational(mid)) == 0.0


# ----------------------------------------------------------- two-cell gallery


def meets(a: SupportBox, b: SupportBox) -> bool:
    """Whether the two intervals share a point, open and closed ends honored:
    the reference the cells' regions are checked against."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return False
    return lo < hi or ((lo > a.lo or a.closed_lo) and (lo > b.lo or b.closed_lo) and (hi < a.hi or a.closed_hi) and (hi < b.hi or b.closed_hi))


def test_meets_respects_open_faces():
    a = SupportBox.interval(0.0, 1.0, closed_hi=False)
    b = SupportBox.interval(1.0, 2.0)
    # [0,1) and [1,2] share only the point 1, which a excludes
    assert not meets(a, b)
    c = SupportBox.interval(0.5, 1.5)
    assert meets(a, c)


def test_half_line_phi_plateaus():
    inst = half_line_instance()
    left, right = inst.cells
    # left cell: full weight on the core ray, zero outside the region
    assert left.phi(2, -1.0) == 1.0
    assert left.phi(2, -0.1) == 0.0
    assert right.phi(2, 1.0) == 1.0
    assert right.phi(2, 3.5) == 0.0


def test_half_line_regions_disjoint_per_level():
    inst = half_line_instance()
    left, right = inst.cells
    for n in (1, 2, 4, 8, 16):
        lr = left.u_region(n)
        rr = right.u_region(n)
        assert not meets(lr, rr)
        assert meets(left.core_region(n), lr)
        assert meets(right.core_region(n), rr)


def test_half_line_stage_values_damp_toward_limits():
    inst = half_line_instance()
    left, right = inst.cells
    y = 0.7
    for n in (1, 3, 6):
        lv = left.tower.tower(n).limit_eval(y)
        rv = right.tower.tower(n).limit_eval(y)
        assert lv == pytest.approx(np.sin(y) * (1.0 - 2.0 ** -n), abs=1e-15)
        assert rv == pytest.approx(np.cos(y) * (1.0 - 2.0 ** -n), abs=1e-15)
    assert left.tower.limit_eval(y) == pytest.approx(np.sin(y), abs=1e-15)
    assert right.tower.limit_eval(y) == pytest.approx(np.cos(y), abs=1e-15)
