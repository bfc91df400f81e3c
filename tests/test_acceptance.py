"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion asserts at its stated tolerance; nothing is loosened to
match the implementation.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from equiblend.connectors import (
    affine_line,
    convex_combination,
    warped_line,
)
from equiblend.gallery import (
    FinSeq,
    SequentialPoint,
    TaggedReal,
    collapsing_instance,
    cosine_bump,
    dirichlet_tower,
    example1_eval,
    example2_eval,
    example2_term,
    half_line_instance,
    rational_enumeration,
    rational_prefix,
    same_real,
    sequential_convergence_probe,
    slice_modulus,
    truncation_index,
)
from equiblend.harness import load_scenario_file, run_scenario
from equiblend.operators import tower_tail
from equiblend.partitions import (
    SupportBox,
    disjointify,
    pointwise_finiteness,
    sorgenfrey_scheme,
    verify_anchoring,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _criterion(label: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _run(name: str):
    return run_scenario(load_scenario_file(SCENARIO_DIR / name))


# --------------------------------------------------------------- criterion 1


def test_criterion_connector_identities():
    def check():
        rng = np.random.default_rng(101)
        sp = affine_line(3)
        wl = warped_line()
        for _ in range(1000):
            x = rng.uniform(-5.0, 5.0, size=3)
            y = rng.uniform(-5.0, 5.0, size=3)
            t = float(rng.uniform())
            assert sp.connect(x, y, 0.0) is x
            assert sp.connect(x, y, 1.0) is y
            assert sp.connect(x, x, t) is x
            a, b = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
            assert wl.connect(a, b, 0.0) == a
            assert wl.connect(a, b, 1.0) == b
            assert wl.connect(a, a, t) == a

            # recursion identity with exactly representable weights
            counts = rng.multinomial(64, [0.25] * 4)
            while counts.min() < 1:
                counts = rng.multinomial(64, [0.25] * 4)
            w = [int(c) / 64.0 for c in counts]
            pts = [rng.uniform(-4.0, 4.0, size=3) for _ in range(4)]
            vals = [float(v) for v in rng.uniform(-2.0, 2.0, size=4)]
            s = w[0] + w[1]
            merged = sp.connect(pts[0], pts[1], w[1] / s)
            assert _bits(convex_combination(sp, pts, w)) == _bits(
                convex_combination(sp, [merged] + pts[2:], [s] + w[2:])
            )
            vmerged = wl.connect(vals[0], vals[1], w[1] / s)
            assert convex_combination(wl, vals, w) == convex_combination(
                wl, [vmerged] + vals[2:], [s] + w[2:]
            )

            # exact zero weights drop out bit for bit, on both connectors
            extra = rng.uniform(-4.0, 4.0, size=3)
            slot = int(rng.integers(0, 5))
            pts2 = pts[:slot] + [extra] + pts[slot:]
            w2 = w[:slot] + [0.0] + w[slot:]
            assert _bits(convex_combination(sp, pts2, w2)) == _bits(
                convex_combination(sp, pts, w)
            )
            vals2 = vals[:slot] + [float(rng.uniform(-2.0, 2.0))] + vals[slot:]
            assert convex_combination(wl, vals2, w2) == convex_combination(wl, vals, w)
        # all-but-one zero: the survivor comes back unchanged
        p = np.array([0.3, -0.7, 0.1])
        q = np.array([9.0, 9.0, 9.0])
        assert convex_combination(sp, [q, p, q], [0.0, 1.0, 0.0]) is p

    _criterion("connector endpoint and recursion identities", check)


# --------------------------------------------------------------- criterion 2


def test_criterion_affine_oracle():
    def check():
        rng = np.random.default_rng(103)
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 4))
            sp = affine_line(dim)
            pts = [rng.uniform(-5.0, 5.0, size=dim) for _ in range(k)]
            raw = rng.uniform(0.05, 1.0, size=k)
            weights = raw / raw.sum()
            out = convex_combination(sp, pts, weights)
            oracle = np.average(np.stack(pts), axis=0, weights=weights)
            assert np.max(np.abs(out - oracle)) <= 1e-12

    _criterion("iterated blend matches the weighted average", check)


# --------------------------------------------------------------- criterion 3


def test_criterion_sampled_continuity():
    def check():
        # shrinking the parameter step shrinks the displacement: the move at
        # step 1e-5 never exceeds the move at step 1e-3
        rng = np.random.default_rng(107)
        sp = affine_line(3)
        wl = warped_line()
        bad = 0
        for _ in range(500):
            t = float(rng.uniform(0.05, 0.9))
            x = rng.uniform(-5.0, 5.0, size=3)
            y = rng.uniform(-5.0, 5.0, size=3)
            base = sp.connect(x, y, t)
            d_fine = float(np.linalg.norm(sp.connect(x, y, t + 1e-5) - base))
            d_coarse = float(np.linalg.norm(sp.connect(x, y, t + 1e-3) - base))
            a, b = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
            wbase = wl.connect(a, b, t)
            w_fine = abs(wl.connect(a, b, t + 1e-5) - wbase)
            w_coarse = abs(wl.connect(a, b, t + 1e-3) - wbase)
            ok = d_fine <= d_coarse and w_fine <= w_coarse
            bad += 0 if ok else 1
        assert bad <= 5  # at least 99% of samples behave

    _criterion("sampled parameter continuity", check)


# --------------------------------------------------------------- criterion 4


def test_criterion_one_sided_anchoring():
    def check():
        rng = np.random.default_rng(109)
        scheme = sorgenfrey_scheme(n_max=16)
        for _ in range(200):
            x = float(rng.uniform(0.02, 0.93))
            radius = float(rng.uniform(0.2, 0.9))
            n0 = verify_anchoring(scheme, x, radius)
            assert n0 <= math.ceil(2.0 / radius) + 1
            for n in (1, 4, 16):
                fam = scheme.family(n)
                active = fam.active_keys(x)
                assert len(active) == 1
                assert fam.partition_sum(x) == 1.0
            # uniform overlap bound across all levels is exactly one tile
            assert pointwise_finiteness([scheme.family(n) for n in range(1, 17)], x) == 1

    _criterion("forward anchoring tails on the half open line", check)


# --------------------------------------------------------------- criterion 5


def test_criterion_blend_convergence():
    def check():
        grid = _run("blend_grid.json")
        sorg = _run("blend_sorgenfrey.json")
        assert grid["summary"]["all_passed"]
        assert sorg["summary"]["all_passed"]
        assert grid["summary"]["probes"] >= 30
        for rep in (grid, sorg):
            origin = [r for r in rep["records"] if r["x"] == 0 and r["y"] == 0]
            assert origin, "the probe list keeps an origin probe"
            for rec in origin:
                assert all(g == 0.0 for g in rec["gaps"])

    _criterion("blend terms converge on the probe suite", check)


# --------------------------------------------------------------- criterion 6


def test_criterion_anchor_equivalence():
    def check():
        blend = _run("blend_sorgenfrey.json")
        anchored = _run("anchor_sorgenfrey.json")
        assert anchored["summary"]["all_passed"]
        assert len(blend["records"]) == len(anchored["records"])
        for rb, ra in zip(blend["records"], anchored["records"]):
            assert (rb["x"], rb["y"]) == (ra["x"], ra["y"])
            assert rb["terms"] == ra["terms"]  # bit-for-bit, not approximately

    _criterion("anchored pieces equal blends on half open tiles", check)


# --------------------------------------------------------------- criterion 7


def test_criterion_glued_limits():
    def check():
        inst = half_line_instance()
        rng = np.random.default_rng(113)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            y = float(rng.uniform(-1.0, 1.0))
            term = inst.term(n)
            # the gap between the level regions returns the star exactly
            gap_x = float(rng.uniform(-0.5 / n, -0.25 / n))
            if gap_x > -0.25 / n:
                gap_x = -0.375 / n
            assert term(gap_x, y) == 0.0
            # far past the right region likewise
            assert term(float(n) + 2.0, y) == 0.0
            # on the phi plateau the stage value passes through unchanged
            left_core = float(rng.uniform(-3.0, -1.0 / n))
            stage = inst.cells[0].tower.tower(n).limit_eval(y)
            assert term(left_core, y) == stage
        amb = _run("ambiguous_two_cell.json")
        assert amb["summary"]["all_passed"]

    _criterion("glued limits with exact star values", check)


# --------------------------------------------------------------- criterion 8


def test_criterion_collapsing_clauses():
    def check():
        bump = collapsing_instance()
        rng = np.random.default_rng(127)
        for _ in range(200):
            x = float(rng.uniform(-1.0, 1.0))
            yv = float(rng.uniform(-1.0, 1.0))
            y = TaggedReal.plain(yv)
            v = bump(x, y)
            assert 0.0 <= v <= 1.0
            if abs(x) >= 0.5:
                assert v == 0.0
            if abs(x) <= 0.1:
                assert bump.phi(x) == 1.0
                assert bump(x, bump.center) == 1.0
            if abs(x) <= 0.2:
                assert v == (bump.phi(x) if same_real(y, bump.center) else 0.0)
            if 0.2 < abs(x) < 0.5:
                width = bump.psi(x)
                assert width > 0.0
                assert bump(x, TaggedReal.plain(width)) == 0.0
                assert bump(x, TaggedReal.plain(-width)) == 0.0
        assert cosine_bump(1.25, 0.25, 1.0) == 0.0
        assert cosine_bump(0.75, 0.25, 1.0) == 0.0
        assert cosine_bump(1.0, 0.25, 1.0) == 1.0

    _criterion("collapsing bump clause exactness", check)


# --------------------------------------------------------------- criterion 9


def test_criterion_rational_sections():
    def check():
        z = FinSeq.zero()
        for k in range(1, 21):
            assert example2_eval(z, rational_enumeration(k)) == 1.0
        rng = np.random.default_rng(131)
        for _ in range(20):
            v = float(rng.uniform(-3.0, 3.0)) + math.sqrt(2) / 7.0
            assert example2_eval(z, TaggedReal.irrational(v)) == 0.0
        # truncation identity: the finite sum is the value, bit for bit
        for _ in range(50):
            amp = float(rng.uniform(0.05, 1.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            idx = int(rng.integers(1, 6))
            x = FinSeq(entries=((idx, amp),))
            n0 = truncation_index(x)
            y = TaggedReal.plain(float(rng.uniform(-1.5, 1.5)))
            total = 0.0
            for n in range(1, n0):
                total += example2_term(n)(x, y)
            assert example2_eval(x, y) == total
            assert example2_term(n0)(x, y) == 0.0

    _criterion("zero section carries the rational indicator", check)


# -------------------------------------------------------------- criterion 10


def test_criterion_modulus_decay():
    def check():
        y = TaggedReal.irrational(math.sqrt(2))
        vals = slice_modulus(y, deltas=(1e-2, 1e-3, 1e-4))
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals == (0.0, 0.0, 0.0)

    _criterion("head slice modulus decays at irrational sections", check)


# -------------------------------------------------------------- criterion 11


def test_criterion_sequential_fan():
    def check():
        t = dirichlet_tower()
        sched = (1, 2, 4, 8, 16, 32, 64, 128, 256)
        tagged = [rational_enumeration(k) for k in (2, 4, 7, 14, 20)] + [
            TaggedReal.irrational(v)
            for v in (math.sqrt(2), math.sqrt(3), math.sqrt(5), math.pi, math.e)
        ]
        for y in tagged:
            rep = tower_tail(t, y, schedule=sched, eps=0.0)
            assert rep.passed
            assert rep.target == (1.0 if y.kind == "rational" else 0.0)
            # inner stages converge to their level values the same way
            for n in (2, 4, 7):
                inner = tower_tail(t.tower(n), y, schedule=sched, eps=0.0)
                assert inner.passed
                assert inner.target == t.tower(n).limit_eval(y)

        up = [SequentialPoint.leaf(2, m) for m in (4, 6, 9, 13, 20, 31)]
        assert sequential_convergence_probe(SequentialPoint.level(2), up)
        rows = [SequentialPoint.level(n) for n in (1, 3, 6, 11)]
        assert sequential_convergence_probe(SequentialPoint.origin(), rows)
        diag = [SequentialPoint.leaf(n, n * n) for n in (1, 2, 3, 4, 5)]
        assert not sequential_convergence_probe(SequentialPoint.origin(), diag)

        # oscillation surrogate: both values in every width-0.01 window
        rats = rational_prefix(25000)
        in_unit = sorted((float(q), q) for q in rats if 0 <= q <= 1)
        floats = [v for v, _ in in_unit]
        import bisect

        origin = SequentialPoint.origin()
        for j in range(100):
            lo, hi = j / 100.0, (j + 1) / 100.0
            i = bisect.bisect_left(floats, lo)
            assert i < len(floats) and floats[i] <= hi
            v, frac = in_unit[i]
            hit = TaggedReal(value=v, kind="rational", frac=frac)
            assert example1_eval(origin, hit) == 1.0
            off = TaggedReal.irrational(lo + (hi - lo) / math.pi)
            assert example1_eval(origin, off) == 0.0

    _criterion("fan towers witness the oscillating limit", check)


# -------------------------------------------------------------- criterion 12


def test_criterion_cover_disjointification():
    def check():
        rng = np.random.default_rng(137)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            cells = []
            for j in range(k):
                lo = float(rng.uniform(0.0, 0.8))
                hi = lo + float(rng.uniform(0.05, 0.4))
                cells.append((j, SupportBox.interval(lo, hi).contains))
            cells.append((k, SupportBox.interval(-0.1, 1.1).contains))
            part = disjointify(cells)
            assert part.provenance == "disjointified"
            for _ in range(50):
                x = float(rng.uniform(0.0, 1.0))
                hits = [key for key, member in part.cells if member(x)]
                assert len(hits) == 1
                assert hits[0] == (next(j for j, m in cells if m(x)),)

    _criterion("covers disjointify into exact partitions", check)


# -------------------------------------------------------------- criterion 13


def test_criterion_harness_determinism(tmp_path):
    def check():
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        for out in (one, two):
            r = subprocess.run(
                [sys.executable, "-m", "equiblend.cli", "suite", str(SCENARIO_DIR), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert r.returncode == 0, r.stderr
        assert one.read_bytes() == two.read_bytes()
        data = json.loads(one.read_text())
        assert data["summary"]["all_passed"] is True
        assert data["summary"]["scenarios"] == 7

    _criterion("suite reruns byte identical with exit code zero", check)
