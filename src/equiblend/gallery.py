"""Desk-scale model spaces and worked instances.

Contents: tagged reals (floats carrying an exact rational identity or an
irrationality promise), a rational-spike limit tower, collapsing bump
functions, a sparse finitely-supported sequence space with nested shells and
exact indicator ramps, a sequential fan with per-row towers, and a two-cell
glued limit on the line.

Exactness discipline: every "equals 1" or "equals 0" clause that downstream
checks rely on is produced by branching on a set descriptor, never by ramp
arithmetic that merely tends to the plateau.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache

from .connectors import Contraction, straight_line_contraction
from .operators import AmbiguousCell, BaireTower, SectionedFunction, ambiguous_limit, ambiguous_target
from .partitions import SupportBox


class GalleryError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# tagged reals


class TaggedReal:
    """A float together with what kind of real number it stands for.

    ``rational`` carries the exact fraction; ``irrational`` promises the
    intended real is irrational (the float is its approximation);
    ``plain`` makes no claim and compares purely by value.
    """

    __slots__ = ("value", "kind", "frac")

    def __init__(self, value: float, kind: str, frac: Fraction | None = None):
        if kind not in ("rational", "irrational", "plain"):
            raise ValueError(f"unknown tag kind {kind!r}")
        if (kind == "rational") != (frac is not None):
            raise ValueError("rational tags carry a fraction, other tags must not")
        self.value, self.kind, self.frac = float(value), kind, frac
        if not math.isfinite(self.value):
            raise ValueError("tagged reals must be finite")

    @classmethod
    def rational(cls, p, q=1) -> "TaggedReal":
        frac = Fraction(p, q)
        return cls(value=float(frac), kind="rational", frac=frac)

    @classmethod
    def irrational(cls, value: float) -> "TaggedReal":
        return cls(value=float(value), kind="irrational")

    @classmethod
    def plain(cls, value: float) -> "TaggedReal":
        return cls(value=float(value), kind="plain")


def as_tagged(y) -> TaggedReal:
    if isinstance(y, TaggedReal):
        return y
    if isinstance(y, Fraction):
        return TaggedReal.rational(y.numerator, y.denominator)
    return TaggedReal.plain(float(y))


def as_float(y) -> float:
    return y.value if isinstance(y, TaggedReal) else float(y)


def same_real(a, b) -> bool:
    """Whether two tagged reals name the same number.

    Rational tags compare exactly; a rational never equals an irrational
    whatever the floats say; plain tags fall back to float equality.
    """
    a = as_tagged(a)
    b = as_tagged(b)
    if a.kind == "rational" and b.kind == "rational":
        return a.frac == b.frac
    if {a.kind, b.kind} == {"rational", "irrational"}:
        return False
    return a.value == b.value


def dirichlet_value(y) -> float:
    """1 on rational tags, 0 otherwise.  Plain tags claim no rational
    identity, so they land at 0."""
    return 1.0 if as_tagged(y).kind == "rational" else 0.0


# ---------------------------------------------------------------------------
# rational enumeration and the spike tower


def _rational_stream():
    yield Fraction(0)
    s = 2
    while True:
        for p in range(1, s):
            q = s - p
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)
                yield Fraction(-p, q)
        s += 1


_RATIONAL_GEN = _rational_stream()
_RATIONAL_CACHE: list = []


def rational_prefix(count: int) -> tuple:
    """First ``count`` terms of a fixed enumeration of all rationals:
    0, 1, -1, 1/2, -1/2, 2, -2, 1/3, -1/3, 3, -3, ...  (by p+q, then p)."""
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    while len(_RATIONAL_CACHE) < count:
        _RATIONAL_CACHE.append(next(_RATIONAL_GEN))
    return tuple(_RATIONAL_CACHE[:count])


def rational_enumeration(n: int) -> TaggedReal:
    """The n-th rational of the fixed enumeration, 1-based, as a tagged
    value with its exact fraction."""
    n = int(n)
    if n < 1:
        raise ValueError("enumeration index starts at 1")
    frac = rational_prefix(n)[n - 1]
    return TaggedReal.rational(frac.numerator, frac.denominator)


@lru_cache(maxsize=None)
def _center_floats(n: int) -> tuple:
    return tuple(float(r) for r in rational_prefix(n))


def _enumeration_index(frac: Fraction) -> int:
    """1-based position of a reduced fraction in the enumeration.

    Entries through the |p|+q = s block number at most s^2, so a prefix of
    that length is guaranteed to contain the fraction.
    """
    s = abs(frac.numerator) + frac.denominator
    prefix = rational_prefix(max(1, s * s))
    return prefix.index(frac) + 1


def _finite_indicator(n: int) -> Callable:
    members = frozenset(rational_prefix(n))

    def g(y) -> float:
        y = as_tagged(y)
        return 1.0 if y.kind == "rational" and y.frac in members else 0.0

    return g


def _tent_sum(n: int, m: int, v: float) -> float:
    # continuous stage: unit tents of half-width 1/m at the first n spikes
    total = 0.0
    for c in _center_floats(n):
        total += max(0.0, 1.0 - m * abs(v - c))
        if total >= 1.0:
            return 1.0
    return total


def dirichlet_tower() -> BaireTower:
    """Depth-2 tower under the rational indicator.

    Stage (n, m) is a continuous tent sum, its m-limit is the indicator of
    the first n enumerated rationals, and the n-limit of those is the full
    rational indicator.  Continuous stages read the float value, limit
    stages read the tag, so probes must carry honest tags.
    """

    def stage(n: int) -> BaireTower:
        return BaireTower(
            depth=1,
            limit_eval=_finite_indicator(n),
            tower=lambda m: BaireTower(depth=0, limit_eval=lambda y: _tent_sum(n, m, as_float(y))),
        )

    return BaireTower(depth=2, limit_eval=dirichlet_value, tower=stage)


# ---------------------------------------------------------------------------
# collapsing bumps


def cosine_bump(u: float, v: float, a: float) -> float:
    """Cosine cap of half-width v centered at a: exactly 0.0 for
    |u - a| >= v, exactly 1.0 at the center."""
    if not v > 0.0:
        raise ValueError("cosine_bump needs a positive half-width")
    d = abs(float(u) - float(a))
    if d >= v:
        return 0.0
    if d == 0.0:
        return 1.0
    return math.cos(math.pi * d / (2.0 * v))


class CollapsingBump:
    """Two-variable bump phi(x) * cap(y) whose y-cap collapses to a single
    spike where the width function vanishes.

    On the spike set (psi == 0) the y-profile is the characteristic function
    of the center, decided by tag; elsewhere it is a cosine cap of half-width
    psi(x).  Declared set predicates are re-checked at every evaluation:
    peak points must satisfy phi == 1 and lie in the spike and active sets,
    inactive points must satisfy phi == 0.
    """

    __slots__ = ("phi", "psi", "center", "peak_set", "active_set", "spike_set")

    def __init__(
        self,
        phi: Callable[[object], float],
        psi: Callable[[object], float],
        center: TaggedReal,
        peak_set: Callable[[object], bool],
        active_set: Callable[[object], bool],
        spike_set: Callable[[object], bool],
    ):
        self.phi, self.psi, self.center = phi, psi, center
        self.peak_set, self.active_set, self.spike_set = peak_set, active_set, spike_set

    def __call__(self, x, y) -> float:
        w = float(self.phi(x))
        if not 0.0 <= w <= 1.0:
            raise GalleryError(f"bump weight {w!r} outside [0, 1]")
        peak = self.peak_set(x)
        active = self.active_set(x)
        spike = self.spike_set(x)
        if peak and not (spike and active):
            raise GalleryError("peak set escapes spike/active sets")
        if peak and w != 1.0:
            raise GalleryError(f"weight {w!r} on the peak set is not exactly 1")
        if not active and w != 0.0:
            raise GalleryError(f"weight {w!r} off the active set is not exactly 0")
        if w == 0.0:
            return 0.0
        width = float(self.psi(x))
        if spike and width != 0.0:
            raise GalleryError(f"width {width!r} on the spike set is not exactly 0")
        if width < 0.0 or (not spike and width == 0.0):
            raise GalleryError(f"width {width!r} invalid off the spike set")
        y = as_tagged(y)
        if width == 0.0:
            return w if same_real(y, self.center) else 0.0
        return w * cosine_bump(y.value, width, self.center.value)


def collapsing_instance() -> CollapsingBump:
    """The one-dimensional reference instance.

    Peak set [-0.1, 0.1], spike set [-0.2, 0.2], active set (-0.5, 0.5);
    weight ramps linearly between the plateaus, width grows linearly off the
    spike set.  Center is the rational 0.
    """
    peak = SupportBox.interval(-0.1, 0.1)
    spike = SupportBox.interval(-0.2, 0.2)
    active = SupportBox.interval(-0.5, 0.5, closed_lo=False, closed_hi=False)

    def phi(x) -> float:
        ax = abs(float(x))
        if ax <= 0.1:
            return 1.0
        if ax >= 0.5:
            return 0.0
        return (0.5 - ax) / 0.4

    def psi(x) -> float:
        ax = abs(float(x))
        if ax <= 0.2:
            return 0.0
        return min(1.0, ax - 0.2)

    return CollapsingBump(
        phi=phi,
        psi=psi,
        center=TaggedReal.rational(0),
        peak_set=peak.contains,
        active_set=active.contains,
        spike_set=spike.contains,
    )


# ---------------------------------------------------------------------------
# finitely-supported sequences and their nested shells


class FinSeq:
    """A finitely-supported real sequence, stored sparsely as
    ((index, coefficient), ...) with 1-based strictly increasing indices and
    nonzero coefficients."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple = ()):
        cleaned = []
        last = 0
        for index, coeff in entries:
            index = int(index)
            coeff = float(coeff)
            if index <= last:
                raise ValueError("indices must be strictly increasing and >= 1")
            if coeff == 0.0:
                raise ValueError("stored coefficients must be nonzero")
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            cleaned.append((index, coeff))
            last = index
        self.entries = tuple(cleaned)

    @classmethod
    def zero(cls) -> "FinSeq":
        return cls(())

    @classmethod
    def from_pairs(cls, pairs) -> "FinSeq":
        items = sorted((int(i), float(c)) for i, c in pairs)
        return cls(tuple((i, c) for i, c in items if c != 0.0))

    @classmethod
    def from_list(cls, values) -> "FinSeq":
        return cls(tuple((i, float(v)) for i, v in enumerate(values, start=1) if float(v) != 0.0))

    def coeff(self, index: int) -> float:
        for i, c in self.entries:
            if i == index:
                return c
        return 0.0

    @property
    def is_zero(self) -> bool:
        return not self.entries

    @property
    def top_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    @property
    def sup_abs(self) -> float:
        return max((abs(c) for _, c in self.entries), default=0.0)

    def tail_sup(self, k: int) -> float:
        return max((abs(c) for i, c in self.entries if i > k), default=0.0)

    def head_sup(self, k: int) -> float:
        return max((abs(c) for i, c in self.entries if i <= k), default=0.0)


def in_supported_ball(x: FinSeq, k: int) -> bool:
    """Supported in the first k slots with amplitude at most 1/k."""
    return x.top_index <= k and x.sup_abs <= 1.0 / k


def in_amplitude_ball(x: FinSeq, m: int) -> bool:
    """Amplitude at most 1/m, support unrestricted."""
    return x.sup_abs <= 1.0 / m


def in_open_ball(x: FinSeq, n: int) -> bool:
    """First-n amplitude strictly below 1/(n - 1/2).

    Only the leading n slots are constrained, so a point with large late
    coefficients still sits in the low-level shells.
    """
    return x.head_sup(n) < 1.0 / (n - 0.5)


def _in_layer(x: FinSeq, n: int, m: int) -> bool:
    if in_amplitude_ball(x, m):
        return True
    return any(in_supported_ball(x, k) for k in range(n, m + 1))


def in_core(x: FinSeq, n: int) -> bool:
    """Membership in the level-n core: every layer from n on captures x.

    Layers beyond max(n, top_index) are decided by the layer at that cap
    (the support-restricted part of a layer stabilizes there and the
    amplitude part only loses points afterwards), so the check is finite.
    """
    cap = max(n, x.top_index)
    return all(_in_layer(x, n, m) for m in range(n, cap + 1))


def _dist_amplitude(x: FinSeq, m: int) -> float:
    return max(0.0, x.sup_abs - 1.0 / m)


def _dist_supported(x: FinSeq, k: int) -> float:
    r = 1.0 / k
    d = x.tail_sup(k)
    for i, c in x.entries:
        if i <= k:
            d = max(d, abs(c) - r)
    return max(0.0, d)


def _dist_layer(x: FinSeq, n: int, m: int) -> float:
    d = _dist_amplitude(x, m)
    for k in range(n, m + 1):
        d = min(d, _dist_supported(x, k))
    return d


def ambiguity_gap(x: FinSeq, n: int, max_layers: int = 4096) -> float:
    """Capped-sup distance to the level-n core's defining layers.

    Exactly 0.0 on the core (decided by membership, not arithmetic);
    strictly positive elsewhere, continuous in the sup metric, and bounded
    by 2^-n.
    """
    if in_core(x, n):
        return 0.0
    best = 0.0
    for m in range(n, n + max_layers):
        t = min(2.0 ** -m, _dist_layer(x, n, m))
        if t > best:
            best = t
        if best > 0.0 and 2.0 ** -(m + 1) <= best:
            return best
    raise GalleryError("gap iteration failed to separate the point from the core layers")


def level_ramp(x: FinSeq, n: int) -> float:
    """First-n amplitude ramp: 1.0 up to 1/n, 0.0 from 1/(n - 1/2) on,
    linear between.  Plateaus are exact by branching."""
    wide = 1.0 / (n - 0.5)
    tight = 1.0 / n
    h = x.head_sup(n)
    if h >= wide:
        return 0.0
    if h <= tight:
        return 1.0
    return (wide - h) / (wide - tight)


def nested_indicator(n: int) -> Callable[[FinSeq], float]:
    """The level-n weight: min of the amplitude ramp and 1 - gap.

    Exactly 1.0 precisely on the level-n core and exactly 0.0 precisely
    outside the open amplitude shell."""
    n = int(n)
    if n < 1:
        raise ValueError("level must be >= 1")

    def phi(x: FinSeq) -> float:
        r = level_ramp(x, n)
        if r == 0.0:
            return 0.0
        return min(r, 1.0 - ambiguity_gap(x, n))

    return phi


def spike_width(x: FinSeq) -> float:
    """Shared width function: vanishes exactly on the level-1 core."""
    return ambiguity_gap(x, 1)


def truncation_index(x: FinSeq, cap: int = 4096) -> int:
    """First level whose open shell misses x; levels from there on
    contribute nothing at x, since the leading amplitude never shrinks as
    the level grows while the shell radius does.  The zero sequence sits
    in every shell."""
    if x.is_zero:
        raise GalleryError("the zero sequence lies in every shell")
    n = 1
    while in_open_ball(x, n):
        n += 1
        if n > cap:
            raise GalleryError(f"point stays inside the first {cap} shells")
    return n


@lru_cache(maxsize=None)
def example2_term(n: int) -> CollapsingBump:
    """Level-n collapsing bump: level weight, shared width, centered at the
    n-th enumerated rational."""
    center = rational_prefix(n)[n - 1]
    return CollapsingBump(
        phi=nested_indicator(n),
        psi=spike_width,
        center=TaggedReal.rational(center.numerator, center.denominator),
        peak_set=lambda x: in_core(x, n),
        active_set=lambda x: in_open_ball(x, n),
        spike_set=lambda x: in_core(x, 1),
    )


def example2_eval(x: FinSeq, y, n_terms_cap: int = 64) -> float:
    """Sum of the level bumps at (x, y).

    At the zero sequence the value is the rational indicator of y (the sum's
    pointwise limit there).  When the shared width vanishes, every bump is in
    its spike regime and the sum collapses to the level weight at the center
    matching y, which keeps tiny-amplitude sequences evaluable without
    touching the truncation index; the cap then only bounds the generic
    term-by-term path (exceeding it raises rather than truncating silently).
    """
    y = as_tagged(y)
    if x.is_zero:
        return dirichlet_value(y)
    if spike_width(x) == 0.0:
        if y.kind == "irrational":
            return 0.0
        if y.kind == "rational":
            # the level weight vanishes exactly past the truncation index,
            # so the single matching center needs no explicit bound
            return nested_indicator(_enumeration_index(y.frac))(x)
        # plain tags match centers by value; scan the contributing levels
        n0 = truncation_index(x, cap=n_terms_cap)
        total = 0.0
        for n, center in enumerate(rational_prefix(max(0, n0 - 1)), start=1):
            if float(center) == y.value:
                total += nested_indicator(n)(x)
        return total
    n0 = truncation_index(x, cap=n_terms_cap)
    total = 0.0
    for n in range(1, n0):
        total += example2_term(n)(x, y)
    return total


def example2_function(n_terms_cap: int = 64) -> SectionedFunction:
    def f(x, y):
        return example2_eval(x, y, n_terms_cap)

    def regularity(x):
        return dirichlet_tower() if x.is_zero else None

    return SectionedFunction(eval=f, anchor_regularity=regularity)


def slice_modulus(y, deltas: Sequence[float], samples: int = 41, n_terms_cap: int = 256) -> tuple:
    """Oscillation of x -> f(x, y) near the zero sequence along the first
    coordinate slice: for each delta, the largest |f(t e1, y) - f(0, y)|
    over a symmetric t-grid."""
    y = as_tagged(y)
    base = example2_eval(FinSeq.zero(), y)
    out = []
    for delta in deltas:
        delta = float(delta)
        if not delta > 0:
            raise ValueError("deltas must be positive")
        # numpy.linspace's grid, endpoint exact
        count = int(samples)
        step = 2.0 * delta / (count - 1) if count > 1 else 0.0
        ts = [i * step - delta for i in range(count)]
        if count > 1:
            ts[-1] = delta
        worst = 0.0
        for t in ts:
            x = FinSeq.from_list([t])
            worst = max(worst, abs(example2_eval(x, y, n_terms_cap) - base))
        out.append(worst)
    return tuple(out)


# ---------------------------------------------------------------------------
# sequential fan


class SequentialPoint:
    """A point of the fan: the hub, a row point, or a row-m leaf (rows only
    carry leaves from m = n^2 on)."""

    __slots__ = ("kind", "n", "m")

    def __init__(self, kind: str, n: int = 0, m: int = 0):
        if kind not in ("origin", "level", "leaf"):
            raise ValueError(f"unknown point kind {kind!r}")
        if kind == "origin" and (n or m):
            raise ValueError("the origin carries no indices")
        if kind == "level" and (n < 1 or m):
            raise ValueError("row points need n >= 1 and no leaf index")
        if kind == "leaf":
            if n < 1 or m < n * n:
                raise ValueError("leaves need n >= 1 and m >= n^2")
        self.kind, self.n, self.m = kind, n, m

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.n, self.m) == (other.kind, other.n, other.m)

    def __hash__(self):
        return hash((self.kind, self.n, self.m))

    @classmethod
    def origin(cls) -> "SequentialPoint":
        return cls("origin")

    @classmethod
    def level(cls, n: int) -> "SequentialPoint":
        return cls("level", n=int(n))

    @classmethod
    def leaf(cls, n: int, m: int) -> "SequentialPoint":
        return cls("leaf", n=int(n), m=int(m))


def _fan_tower(p: SequentialPoint) -> BaireTower:
    """The fan's tower at p: the Dirichlet tower at the origin, its stage n
    on row n, and that stage's level-m tent sum at leaf (n, m)."""
    tower = dirichlet_tower()
    if p.kind != "origin":
        tower = tower.tower(p.n)
    return tower.tower(p.m) if p.kind == "leaf" else tower


def example1_eval(p: SequentialPoint, y) -> float:
    """Evaluate the fan function: leaves carry the continuous tent stages,
    rows their spike-indicator limits, the origin the full rational
    indicator."""
    return _fan_tower(p).limit_eval(y)


def example1_function() -> SectionedFunction:
    return SectionedFunction(eval=example1_eval, anchor_regularity=_fan_tower)


def sequential_convergence_probe(target: SequentialPoint, seq: Sequence[SequentialPoint]) -> bool:
    """Decide convergence of a tail by the fan's neighborhood shapes.

    To a leaf: the tail is constant.  To a row point: the tail stays in that
    row with strictly increasing leaf indices.  To the origin: the tail uses
    only the origin and strictly increasing rows; row neighborhoods of the
    origin delete finitely many rows but every leaf escapes them, so a tail
    containing any leaf fails.
    """
    pts = list(seq)
    if not pts:
        return False
    if target.kind == "leaf":
        return all(p == target for p in pts)
    if target.kind == "level":
        last_m = 0
        for p in pts:
            if p.kind == "level" and p.n == target.n:
                continue
            if p.kind == "leaf" and p.n == target.n and p.m > last_m:
                last_m = p.m
                continue
            return False
        return True
    last_row = 0
    for p in pts:
        if p.kind == "origin":
            continue
        if p.kind == "level" and p.n > last_row:
            last_row = p.n
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# two-cell glued limit on the line


class TwoCellInstance:
    """A contraction together with two ambiguous cells splitting the line."""

    __slots__ = ("contraction", "cells")

    def __init__(self, contraction: Contraction, cells: tuple):
        self.contraction, self.cells = contraction, cells

    def term(self, n: int):
        return ambiguous_limit(self.contraction, self.cells, n)

    def target(self):
        return ambiguous_target(self.cells)


def half_line_instance() -> TwoCellInstance:
    """Left cell: cores (-inf, -1/n] inside regions (-inf, -1/(2n)), section
    limit sin.  Right cell: cores [0, n] inside regions (-1/(4n), n+1),
    section limit cos.  Stages damp the limit by 1 - 2^-n; the contraction
    slides values straight to 0."""

    def left_phi(n: int, x) -> float:
        x = float(x)
        core_hi = -1.0 / n
        if x <= core_hi:
            return 1.0
        region_hi = -0.5 / n
        if x >= region_hi:
            return 0.0
        return (region_hi - x) / (region_hi - core_hi)

    def right_phi(n: int, x) -> float:
        x = float(x)
        if 0.0 <= x <= n:
            return 1.0
        region_lo = -0.25 / n
        if x <= region_lo or x >= n + 1.0:
            return 0.0
        if x < 0.0:
            return (x - region_lo) / (0.0 - region_lo)
        return (n + 1.0) - x

    def damped(g) -> Callable[[int], BaireTower]:
        def stage(n: int) -> BaireTower:
            scale = 1.0 - 2.0 ** -n
            return BaireTower(depth=0, limit_eval=lambda y: g(as_float(y)) * scale)

        return stage

    left = AmbiguousCell(
        key=("left",),
        phi=left_phi,
        u_region=lambda n: SupportBox.interval(float("-inf"), -0.5 / n, closed_lo=False, closed_hi=False),
        core_region=lambda n: SupportBox.interval(float("-inf"), -1.0 / n, closed_lo=False, closed_hi=True),
        tower=BaireTower(depth=1, limit_eval=lambda y: math.sin(as_float(y)), tower=damped(math.sin)),
    )
    right = AmbiguousCell(
        key=("right",),
        phi=right_phi,
        u_region=lambda n: SupportBox.interval(-0.25 / n, n + 1.0, closed_lo=False, closed_hi=False),
        core_region=lambda n: SupportBox.interval(0.0, float(n)),
        tower=BaireTower(depth=1, limit_eval=lambda y: math.cos(as_float(y)), tower=damped(math.cos)),
    )
    return TwoCellInstance(contraction=straight_line_contraction(0.0), cells=(left, right))
