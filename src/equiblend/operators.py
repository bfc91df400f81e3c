"""Approximation operators: partition blends, piecewise anchor maps,
contraction glues, and pointwise-limit towers.

Every operator produces, for a level n, a two-variable map whose x-behavior
comes from a partition/cover structure and whose values live in a connector
space or contraction target.  Convergence is judged by a tail criterion over
a level schedule.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

from .connectors import Contraction, ConnectorSpace, _norm_metric, lambda_sum
from .partitions import AnchoredScheme, SupportBox, disjointify


class PartitionViolationError(ValueError):
    pass


class DiscretenessError(ValueError):
    pass


TAIL_K = 3
# the last level at which ambiguous_target looks for a cell core holding x
TARGET_LEVELS = 4096


class BaireTower:
    """A pointwise-limit tower of depth 0, 1 or 2.

    Depth 0 is a single function (``limit_eval``); depth d >= 1 adds
    ``tower(n)``, the depth-(d-1) stage whose limits approximate
    ``limit_eval`` pointwise as n grows.
    """

    __slots__ = ("depth", "limit_eval", "tower")

    def __init__(self, depth: int, limit_eval: Callable, tower: Callable[[int], BaireTower] | None = None):
        if depth not in (0, 1, 2):
            raise ValueError("tower depth must be 0, 1 or 2")
        if depth == 0 and tower is not None:
            raise ValueError("depth-0 towers carry no stages")
        if depth > 0 and tower is None:
            raise ValueError(f"depth-{depth} tower needs stages")
        self.depth, self.limit_eval, self.tower = depth, limit_eval, tower


def tail_check(values: Sequence, target, eps: float):
    """Tail criterion: the last TAIL_K values all sit within eps of the target.

    Returns (passed, gaps, final_gap); eps=0 demands exact agreement.
    """
    values = list(values)
    plain = type(target) is float
    gaps = tuple(abs(v - target) if plain and type(v) is float else _norm_metric(v, target) for v in values)
    if len(values) < TAIL_K:
        return False, gaps, (gaps[-1] if gaps else float("inf"))
    passed = all(g <= eps for g in gaps[-TAIL_K:])
    return passed, gaps, gaps[-1]


class TailReport:
    __slots__ = ("terms", "target", "gaps", "passed", "final_gap")

    def __init__(self, terms: tuple, target, gaps: tuple, passed: bool, final_gap: float):
        self.terms, self.target, self.gaps, self.passed, self.final_gap = terms, target, gaps, passed, final_gap


def tower_terms(t: BaireTower, y, schedule: Sequence[int]) -> tuple:
    """(stage limits at y along the schedule, the tower's own limit at y); a
    depth-0 tower is its own limit at every level."""
    if t.depth == 0:
        value = t.limit_eval(y)
        return tuple(value for _ in schedule), value
    terms = tuple(t.tower(n).limit_eval(y) for n in schedule)
    return terms, t.limit_eval(y)


def tower_tail(t: BaireTower, y, schedule: Sequence[int], eps: float) -> TailReport:
    """Evaluate a tower's stages at y along the schedule and compare their
    limits against the tower's own limit under the tail criterion."""
    if t.depth < 1:
        raise ValueError("tower_tail needs a tower of depth >= 1")
    terms, target = tower_terms(t, y, schedule)
    passed, gaps, final_gap = tail_check(terms, target, eps)
    return TailReport(terms=terms, target=target, gaps=gaps, passed=passed, final_gap=final_gap)


# stays a dataclass: bench/spans.py calls dataclasses.replace on it
@dataclass(frozen=True)
class SectionedFunction:
    """A two-variable function with access to its x-sections and optional
    declared regularity towers at anchor points."""

    eval: Callable
    anchor_regularity: Callable | None = None


def lambda_blend(f: SectionedFunction, scheme: AnchoredScheme, z_space: ConnectorSpace, n: int):
    """Level-n blend: at (x, y), connector-sum the anchor sections
    f(anchor(key), y) over the bumps with positive weight at x.

    Weights are the bump values (they sum to 1 within float dust and are
    renormalised); with a single active bump the value is exactly the anchor
    section's value.  Depends only on bumps whose support contains x.
    """
    family, anchors = scheme.level(n)

    def term(x, y):
        points, weights = [], []
        for key, w in family.weights_at(x):
            if w > 0.0:
                points.append(f.eval(anchors(key), y))
                weights.append(w)
        if not points:
            raise PartitionViolationError(f"no bump is positive at {x!r} (level {n})")
        return lambda_sum(z_space, points, weights)

    return term


def piecewise_anchor(f: SectionedFunction, scheme: AnchoredScheme, n: int):
    """Level-n anchor map: at (x, y), take the cell of x among the
    disjointified supports of the level, in key order, and return the
    anchor's section value f(anchor(cell), y)."""
    family, anchors = scheme.level(n)
    cells = disjointify(family.index_keys, family.active_keys)

    def term(x, y):
        return f.eval(anchors(cells.cell_of(x)), y)

    return term


class GlueBump:
    """One bump of a discrete glue: weight function, y-section, and the
    declared support of the weight."""

    __slots__ = ("phi", "section", "support")

    def __init__(self, phi: Callable[[object], float], section: Callable, support: SupportBox):
        self.phi, self.section, self.support = phi, section, support


def contractible_glue(c: Contraction, bumps: Sequence[GlueBump], x, y):
    """Glue sections along a contraction: inside the (unique) bump support
    holding x the value is gamma(section(y), 1 - phi(x)); outside all
    supports it is the contraction's star point.

    Two supports containing x violate discreteness and raise.
    """
    hits = [b for b in bumps if b.support.contains(x)]
    if len(hits) > 1:
        raise DiscretenessError(f"{len(hits)} bump supports overlap at {x!r}")
    if not hits:
        return c.star
    bump = hits[0]
    w = float(bump.phi(x))
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"bump weight {w!r} outside [0, 1]")
    return c.gamma(bump.section(y), 1.0 - w)


class AmbiguousCell:
    """Per-cell data for a limit over an ambiguous cover: an increasing core
    exhaustion inside shrinking-complement weight supports, plus a depth-1
    tower approximating the cell's section.

    ``phi(n, x)`` must be exactly 1.0 on ``core_region(n)`` and exactly 0.0
    outside ``u_region(n)``; cores increase with n and their union is the
    cell's ambiguity set.
    """

    __slots__ = ("phi", "u_region", "core_region", "tower")

    def __init__(
        self,
        phi: Callable[[int, object], float],
        u_region: Callable[[int], SupportBox],
        core_region: Callable[[int], SupportBox],
        tower: BaireTower,
    ):
        if tower.depth != 1:
            raise ValueError("ambiguous cells carry depth-1 towers")
        self.phi, self.u_region, self.core_region, self.tower = phi, u_region, core_region, tower


def ambiguous_limit(c: Contraction, cells: Sequence[AmbiguousCell], n: int):
    """Level-n term of the glued limit: the contractible glue of the cells'
    level-n bumps, so inside the unique u-region holding x it is
    gamma(g_n(y), 1 - phi_n(x)) with g_n the cell tower's stage-n limit, and
    outside all u-regions the star point."""
    bumps = [
        GlueBump(phi=partial(cell.phi, n), section=cell.tower.tower(n).limit_eval, support=cell.u_region(n))
        for cell in cells
    ]
    return partial(contractible_glue, c, bumps)


def ambiguous_target(cells: Sequence[AmbiguousCell]):
    """The pointwise limit: on the cell whose core eventually captures x, the
    cell tower's limit section; undefined (raises) off every cell core up to
    level TARGET_LEVELS.

    Levels are tried in increasing order, all cells at each: cores of
    different cells are disjoint, so the first capture names the cell."""

    def target(x, y):
        for n in range(1, TARGET_LEVELS + 1):
            for cell in cells:
                if cell.core_region(n).contains(x):
                    return cell.tower.limit_eval(y)
        raise PartitionViolationError(f"point {x!r} escapes every cell core up to level {TARGET_LEVELS}")

    return target
