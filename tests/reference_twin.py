"""A reference twin of the anchored schemes: a level's terms worked out the
long way, to check the library's bit for bit.

The twin scans every key of a level, rebuilds each key's support and tent
from the scheme's definition, and picks each anchor with exact ``Fraction``
arithmetic.  It shares no lookup, memo, interval or pick with
``equiblend.partitions``; only the function, the z-space and the connector
fold are the library's.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from equiblend.connectors import lambda_sum
from equiblend.operators import PartitionViolationError


def dyadic_pick(lo: float, hi: float, closed_lo: bool, closed_hi: bool) -> float:
    """The coarsest dyadic p/2^k of the interval, smallest p first, decided on
    exact fractions."""
    lo_q, hi_q = Fraction(lo), Fraction(hi)
    for k in range(61):
        v = Fraction(math.ceil(lo_q * 2**k), 2**k)
        if v == lo_q and not closed_lo:
            v += Fraction(1, 2**k)
        if v < hi_q or (v == hi_q and closed_hi):
            return float(v)
    raise ValueError(f"no dyadic point in [{lo}, {hi}]")


def _holds(interval: tuple, v: float) -> bool:
    lo, hi, closed_lo, closed_hi = interval
    return (lo < v or (lo == v and closed_lo)) and (v < hi or (v == hi and closed_hi))


class Level:
    """Level n of a scheme, from the scheme's ``describe()``: the integer
    range of each axis, and per axis index its support interval, its weight
    at a coordinate, and the interval its anchor coordinate is picked in;
    an interval is (lo, hi, closed_lo, closed_hi)."""

    def __init__(self, describe: dict, n: int):
        self.n = n
        if describe["kind"] == "grid":
            lo, hi = describe["box"]
            count = round(hi - lo) * n
            node = lambda j: lo + j / n
            self.axes = (range(count + 1),) * describe["dim"]
            self.support = lambda j: (node(max(j - 1, 0)), node(min(j + 1, count)), True, j + 1 >= count)
            self.weight = lambda j, v: max(0.0, 1.0 - n * abs(v - node(j)))
            self.anchor_interval = lambda j: (max(node(j) - 0.5 / n, lo), min(node(j) + 0.5 / n, hi), True, True)
        else:
            lo, hi = describe["domain"]
            self.axes = (range(math.floor(lo * n) - 1, math.ceil(hi * n) + 2),)
            self.support = lambda i: ((i - 1) / n, i / n, True, False)
            self.weight = lambda i, v: 1.0
            self.anchor_interval = lambda i: (i / n, (i + 1) / n, True, False)  # the next tile

    def weights_at(self, x) -> list:
        """(key, bump value) over every key whose support holds x, in key
        order; a support holds x when each axis interval holds its coordinate."""
        coords = (x,) if isinstance(x, float) else tuple(x)
        if len(coords) != len(self.axes):
            return []
        inside = [{j for j in axis if _holds(self.support(j), v)} for axis, v in zip(self.axes, coords)]
        out = []
        for key in itertools.product(*self.axes):
            if all(j in held for j, held in zip(key, inside)):
                value = 1.0
                for j, v in zip(key, coords):
                    value *= self.weight(j, v)
                out.append((key, value))
        return out

    def anchor(self, key: tuple):
        coords = tuple(dyadic_pick(*self.anchor_interval(j)) for j in key)
        return coords if len(coords) > 1 else coords[0]


def lambda_blend_term(level: Level, f, z_space, x, y):
    live = [(key, w) for key, w in level.weights_at(x) if w > 0.0]
    if not live:
        raise PartitionViolationError(f"no bump is positive at {x!r} (level {level.n})")
    return lambda_sum(z_space, [f.eval(level.anchor(key), y) for key, _ in live], [w for _, w in live])


def piecewise_anchor_term(level: Level, f, z_space, x, y):
    """The anchor section of x's cell: the first key, in key order, whose
    support holds x."""
    (cell, _), *_ = level.weights_at(x)
    return f.eval(level.anchor(cell), y)


TERMS = {"lambda_blend": lambda_blend_term, "piecewise_anchor": piecewise_anchor_term}


def scenario_terms(scenario) -> list:
    """Per probe, the level terms of a parsed scheme scenario along its
    schedule, as ``run_scenario`` reports them."""
    config = scenario.config
    term = TERMS[config["operator"]]
    levels = [Level(scenario.scheme.describe(), n) for n in config["schedule"]]
    return [[float(term(level, scenario.function, scenario.z_space, x, y)) for level in levels] for x, y in scenario.probes]
