"""Scheme scenarios against the reference twin: every term ``run_scenario``
reports equals the twin's bit for bit, on dyadic and non-dyadic boxes, at
dyadic and non-dyadic levels, at nodes and tile edges, 1 ulp either side of
them, and at the domain's faces."""

from __future__ import annotations

import math

import reference_twin
from hypothesis import given, settings
from hypothesis import strategies as st

from equiblend.connectors import _coords, affine_line
from equiblend.harness import Scenario, run_scenario
from equiblend.operators import SectionedFunction, lambda_blend, piecewise_anchor

LEVELS = (3, 5, 7, 60, 96)
LOS = (0.1, -0.7, 1 / 3, -3.0, 0.0)
YS = (0.5, -1.25, {"rational": [1, 3]}, {"irrational": 1.4142135623730951})
# a function of every coordinate of its anchor, for the dim-2 grid, where the
# registry's only function of a vector x is a constant
SPREAD = SectionedFunction(lambda a, y: math.sin(3.0 * math.fsum(_coords(a))) + float(y.value))


@st.composite
def _coordinate(draw, lo: float, hi: float, closed_hi: bool, schedule: list) -> float:
    """A node or tile edge of a scheduled level, or a face, moved by -1, 0
    or +1 ulp, and kept inside the domain."""
    n = draw(st.sampled_from(schedule))
    if draw(st.booleans()):
        c = lo + draw(st.integers(0, round(hi - lo) * n)) / n  # a grid node
    else:
        c = draw(st.integers(math.ceil(lo * n), math.floor(hi * n))) / n  # a tile edge
    c = draw(st.sampled_from([lo, hi, c, c, c]))
    v = draw(st.sampled_from([math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]))
    if v < lo:
        return lo
    return v if v < hi or (v == hi and closed_hi) else (hi if closed_hi else math.nextafter(hi, -math.inf))


@st.composite
def scenarios(draw) -> dict:
    kind = draw(st.sampled_from(["grid1", "grid2", "sorgenfrey"]))
    lo = draw(st.sampled_from(LOS))
    hi = lo + draw(st.sampled_from([1, 2] if kind != "grid2" else [1]))
    schedule = sorted(draw(st.sets(st.sampled_from(LEVELS), min_size=3, max_size=3)))
    dim = 2 if kind == "grid2" else 1
    coordinate = _coordinate(lo, hi, kind != "sorgenfrey", schedule)
    xs = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=3))
    probes = [{"x": list(x) if dim > 1 else x[0], "y": draw(st.sampled_from(YS))} for x in xs]
    if kind == "sorgenfrey":
        scheme = {"kind": "sorgenfrey", "domain": [lo, hi]}
    else:
        scheme = {"kind": "grid", "dim": dim, "lo": lo, "hi": hi}
    return {
        "name": "twin",
        "function": "constant" if dim > 1 else draw(st.sampled_from(["sine_sum", "bilinear_ratio", "collapsing_bump"])),
        "operator": draw(st.sampled_from(["lambda_blend", "piecewise_anchor"])),
        "scheme": scheme,
        "z_space": draw(st.sampled_from([{"kind": "line"}, {"kind": "warped"}])),
        "probes": probes,
        "schedule": schedule,
    }


def _bits(weights: list) -> list:
    return [(key, w.hex()) for key, w in weights]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(scenarios())
def test_scenario_terms_equal_the_reference_twin_bit_for_bit(data):
    scenario = Scenario.from_dict(data)
    terms = [[float.hex(t) for t in record["terms"]] for record in run_scenario(scenario)["records"]]
    assert terms == [list(map(float.hex, twin)) for twin in reference_twin.scenario_terms(scenario)]
    # a support missed at weight 0 leaves every term as it is, so the bump
    # values are compared too; the constant hides the anchors, so there the
    # operator runs again on a function of every anchor coordinate
    blend = data["operator"] == "lambda_blend"
    for n in data["schedule"]:
        level = reference_twin.Level(scenario.scheme.describe(), n)
        term = lambda_blend(SPREAD, scenario.scheme, affine_line(), n) if blend else piecewise_anchor(SPREAD, scenario.scheme, n)
        for x, y in scenario.probes:
            assert _bits(scenario.scheme.family(n).weights_at(x)) == _bits(level.weights_at(x)), (n, x)
            if data["function"] == "constant":
                expected = reference_twin.TERMS[data["operator"]](level, SPREAD, affine_line(), x, y)
                assert float.hex(term(x, y)) == float.hex(expected), (n, x)
