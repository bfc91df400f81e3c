"""Scenarios under fuzzing.  Parsing: ``Scenario.from_dict`` either
returns a ``Scenario`` or raises ``ConfigError``, whatever JSON value it is
given.  Running: a scenario built from the registry's names, with extreme
levels and probes, is either a ``ConfigError`` or runs to a report that
both renderers accept."""

from __future__ import annotations

import json
import math
from pathlib import Path

from fuzzing import FUZZ, json_values
from hypothesis import example, given
from hypothesis import strategies as st

from equiblend.harness import OPERATORS, REGISTRY, SCENARIO_KEYS, ConfigError, Scenario, render_csv, render_json, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(SCENARIO_DIR.glob("*.json"))]


def _parses_or_is_a_config_error(data) -> None:
    try:
        scenario = Scenario.from_dict(data)
    except ConfigError:
        return
    assert isinstance(scenario, Scenario)


def _paths(value, prefix=()):
    """Every key or index path inside a parsed JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield prefix + (key,)
        yield from _paths(inner, prefix + (key,))


def _replaced(value, path, new):
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new) if path[1:] else new
    return copy


@FUZZ
@given(json_values)
def test_any_json_value_parses_or_is_a_config_error(data):
    _parses_or_is_a_config_error(data)


@FUZZ
@given(st.sampled_from(SHIPPED), st.sampled_from(SCENARIO_KEYS), st.data(), json_values)
def test_a_shipped_scenario_with_one_key_replaced_parses_or_is_a_config_error(base, key, data, value):
    # a top-level key, set whether or not the scenario has it, or a key or
    # index nested inside it
    path = data.draw(st.sampled_from([(key,), *_paths(base.get(key), (key,))]))
    _parses_or_is_a_config_error(_replaced(base, path, value))


# a scheme's box or domain: lo, and hi = lo plus a whole number
_BOUNDS = st.tuples(st.sampled_from([-1.0, 0.0, 0.5, -2.5, 1e6]), st.integers(1, 3)).map(lambda b: (b[0], b[0] + b[1]))
_SCHEMES = st.one_of(
    st.builds(lambda dim, b: {"kind": "grid", "dim": dim, "lo": b[0], "hi": b[1]}, st.integers(1, 3), _BOUNDS),
    _BOUNDS.map(lambda b: {"kind": "sorgenfrey", "domain": list(b)}),
)
_Z_SPACES = st.sampled_from([{"kind": "line", "dim": 1}, {"kind": "affine", "lo": -1.0, "hi": 1.0, "dim": 1}, {"kind": "warped"}])
# small levels, powers of two (exempt from the grid's tent-rounding bound) and any level to 2**40
_LEVELS = st.lists(st.integers(1, 64) | st.integers(0, 40).map(lambda k: 2**k) | st.integers(1, 2**40), min_size=3, max_size=3, unique=True).map(sorted)
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
_Y = st.one_of(
    st.sampled_from([*_EXTREMES, 0.5, -0.7]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda p, q: {"rational": [p, q]}, st.integers(-1000, 1000), st.integers(1, 1000)),
    st.sampled_from(_EXTREMES).map(lambda v: {"irrational": v}),
)
_FAN_X = st.one_of(
    st.just({"sequential": ["origin"]}),
    st.integers(1, 8).map(lambda n: {"sequential": ["level", n]}),
    st.integers(1, 8).flatmap(lambda n: st.integers(n * n, n * n + 8).map(lambda m: {"sequential": ["leaf", n, m]})),
)


def _coordinate(lo: float, hi: float):
    """A face, a face +-1 ulp, an extreme or a number in between."""
    faces = [v for face in (lo, hi) for v in (face, math.nextafter(face, -math.inf), math.nextafter(face, math.inf))]
    return st.sampled_from(faces + _EXTREMES) | st.floats(lo, hi)


@st.composite
def _scenarios(draw) -> dict:
    """A scenario over a registered function, an operator that takes its
    kind, and for blends a grid (dims 1-3) or sorgenfrey scheme."""
    function = draw(st.sampled_from(sorted(REGISTRY)))
    kind = REGISTRY[function].kind
    operator = draw(st.sampled_from([name for name, op in OPERATORS.items() if kind in op.kinds]))
    data = {"name": "fuzz", "function": function, "operator": operator, "z_space": draw(_Z_SPACES), "schedule": draw(_LEVELS)}
    if kind == "sequential":
        xs = _FAN_X
    elif OPERATORS[operator].needs_scheme:
        data["scheme"] = scheme = draw(_SCHEMES)
        lo, hi = scheme["domain"] if scheme["kind"] == "sorgenfrey" else (scheme["lo"], scheme["hi"])
        dim = scheme.get("dim", 1)
        xs = _coordinate(lo, hi) if dim == 1 else st.lists(_coordinate(lo, hi), min_size=dim, max_size=dim)
    else:
        xs = _coordinate(-1.0, 1.0)
    data["probes"] = draw(st.lists(st.builds(lambda x, y: {"x": x, "y": y}, xs, _Y), min_size=1, max_size=3))
    return data


# a level of more than sys.maxsize keys once made len() overflow in the cell lookup
OVERFLOWING_LEVEL = {
    "name": "overflow",
    "function": "constant",
    "operator": "piecewise_anchor",
    "scheme": {"kind": "grid", "dim": 2, "lo": -1.0, "hi": 1.0},
    "schedule": [1, 2, 2**32],
    "probes": [{"x": [0.25, 0.5], "y": 0.5}],
}


@FUZZ
@given(_scenarios())
@example(OVERFLOWING_LEVEL)
def test_a_registry_scenario_runs_to_a_report_or_is_a_config_error(data):
    try:
        scenario = Scenario.from_dict(data)
    except ConfigError:
        return
    report = run_scenario(scenario)
    assert json.loads(render_json(report))["summary"] == report["summary"]
    assert len(render_csv([report]).splitlines()) == 1 + len(data["probes"])
