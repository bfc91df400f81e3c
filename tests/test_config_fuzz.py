"""Scenario parsing under arbitrary JSON values: ``Scenario.from_dict``
either returns a ``Scenario`` or raises ``ConfigError``, whatever it is
given.  Only parsing is exercised; no scenario is run."""

from __future__ import annotations

import json
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from equiblend.harness import MAX_DIM, MAX_STAGE, OPERATORS, REGISTRY, SCENARIO_KEYS, SCHEMES, X_SPACES, Z_SPACES, ConfigError, Scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(SCENARIO_DIR.glob("*.json"))]

# database=None: hypothesis writes no example database into the checkout
FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)

# json.load accepts NaN and Infinity, so the floats include them
_EDGES = [0, 1, -1, 2, MAX_DIM, MAX_DIM + 1, MAX_STAGE, MAX_STAGE + 1, 2**52, 10**18, 10**400, -0.0, 0.5, 1e-300, 1e300, math.nan, math.inf, -math.inf]
# the names the parser reads, so that generated objects reach past its first checks
_WORDS = [*SCENARIO_KEYS, *REGISTRY, *OPERATORS, *SCHEMES, *Z_SPACES, *X_SPACES, "none", "kind", "dim", "lo", "hi", "domain", "x", "y"]
_WORDS += ["rational", "irrational", "sequential", "origin", "level", "leaf"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(_EDGES)
    | st.sampled_from(_WORDS)
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


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
