"""Scenario parsing under arbitrary JSON values: ``Scenario.from_dict``
either returns a ``Scenario`` or raises ``ConfigError``, whatever it is
given.  Only parsing is exercised; no scenario is run."""

from __future__ import annotations

import json
from pathlib import Path

from fuzzing import FUZZ, json_values
from hypothesis import given
from hypothesis import strategies as st

from equiblend.harness import SCENARIO_KEYS, ConfigError, Scenario

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
