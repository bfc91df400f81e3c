"""Scenario harness: config validation, runs, serialization, CLI contract."""

from __future__ import annotations

import ast
import dataclasses
import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from fuzzing import FUZZ, json_values, scalars
from hypothesis import given
from hypothesis import strategies as st

import equiblend
from equiblend import cli, partitions
from equiblend.cli import COMMANDS, main
from equiblend.harness import (
    ConfigError,
    DEFAULT_EPS,
    DEFAULT_SCHEDULE,
    MAX_DIM,
    MAX_STAGE,
    OPERATORS,
    REGISTRY,
    SCHEMES,
    Z_SPACES,
    Scenario,
    load_scenario_file,
    render_csv,
    render_json,
    run_scenario,
    suite_data,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BENCH_DIR = SCENARIO_DIR.parent / "bench"


FAN = {"function": "example1", "operator": "tower_tail", "scheme": {"kind": "none"}}


def _minimal_dict(**overrides) -> dict:
    base = {
        "name": "demo",
        "function": "constant",
        "operator": "lambda_blend",
        "scheme": {"kind": "grid", "dim": 1, "lo": 0.0, "hi": 1.0},
        "probes": [{"x": 0.25, "y": 0.5}],
        "schedule": [1, 2, 4],
    }
    base.update(overrides)
    return base


# ------------------------------------------------------------- configuration


def test_defaults_fill_in():
    # hi - lo is 1.9999999999999998, but 0.3 + 2 == 2.3: the top node lands on hi
    sc = Scenario.from_dict(
        {
            "name": "d",
            "function": "constant",
            "operator": "lambda_blend",
            "scheme": {"kind": "grid", "dim": 1, "lo": 0.3, "hi": 2.3},
            "probes": [{"x": 0.5, "y": 0.0}, {"x": 2.3, "y": 0.0}],
        }
    )
    assert sc.config["schedule"] == list(DEFAULT_SCHEDULE)
    assert sc.config["eps"] == DEFAULT_EPS
    assert list(sc.config.keys())[0] == "name"


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda path: path.stem)
def test_config_reparses_to_itself(path):
    # run overrides re-parse {**config, **overrides}
    sc = load_scenario_file(path)
    assert Scenario.from_dict(sc.config).config == sc.config


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        Scenario.from_dict(_minimal_dict(extra_knob=1))


def test_missing_required_keys_rejected():
    d = _minimal_dict()
    del d["function"]
    with pytest.raises(ConfigError):
        Scenario.from_dict(d)


def test_unknown_function_rejected():
    with pytest.raises(ConfigError):
        Scenario.from_dict(_minimal_dict(function="not_a_function"))


@pytest.mark.parametrize(
    "override",
    [{"function": ["constant"]}, {"operator": ["lambda_blend"]}, {"z_space": {"kind": ["line"]}}],
)
def test_unhashable_names_are_config_errors(override):
    with pytest.raises(ConfigError):
        Scenario.from_dict(_minimal_dict(**override))


def test_blend_requires_a_scheme():
    d = _minimal_dict()
    del d["scheme"]
    with pytest.raises(ConfigError):
        Scenario.from_dict(d)


def test_ambiguous_operator_rejects_scheme():
    d = _minimal_dict(
        function="half_line_split",
        operator="ambiguous_limit",
        probes=[{"x": 1.0, "y": 0.5}],
    )
    with pytest.raises(ConfigError):
        Scenario.from_dict(d)
    del d["scheme"]
    sc = Scenario.from_dict(d)
    assert sc.config["function"] == "half_line_split"


# the parse rules the operator table must keep: (operator, function kind, has scheme)
ACCEPTED_COMBINATIONS = {
    ("lambda_blend", "pointwise", True),
    ("piecewise_anchor", "pointwise", True),
    ("ambiguous_limit", "ambiguous", False),
    ("tower_tail", "sequential", False),
}
FUNCTION_OF_KIND = {
    "pointwise": ("sine_sum", 0.0),
    "sequential": ("example1", {"sequential": ["origin"]}),
    "ambiguous": ("half_line_split", 0.0),
}
SCHEME_CONFIGS = {
    "grid": {"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0},
    "sorgenfrey": {"kind": "sorgenfrey", "domain": [0.0, 1.0]},
}


@pytest.mark.parametrize("scheme", [*SCHEMES, None])
@pytest.mark.parametrize("kind", sorted(FUNCTION_OF_KIND))
@pytest.mark.parametrize("operator", list(OPERATORS))
def test_operator_table_decides_what_parses(operator, kind, scheme):
    assert set(FUNCTION_OF_KIND) == {spec.kind for spec in REGISTRY.values()}
    fn_name, x = FUNCTION_OF_KIND[kind]
    d = {"name": "combo", "function": fn_name, "operator": operator, "probes": [{"x": x, "y": 0.5}], "schedule": [1, 2, 4]}
    if scheme is not None:
        d["scheme"] = SCHEME_CONFIGS[scheme]
    op = OPERATORS[operator]
    allowed = kind in op.kinds and (scheme is not None) == op.needs_scheme
    assert allowed == ((operator, kind, scheme is not None) in ACCEPTED_COMBINATIONS)
    if not allowed:
        with pytest.raises(ConfigError, match=f"^{operator} "):
            Scenario.from_dict(d)
        return
    rep = run_scenario(Scenario.from_dict(d))
    assert rep["summary"]["probes"] == 1


def test_sequential_probe_spelling():
    d = {
        "name": "fan",
        "function": "example1",
        "operator": "tower_tail",
        "probes": [
            {"x": {"sequential": ["origin"]}, "y": {"rational": [1, 2]}},
            {"x": {"sequential": ["level", 3]}, "y": 0.25},
            {"x": {"sequential": ["leaf", 2, 9]}, "y": {"irrational": 1.4142135623730951}},
        ],
        "schedule": [1, 2, 4, 8],
    }
    sc = Scenario.from_dict(d)
    assert len(sc.probes) == 3
    bad = dict(d)
    bad["probes"] = [{"x": {"sequential": ["leaf", 2, 3]}, "y": 0.0}]
    with pytest.raises(ConfigError):
        Scenario.from_dict(bad)


def test_sequential_points_need_sequential_functions():
    with pytest.raises(ConfigError):
        Scenario.from_dict(
            _minimal_dict(probes=[{"x": {"sequential": ["origin"]}, "y": 0.0}])
        )


def test_rational_probe_validation():
    with pytest.raises(ConfigError):
        Scenario.from_dict(_minimal_dict(probes=[{"x": 0.5, "y": {"rational": [1, 0]}}]))
    with pytest.raises(ConfigError):
        Scenario.from_dict(_minimal_dict(probes=[{"x": 0.5, "y": {"rational": [0.5, 2]}}]))


def test_rational_y_at_the_bound_runs():
    # reduced, |p| + q is MAX_STAGE; one more is a MALFORMED case.  x = 0.5
    # is a node of every level here, so each term is its anchor's section
    y = {"rational": [2 * (MAX_STAGE - 1), 2]}
    data = _minimal_dict(function="sine_sum", probes=[{"x": 0.5, "y": y}], schedule=[2, 4, 8])
    report = run_scenario(Scenario.from_dict(data))
    assert report["summary"]["all_passed"]


def test_grid_dim_at_the_bound_parses():
    # one more is a MALFORMED case
    sc = Scenario.from_dict(_minimal_dict(scheme={"kind": "grid", "dim": MAX_DIM, "lo": 0.0, "hi": 1.0}, probes=[]))
    assert sc.config["scheme"]["dim"] == MAX_DIM


def test_a_string_grid_lo_names_the_grid_scheme():
    with pytest.raises(ConfigError, match="^grid scheme needs a number 'lo', got '-1'$"):
        Scenario.from_dict(_minimal_dict(scheme={"kind": "grid", "dim": 1, "lo": "-1", "hi": 1.0}))


FAN_DICT = {"name": "fan", "function": "example1", "operator": "tower_tail", "schedule": [1, 2, 4]}
TWO_CELL_DICT = {"name": "two", "function": "half_line_split", "operator": "ambiguous_limit", "schedule": [1, 2, 4]}
GRID2_SINE = _minimal_dict(function="sine_sum", scheme={"kind": "grid", "dim": 2, "lo": 0.0, "hi": 1.0})
HUGE = 10**400
# (scenario, or {} for the minimal one behind a good probe, so the index
# shows; the bad probe; the whole message)
PROBE_ERRORS = [
    ({}, 5, "probe 1 must be an object with keys x and y"),
    ({}, {"x": 0.25}, "probe 1 must be an object with keys x and y"),
    ({}, {"x": 0.25, "y": 0.5, "z": 1}, "probe 1 must be an object with keys x and y"),
    ({}, {"x": 1.5, "y": 0.5}, "probe 1: x 1.5 lies outside the scheme's domain"),
    ({}, {"x": -0.0001, "y": 0.5}, "probe 1: x -0.0001 lies outside the scheme's domain"),
    (GRID2_SINE, {"x": [0.25, 0.5], "y": 0.5}, "probe 0: sine_sum takes a scalar x, not [0.25, 0.5]"),
    ({}, {"x": [0.25, "a"], "y": 0.5}, "bad x coordinate 'a'"),
    ({}, {"x": [True], "y": 0.5}, "bad x coordinate True"),
    ({}, {"x": [0.5, HUGE, "a"], "y": 0.5}, f"bad x coordinate {HUGE}"),
    ({}, {"x": [], "y": 0.5}, "x spec list must be nonempty"),
    ({}, {"x": "0.3", "y": 0.5}, "bad x spec '0.3'"),
    ({}, {"x": True, "y": 0.5}, "bad x spec True"),
    ({}, {"x": math.inf, "y": 0.5}, "bad x spec inf"),
    ({}, {"x": None, "y": 0.5}, "bad x spec None"),
    ({}, {"x": 0.25, "y": math.nan}, "y must be a finite number, got nan"),
    ({}, {"x": 0.25, "y": -HUGE}, f"y must be a finite number, got {-HUGE}"),
    ({}, {"x": 0.25, "y": "q"}, "bad y spec 'q': expected a number, {'rational': [p, q]} or {'irrational': v}"),
    ({}, {"x": 0.25, "y": True}, "bad y spec True: expected a number, {'rational': [p, q]} or {'irrational': v}"),
    ({}, {"x": 0.25, "y": {"rational": [1, 0.5]}}, "rational y spec needs [p, q] integers, got [1, 0.5]"),
    ({}, {"x": 0.25, "y": {"rational": [1, 0]}}, "rational y spec needs a nonzero denominator"),
    ({}, {"x": 0.25, "y": {"rational": [1, 2**21]}}, "rational y spec [1, 2097152]: the reduced |p| + q exceeds 1048576"),
    ({}, {"x": 0.25, "y": {"irrational": "x"}}, "irrational y spec needs a number"),
    ({}, {"x": {"sequential": ["origin"]}, "y": 0.5}, "sequential x specs only apply to sequential-fan functions"),
    (FAN_DICT, {"x": 0.25, "y": 0.5}, "sequential-fan functions need {'sequential': ...} x specs"),
    (FAN_DICT, {"x": {"seq": ["origin"]}, "y": 0.5}, "bad x spec {'seq': ['origin']}"),
    (FAN_DICT, {"x": {"sequential": []}, "y": 0.5}, "bad sequential spec []"),
    (FAN_DICT, {"x": {"sequential": "origin"}, "y": 0.5}, "bad sequential spec 'origin'"),
    (FAN_DICT, {"x": {"sequential": ["leaf", 2]}, "y": 0.5}, "bad sequential spec ['leaf', 2]"),
    (FAN_DICT, {"x": {"sequential": ["root"]}, "y": 0.5}, "bad sequential spec ['root']"),
    (FAN_DICT, {"x": {"sequential": ["level", 1.5]}, "y": 0.5}, "bad sequential spec ['level', 1.5]: indices must be integers"),
    (FAN_DICT, {"x": {"sequential": ["level", 2**20 + 1]}, "y": 0.5}, "bad sequential spec: the row index exceeds 1048576"),
    (FAN_DICT, {"x": {"sequential": ["leaf", 2, HUGE]}, "y": 0.5}, "bad sequential spec: the leaf index lies beyond the floats"),
    (FAN_DICT, {"x": {"sequential": ["leaf", 2, 3]}, "y": 0.5}, "bad sequential spec ['leaf', 2, 3]: leaves need n >= 1 and m >= n^2"),
    (TWO_CELL_DICT, {"x": 1e300, "y": 0.5}, "probe 0: point 1e+300 escapes every cell core up to level 4096"),
]


@pytest.mark.parametrize(("scenario", "probe", "message"), PROBE_ERRORS)
def test_each_per_probe_error_has_its_exact_text(scenario, probe, message):
    # the whole text of each per-probe error, now formatted only on failure
    data = {**scenario, "probes": [probe]} if scenario else _minimal_dict(probes=[{"x": 0.25, "y": 0.5}, probe])
    with pytest.raises(ConfigError) as info:
        Scenario.from_dict(data)
    assert str(info.value) == message


KIND_ROWS = [("scheme", kind) for kind in SCHEMES] + [("z_space", kind) for kind in Z_SPACES]


@pytest.mark.parametrize("broken", ["unknown_key", "not_a_dict"])
@pytest.mark.parametrize("what, kind", KIND_ROWS)
def test_every_kind_row_rejects_unknown_keys_and_non_dicts(what, kind, broken):
    cfg = {"kind": kind, "colour": "red"} if broken == "unknown_key" else [kind]
    with pytest.raises(ConfigError) as info:
        Scenario.from_dict(_minimal_dict(**{what: cfg}))
    expected = f"unknown {kind} {what} keys ['colour']" if broken == "unknown_key" else f"bad {what} [{kind!r}]; kinds are "
    assert str(info.value).startswith(expected)
    assert not isinstance(info.value.__cause__, ConfigError)


def test_a_grid_level_of_a_million_parses_and_passes():
    # not a power of two, but its tents' node rounding stays within the weight tolerance on [-1, 1]
    xs = [-1.0, 1.0, 0.3, math.nextafter(0.3, 1.0), 1 / 3, 0.0, 1e-7, -0.999999]
    data = _minimal_dict(
        function="sine_sum",
        scheme={"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0},
        probes=[{"x": x, "y": 0.5} for x in xs],
        schedule=[256, 512, 10**6],
    )
    assert run_scenario(Scenario.from_dict(data))["summary"]["all_passed"]


def test_schedule_must_increase():
    with pytest.raises(ConfigError):
        Scenario.from_dict(_minimal_dict(schedule=[4, 2, 1]))
    with pytest.raises(ConfigError):
        Scenario.from_dict(_minimal_dict(schedule=[0, 1]))


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError):
        load_scenario_file(bad)


# -------------------------------------------------------------------- running


def test_constant_blend_runs_exact():
    sc = Scenario.from_dict(_minimal_dict())
    rep = run_scenario(sc)
    assert rep["summary"]["all_passed"]
    (rec,) = rep["records"]
    assert rec["target"] == 0.5
    assert rec["terms"] == (0.5, 0.5, 0.5)
    assert rec["final_gap"] == 0.0


def test_tower_tail_levels_are_bounded():
    origin = {**FAN, "probes": [{"x": {"sequential": ["origin"]}, "y": 0.5}]}
    assert Scenario.from_dict(_minimal_dict(**origin, schedule=[1, 2, MAX_STAGE])).config["schedule"][-1] == MAX_STAGE
    with pytest.raises(ConfigError, match="at most"):
        Scenario.from_dict(_minimal_dict(**origin, schedule=[1, 2, MAX_STAGE + 1]))


def test_ambiguous_scenario_converges_on_cores():
    sc = Scenario.from_dict(
        {
            "name": "amb",
            "function": "half_line_split",
            "operator": "ambiguous_limit",
            "probes": [{"x": -0.7, "y": 0.3}, {"x": 1.2, "y": 0.3}, {"x": 0.0, "y": 1.0}],
            "schedule": [1, 2, 4, 8, 16, 32, 64],
            "eps": 1e-3,
        }
    )
    rep = run_scenario(sc)
    assert rep["summary"] == {"probes": 3, "passed": 3, "failed": 0, "all_passed": True}


def test_failing_probe_is_reported_not_raised():
    sc = Scenario.from_dict(
        _minimal_dict(
            function="bilinear_ratio",
            scheme={"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0},
            probes=[{"x": 0.3, "y": 0.8}],
            schedule=[1, 2, 4],
            eps=1e-12,
        )
    )
    rep = run_scenario(sc)
    assert not rep["summary"]["all_passed"]
    assert rep["summary"]["failed"] == 1


def test_bilinear_ratio_where_both_squares_underflow():
    ratio = REGISTRY["bilinear_ratio"].make().eval
    assert ratio(1e-300, 0.0) == 0.0
    assert ratio(0.0, 1e-300) == 0.0
    assert ratio(1e-300, 1e-300) == 1.0
    assert ratio(5e-324, 5e-324) == 1.0


def test_bilinear_ratio_where_the_squares_overflow():
    ratio = REGISTRY["bilinear_ratio"].make().eval
    for big in (1e200, 1e308, -1e308):
        assert ratio(big, big) == 1.0
        assert ratio(big, -big) == -1.0
    # mixed magnitudes, scaled and not: the formula rounds three times, each
    # within half an ulp, so the ratio is within 3 * 2**-53 of the exact one
    for x, y in ((1e15, 1e300), (1e-100, 1e151), (3.3e150, 1.0), (7e250, 1e300), (-2e305, 5e300), (1e-300, 1e-200), (5e-324, 1e-300)):
        exact = 2 * Fraction(x) * Fraction(y) / (Fraction(x) ** 2 + Fraction(y) ** 2)
        assert abs(Fraction(ratio(x, y)) - exact) <= Fraction(3, 2**53) * abs(exact), (x, y)


def test_bilinear_ratio_blend_runs_at_overflowing_probes():
    scheme = {"kind": "grid", "dim": 1, "lo": -1e15, "hi": 1e15}
    probes = [{"x": 1e15, "y": 1e300}, {"x": 1e15, "y": 1e15}]
    rep = run_scenario(Scenario.from_dict(_minimal_dict(function="bilinear_ratio", scheme=scheme, probes=probes, schedule=[1, 2, 4])))
    assert all(math.isfinite(t) for r in rep["records"] for t in r["terms"])
    assert json.loads(render_json(rep))["records"][1]["target"] == 1.0


@pytest.mark.parametrize("probe", [{"x": 1e-300, "y": 0.0}, {"x": 0.5, "y": 1e-300}], ids=["target", "term_at_anchor_0"])
def test_bilinear_ratio_blend_runs_at_underflowing_probes(probe):
    scheme = {"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0}
    rep = run_scenario(Scenario.from_dict(_minimal_dict(function="bilinear_ratio", scheme=scheme, probes=[probe])))
    assert rep["summary"]["all_passed"]


# -------------------------------------------------------------- serialization


def test_render_json_is_stable_and_roundtrips():
    sc = Scenario.from_dict(_minimal_dict())
    s1 = render_json(run_scenario(sc))
    s2 = render_json(run_scenario(sc))
    assert s1 == s2
    assert s1.endswith("\n")
    back = json.loads(s1)
    assert back["summary"]["all_passed"] is True
    assert back["scenario"]["name"] == "demo"


def _dumps(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 2.0**53])
_strings = st.text(max_size=6) | st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é€😀", "\ud800"])
# json_values, with tuples, flat float lists, all-scalar dicts and escapes mixed in
_report_like = st.recursive(
    json_values | _finite | _strings,
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.lists(_finite, max_size=8)
    | st.lists(_finite, max_size=8).map(tuple)
    | st.dictionaries(_strings, inner, max_size=4)
    | st.dictionaries(_strings, scalars | _finite | _strings, max_size=6),
    max_leaves=16,
)


@FUZZ
@given(_report_like)
def test_render_json_writes_the_bytes_of_json_dumps(value):
    try:
        expected = _dumps(value)
    except ValueError:  # a nan or an infinity somewhere
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_json(value)
        return
    assert render_json(value) == expected


def test_render_json_writes_every_shipped_report_as_json_dumps():
    reports = [run_scenario(load_scenario_file(path)) for path in sorted(SCENARIO_DIR.glob("*.json"))]
    for report in reports:
        assert render_json(report) == _dumps(report)
    assert render_json(suite_data(reports)) == _dumps(suite_data(reports))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_render_json_refuses_a_nested_non_finite_float(bad):
    for value in (bad, [0.5, bad, 0.25], [0.5, 0.25, bad], (bad,), {"a": [[1, bad]]}, {"a": {"b": bad}}, [{"terms": (0.5, bad)}], {"a": 0.5, "b": "s", "c": bad, "d": 1}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_json(value)


def test_render_json_refuses_types_a_report_never_holds():
    # json refuses sets and objects as well; a non-string key, which json
    # writes as a string, is refused too
    for value in ({"a": {1, 2}}, [object()], {1: 0.5}):
        with pytest.raises(TypeError):
            render_json(value)


def test_float_formatting_roundtrips_exactly():
    sc = Scenario.from_dict(
        _minimal_dict(probes=[{"x": 0.1, "y": 0.2}], schedule=[1, 2, 4])
    )
    rep = run_scenario(sc)
    back = json.loads(render_json(rep))
    assert back["records"][0]["x"] == 0.1
    assert back["records"][0]["target"] == 0.5


def test_suite_data_counts_scenarios():
    sc = Scenario.from_dict(_minimal_dict())
    reports = [run_scenario(sc), run_scenario(sc)]
    data = suite_data(reports)
    assert data["summary"]["scenarios"] == 2
    assert data["summary"]["all_passed"] is True


def test_render_csv_shape():
    sc = Scenario.from_dict(_minimal_dict())
    rep = run_scenario(sc)
    text = render_csv([rep])
    lines = text.strip().split("\n")
    assert lines[0] == "scenario,probe,x,y,target,passed,final_gap,last_term"
    assert len(lines) == 2
    assert lines[1].split(",")[5] == "true"


def test_empty_probe_list_yields_a_vacuous_report():
    sc = Scenario.from_dict(_minimal_dict(probes=[]))
    rep = run_scenario(sc)
    assert rep["records"] == []
    assert rep["summary"] == {"probes": 0, "passed": 0, "failed": 0, "all_passed": True}
    assert json.loads(render_json(rep))["records"] == []
    assert render_csv([rep]).strip().split("\n") == [
        "scenario,probe,x,y,target,passed,final_gap,last_term"
    ]


def test_csv_and_json_agree_numerically():
    sc = Scenario.from_dict(
        _minimal_dict(function="sine_sum", probes=[{"x": 0.3, "y": 0.7}, {"x": 0.6, "y": 0.1}])
    )
    rep = run_scenario(sc)
    back = json.loads(render_json(rep))
    rows = render_csv([rep]).strip().split("\n")[1:]
    assert len(rows) == len(back["records"])
    for row, rec in zip(rows, back["records"]):
        cells = row.split(",")
        assert float(cells[2]) == rec["x"]
        assert float(cells[3]) == rec["y"]
        assert float(cells[4]) == rec["target"]
        assert (cells[5] == "true") == rec["passed"]
        assert float(cells[6]) == rec["final_gap"]
        assert float(cells[7]) == rec["terms"][-1]


# ----------------------------------------------------------------- CLI layer


def _cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "equiblend.cli", *args],
        capture_output=True,
        text=True,
        cwd=str(SCENARIO_DIR.parent),
    )


def test_cli_list_names_everything():
    out = _cli("list")
    assert out.returncode == 0
    for name in ("constant", "bilinear_ratio", "example1", "half_line_split"):
        assert name in out.stdout
    listed = out.stdout.split()
    for name in (*OPERATORS, *SCHEMES):
        assert name in listed
    assert "none" not in listed


def test_cli_run_passes_and_prints_json():
    out = _cli("run", str(SCENARIO_DIR / "blend_constant.json"))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["summary"]["all_passed"] is True


def test_cli_run_csv_format():
    out = _cli("run", str(SCENARIO_DIR / "blend_constant.json"), "--format", "csv")
    assert out.returncode == 0
    assert out.stdout.startswith("scenario,probe,")


def test_cli_exit_one_on_failed_probes():
    out = _cli("run", str(SCENARIO_DIR / "blend_grid.json"), "--eps", "1e-15")
    assert out.returncode == 1


def test_cli_exit_two_on_config_trouble(tmp_path):
    out = _cli("run", str(tmp_path / "nope.json"))
    assert out.returncode == 2
    assert "config error" in out.stderr
    empty = tmp_path / "empty"
    empty.mkdir()
    out2 = _cli("suite", str(empty))
    assert out2.returncode == 2


def test_cli_suite_reads_the_files_path_glob_matches(tmp_path, monkeypatch, in_process_main):
    # dotfiles and *.json directories match, case counts, order is sorted;
    # the run records each path it loads
    for name in ("b.json", "a.json", ".hidden.json", ".json", "B.json", "UPPER.JSON", "c.jsonx", "d.json.bak", "space name.json", "\u00e9.json"):
        (tmp_path / name).write_text((SCENARIO_DIR / "blend_constant.json").read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "folder.json").mkdir()
    (tmp_path / "folder").mkdir()
    loaded = []
    load = cli.load_scenario_file
    monkeypatch.setattr(cli, "load_scenario_file", lambda path: loaded.append(path) or load(SCENARIO_DIR / "blend_constant.json"))
    code, stdout, stderr = in_process_main("suite", str(tmp_path), "--out", str(tmp_path / "report"))
    assert (code, stdout, stderr) == (0, "", "")
    assert loaded == [str(path) for path in sorted(tmp_path.glob("*.json"))]  # the CLI passes path strings
    assert str(tmp_path / "folder.json") in loaded and str(tmp_path / ".hidden.json") in loaded
    # a missing directory, or a path that is a file, holds no scenario files
    for path in (tmp_path / "missing", tmp_path / "a.json"):
        code, stdout, stderr = in_process_main("suite", str(path))
        assert (code, stdout) == (2, "")
        assert stderr == f"config error: no scenario files (*.json) in {path}\n"


def test_cli_suite_parses_every_file_before_it_runs_any(tmp_path, monkeypatch, in_process_main):
    (tmp_path / "a.json").write_text(json.dumps(_minimal_dict()), encoding="utf-8")
    (tmp_path / "b.json").write_text("{", encoding="utf-8")
    runs = []
    monkeypatch.setattr(cli, "run_scenario", runs.append)
    code, stdout, stderr = in_process_main("suite", str(tmp_path))
    assert (code, stdout, runs) == (2, "", [])
    assert stderr.startswith(f"config error: scenario {tmp_path / 'b.json'} is not valid UTF-8 JSON")
    assert len(stderr.splitlines()) == 1


def _level_builds(monkeypatch) -> list:
    """Records (scheme kind, n) for every level any scheme made from now on builds."""
    builds = []
    init = partitions.AnchoredScheme.__init__

    def counting(self, n_max, neighborhood, tag, build_level, describe):
        init(self, n_max, neighborhood, tag, lambda n: builds.append((describe["kind"], n)) or build_level(n), describe)

    monkeypatch.setattr(partitions.AnchoredScheme, "__init__", counting)
    return builds


def test_cli_suite_builds_a_shared_sorgenfrey_level_once(tmp_path, monkeypatch, in_process_main):
    names = ("anchor_sorgenfrey.json", "blend_sorgenfrey.json")
    for name in names:
        (tmp_path / name).write_text((SCENARIO_DIR / name).read_text(encoding="utf-8"), encoding="utf-8")
    builds = _level_builds(monkeypatch)
    code, stdout, stderr = in_process_main("suite", str(tmp_path))
    assert (code, stderr) == (0, "")
    assert builds == [("sorgenfrey", n) for n in DEFAULT_SCHEDULE]
    # each report is the one that file gives alone
    for name, report in zip(names, json.loads(stdout)["scenarios"]):
        assert in_process_main("run", str(SCENARIO_DIR / name)) == (0, render_json(report), "")


def test_cli_suite_shares_a_scheme_only_between_equal_configs(tmp_path, monkeypatch, in_process_main):
    # a and a_too read the same grid; b's longer schedule makes a scheme to a larger n_max
    scenarios = {
        "a": _minimal_dict(name="a"),
        "a_too": _minimal_dict(name="a_too", probes=[{"x": 0.75, "y": 0.5}]),
        "b": _minimal_dict(name="b", schedule=[1, 2, 4, 8]),
    }
    for name, data in scenarios.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
    builds = _level_builds(monkeypatch)
    code, stdout, stderr = in_process_main("suite", str(tmp_path), "--out", str(tmp_path / "report"))
    assert (code, stdout, stderr) == (0, "", "")
    assert builds == [("grid", n) for n in (1, 2, 4, 1, 2, 4, 8)]


RECORD_KEYS = ("x", "y", "target", "terms", "gaps", "passed", "final_gap")
ONE_SCENARIO_PER_OPERATOR = {
    "lambda_blend": "blend_grid.json",
    "piecewise_anchor": "anchor_sorgenfrey.json",
    "ambiguous_limit": "ambiguous_two_cell.json",
    "tower_tail": "fan_towers.json",
}


@pytest.mark.parametrize("operator", sorted(ONE_SCENARIO_PER_OPERATOR))
def test_a_report_is_the_data_the_cli_writes(tmp_path, in_process_main, operator):
    # run_scenario's dict literal alone fixes a record's keys and their order
    path = SCENARIO_DIR / ONE_SCENARIO_PER_OPERATOR[operator]
    report = run_scenario(load_scenario_file(path))
    assert report["scenario"]["operator"] == operator
    assert tuple(report) == ("scenario", "records", "summary")
    assert report["records"] and [tuple(r) for r in report["records"]] == [RECORD_KEYS] * len(report["records"])
    for fmt, text in (("json", render_json(report)), ("csv", render_csv([report]))):
        out = tmp_path / f"report.{fmt}"
        assert in_process_main("run", str(path), "--format", fmt, "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == text.encode("utf-8")


def test_cli_reports_match_the_benchmark_reference_digests(tmp_path, monkeypatch, in_process_main):
    # the shipped suite and every probe of the benchmark's probes and levels
    # pools, against the digests in bench/references; the grid1_warped
    # digests hold numpy.cbrt's last bits on the CPU they were made on
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    for workload in ("suite", "probes", "levels"):
        directory = SCENARIO_DIR if workload == "suite" else tmp_path / workload
        if workload != "suite":
            workloads.write_generated(workload, 0, directory, full_pool=True)
        report = tmp_path / f"{workload}.json"
        code, stdout, stderr = in_process_main("suite", str(directory), "--out", str(report))
        assert (code in (0, 1), stdout, stderr) == (True, "", "")
        records = workloads.report_records(json.loads(report.read_text(encoding="utf-8")))
        digests = {name: {workloads.probe_key(r): workloads.record_digest(r) for r in rs} for name, rs in records.items()}
        assert digests == workloads.load_reference(workload), workload


def test_cli_schedule_override_validation():
    out = _cli(
        "run", str(SCENARIO_DIR / "blend_constant.json"), "--schedule", "4,2"
    )
    assert out.returncode == 2


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_non_finite_eps_is_a_config_error(value):
    out = _cli("run", str(SCENARIO_DIR / "blend_constant.json"), "--eps", value)
    assert out.returncode == 2
    assert out.stderr.startswith("config error:")
    assert len(out.stderr.splitlines()) == 1


def test_cli_main_freezes_the_heap_and_leaves_collection_on(capsys, monkeypatch):
    # main freezes what is alive as it returns, so the exit-time collection
    # skips it; objects made afterwards are still collected
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # restored after main sets it

    class Node:
        pass

    frozen = gc.get_freeze_count()
    try:
        assert main(["list"]) == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() > frozen
        node = Node()
        node.cycle = node
        ref = weakref.ref(node)
        del node
        gc.collect()
        assert ref() is None
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out.startswith("functions:\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command, target", [("run", "blend_constant.json"), ("suite", "")])
def test_cli_exit_loses_no_output(tmp_path, command, target, fmt):
    # objects frozen by main are never finalized, so a writer left open at
    # exit would drop its buffer: stdout and --out must carry the same bytes
    argv = [sys.executable, "-m", "equiblend.cli", command, str(SCENARIO_DIR / target), "--format", fmt]
    out = tmp_path / f"report.{fmt}"
    printed = subprocess.run(argv, capture_output=True, cwd=str(SCENARIO_DIR.parent))
    written = subprocess.run([*argv, "--out", str(out)], capture_output=True, cwd=str(SCENARIO_DIR.parent))
    assert printed.returncode == written.returncode == 0, printed.stderr
    assert printed.stdout
    assert written.stdout == b""
    assert out.read_bytes() == printed.stdout


def test_cli_import_leaves_typing_unloaded(tmp_path):
    # under -S, because site's .pth hooks may import typing themselves: the
    # package takes its abstract bases from collections.abc and keeps its
    # annotations as strings.  The CLI reads argv without argparse (whose
    # messages pull in gettext and locale), reads and writes files without
    # pathlib, and csv loads only for --format csv
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import equiblend.cli; "
        "loaded = lambda names: sorted(name for name in names if name in sys.modules); "
        "print(loaded(['typing', 'argparse', 'gettext', 'locale', 'csv', 'pathlib'])); "
        "equiblend.cli.main(['suite', sys.argv[2], '--out', sys.argv[3]]); "
        "print(loaded(['argparse', 'locale', 'csv', 'pathlib']))"
    )
    argv = [sys.executable, "-S", "-c", code, str(SCENARIO_DIR.parent / "src"), str(SCENARIO_DIR), str(tmp_path / "suite.json")]
    out = subprocess.run(argv, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]
    assert (tmp_path / "suite.json").stat().st_size > 0


def test_cli_import_leaves_scipy_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, equiblend.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _modules_after_main(*argv: str):
    """Run ``cli.main(argv)`` in a fresh interpreter; (exit code, numpy
    loaded, scipy loaded) afterwards."""
    code = (
        "import sys; from equiblend.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, cwd=str(SCENARIO_DIR.parent))
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_cli_suite_loads_neither_numpy_nor_scipy(tmp_path):
    assert _modules_after_main("suite", str(SCENARIO_DIR), "--out", str(tmp_path / "suite.json")) == ["0", "False", "False"]


def test_cli_warped_scenario_loads_numpy(tmp_path):
    # the warped z-space's inverse keeps numpy's cbrt, the one lazy numpy use
    # on the CLI's path
    path = tmp_path / "warped.json"
    path.write_text(json.dumps(_minimal_dict(z_space={"kind": "warped"})))
    assert _modules_after_main("run", str(path), "--out", str(tmp_path / "run.json")) == ["0", "True", "False"]


def _blas_after_main(preset: str | None, *argv: str):
    """Run ``cli.main(argv)`` in a fresh interpreter whose
    OPENBLAS_NUM_THREADS is ``preset`` (unset for None); (exit code, the
    variable, the process's thread count or None without /proc) afterwards."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import os, sys; from equiblend.cli import main; code = main(sys.argv[1:]); "
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None; "
        "print(code, os.environ.get('OPENBLAS_NUM_THREADS'), tasks)"
    )
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, cwd=str(SCENARIO_DIR.parent), env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_cli_numpy_starts_no_blas_worker_threads(tmp_path):
    # the CLI never calls BLAS, so OpenBLAS's idle workers would only busy-wait
    # beside the run; a value the user set is kept
    path = tmp_path / "warped.json"
    path.write_text(json.dumps(_minimal_dict(z_space={"kind": "warped"})))
    argv = ("run", str(path), "--out", str(tmp_path / "run.json"))
    code, threads, tasks = _blas_after_main(None, *argv)
    assert (code, threads) == ("0", "1")
    assert tasks in ("1", "None")
    assert _blas_after_main("2", *argv)[:2] == ["0", "2"]


def test_cli_suite_reruns_byte_identical(tmp_path):
    # a two-scenario copy keeps this quick; determinism is byte-for-byte
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    for name in ("blend_constant.json", "ambiguous_two_cell.json"):
        (suite_dir / name).write_text((SCENARIO_DIR / name).read_text())
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    r1 = _cli("suite", str(suite_dir), "--out", str(one))
    r2 = _cli("suite", str(suite_dir), "--out", str(two))
    assert r1.returncode == 0 and r2.returncode == 0
    assert one.read_bytes() == two.read_bytes()


# a non-dyadic level's tents round their nodes, so their weight sum drifts
# past the tolerance at large levels
SINE_ON_PM1 = {"function": "sine_sum", "scheme": {"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0}, "probes": [{"x": 0.3, "y": 0.5}]}
MALFORMED = {
    "affine_z_lo_above_hi": {"z_space": {"kind": "affine", "lo": 1.0, "hi": 0.0}},
    "sorgenfrey_domain_not_numbers": {"scheme": {"kind": "sorgenfrey", "domain": [0.0, "x"]}},
    "sorgenfrey_domain_empty": {"scheme": {"kind": "sorgenfrey", "domain": []}},
    "sorgenfrey_domain_one_number": {"scheme": {"kind": "sorgenfrey", "domain": [0.5]}},
    "grid_lo_not_a_number": {"scheme": {"kind": "grid", "dim": 1, "lo": "x", "hi": 1.0}},
    "grid_side_not_whole": {"scheme": {"kind": "grid", "dim": 1, "lo": 0.0, "hi": 1.5}},
    "grid_side_whole_only_within_rounding": {"scheme": {"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0000000001}},
    "z_dim_not_a_number": {"z_space": {"kind": "line", "dim": "x"}},
    "z_dim_two": {"z_space": {"kind": "line", "dim": 2}},
    "scalar_function_on_dim2_grid": {
        "function": "sine_sum",
        "scheme": {"kind": "grid", "dim": 2, "lo": 0.0, "hi": 1.0},
        "probes": [{"x": [0.25, 0.5], "y": 0.5}],
    },
    "box_x_space_without_lo": {"x_space": {"kind": "box", "hi": 1.0}},
    "probe_outside_the_scheme": {"x_space": {"kind": "real_line"}, "probes": [{"x": 3.0, "y": 0.5}]},
    "unknown_x_space_without_probes": {"x_space": {"kind": "sphere"}, "probes": []},
    "grid_dim_not_an_integer": {"scheme": {"kind": "grid", "dim": 1.7, "lo": 0.0, "hi": 1.0}},
    "grid_dim_above_the_bound": {"scheme": {"kind": "grid", "dim": MAX_DIM + 1, "lo": 0.0, "hi": 1.0}, "probes": []},
    "z_dim_not_an_integer": {"z_space": {"kind": "line", "dim": 1.5}},
    "schedule_shorter_than_the_tail": {"schedule": [1, 2]},
    "scalar_function_with_list_x": {"function": "sine_sum", "probes": [{"x": [0.5], "y": 0.5}]},
    "ambiguous_probe_no_core_captures": {
        "function": "half_line_split",
        "operator": "ambiguous_limit",
        "scheme": {"kind": "none"},
        "probes": [{"x": -0.0001, "y": 0.5}],
    },
    "warped_z_with_dim": {"z_space": {"kind": "warped", "dim": 2}},
    "line_z_with_hi": {"z_space": {"kind": "line", "hi": "x"}},
    "grid_scheme_with_n": {"scheme": {"kind": "grid", "dim": 1, "lo": 0.0, "hi": 1.0, "n": 5}},
    "sorgenfrey_scheme_with_dim": {"scheme": {"kind": "sorgenfrey", "dim": 3}},
    "box_x_space_with_extra_key": {"x_space": {"kind": "box", "lo": 0.0, "hi": 1.0, "side": 2}},
    "grid_hi_infinite": {"scheme": {"kind": "grid", "dim": 1, "lo": 0.0, "hi": math.inf}},
    "affine_z_hi_infinite": {"z_space": {"kind": "affine", "hi": math.inf}},
    "probe_y_infinite": {"probes": [{"x": 0.25, "y": math.inf}]},
    "probe_x_beyond_the_floats": {"probes": [{"x": 10**400, "y": 0.5}]},
    "eps_beyond_the_floats": {"eps": 10**400},
    "rational_y_beyond_the_floats": {"probes": [{"x": 0.25, "y": {"rational": [10**400, 1]}}]},
    "rational_y_above_the_bound": {"probes": [{"x": 0.25, "y": {"rational": [MAX_STAGE, 1]}}]},
    "grid_level_beyond_the_floats": {"schedule": [1, 2, 10**400]},
    "grid_level_finer_than_the_floats": {"schedule": [1, 2, 10**18]},
    "anchor_sorgenfrey_level_beyond_the_floats": {"operator": "piecewise_anchor", "scheme": {"kind": "sorgenfrey"}, "schedule": [1, 2, 10**400]},
    "anchor_sorgenfrey_level_finer_than_the_floats": {"operator": "piecewise_anchor", "scheme": {"kind": "sorgenfrey"}, "schedule": [1, 2, 10**18]},
    "blend_sorgenfrey_level_finer_than_the_floats": {"scheme": {"kind": "sorgenfrey"}, "schedule": [1, 2, 10**18]},
    "fan_row_not_an_integer": {**FAN, "probes": [{"x": {"sequential": ["level", 2.7]}, "y": 0.5}]},
    "fan_leaf_not_an_integer": {**FAN, "probes": [{"x": {"sequential": ["leaf", 3, 9.5]}, "y": 0.5}]},
    "fan_row_a_bool": {**FAN, "probes": [{"x": {"sequential": ["level", True]}, "y": 0.5}]},
    "fan_row_a_string": {**FAN, "probes": [{"x": {"sequential": ["level", "3"]}, "y": 0.5}]},
    "fan_row_infinite": {**FAN, "probes": [{"x": {"sequential": ["level", math.inf]}, "y": 0.5}]},
    "fan_row_above_the_bound": {**FAN, "probes": [{"x": {"sequential": ["level", MAX_STAGE + 1]}, "y": 0.5}]},
    "fan_row_huge": {**FAN, "probes": [{"x": {"sequential": ["level", 10**400]}, "y": 0.5}]},
    "fan_leaf_beyond_the_floats": {**FAN, "probes": [{"x": {"sequential": ["leaf", 3, 10**400]}, "y": 0.5}]},
    "fan_leaf_row_above_the_bound": {**FAN, "probes": [{"x": {"sequential": ["leaf", MAX_STAGE + 1, 2**50]}, "y": 0.5}]},
    "fan_tower_level_huge": {**FAN, "probes": [{"x": {"sequential": ["origin"]}, "y": 0.5}], "schedule": [1, 2, 10**400]},
    # tower_tail takes only sequential functions, so this is a kind mismatch
    "tower_tail_without_an_anchor_tower": {"function": "sine_sum", "operator": "tower_tail", "scheme": {"kind": "none"}},
    "grid_lo_a_numeric_string": {"scheme": {"kind": "grid", "dim": 1, "lo": "0.5", "hi": 1.0}},
    "grid_hi_a_bool": {"scheme": {"kind": "grid", "dim": 1, "lo": 0.0, "hi": True}},
    "grid_without_dim": {"scheme": {"kind": "grid", "lo": 0.0, "hi": 1.0}},
    "z_dim_a_float_one": {"z_space": {"kind": "line", "dim": 1.0}},
    "grid_level_3_to_the_30": {**SINE_ON_PM1, "schedule": [1, 2, 3**30]},
    "grid_level_10_to_the_15_plus_1": {**SINE_ON_PM1, "schedule": [1, 2, 10**15 + 1]},
    "grid_level_7_to_the_18": {**SINE_ON_PM1, "schedule": [1, 2, 7**18]},
    "dim2_grid_level_3_to_the_30": {
        "scheme": {"kind": "grid", "dim": 2, "lo": -1.0, "hi": 1.0},
        "probes": [{"x": [0.3, -0.2], "y": 0.5}],
        "schedule": [1, 2, 3**30],
    },
    "anchor_grid_level_3_to_the_30": {**SINE_ON_PM1, "operator": "piecewise_anchor", "schedule": [1, 2, 3**30]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_scenario_is_one_config_error_line(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_minimal_dict(**MALFORMED[name])))
    out = _cli("run", str(path))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error:")
    assert len(out.stderr.splitlines()) == 1
    assert "Traceback" not in out.stderr


def _scenario_in_suite(tmp_path, data: bytes):
    """One scenario file, alone in its directory: (the file, the directory)."""
    suite = tmp_path / "suite"
    suite.mkdir()
    path = suite / "scenario.json"
    path.write_bytes(data)
    return path, suite


@pytest.mark.parametrize("command", ["run", "suite"])
def test_cli_non_utf8_scenario_is_one_config_error_line(tmp_path, command):
    latin1 = json.dumps(_minimal_dict(name="caf\u00e9"), ensure_ascii=False).encode("latin-1")
    path, suite = _scenario_in_suite(tmp_path, latin1)
    out = _cli(command, str(path if command == "run" else suite))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error:")
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "suite"])
def test_cli_deeply_nested_scenario_is_one_config_error_line(tmp_path, command):
    path, suite = _scenario_in_suite(tmp_path, b"[" * 100_000 + b"]" * 100_000)
    out = _cli(command, str(path if command == "run" else suite))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error:")
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "suite"])
def test_cli_unwritable_out_is_one_config_error_line(tmp_path, command):
    path, suite = _scenario_in_suite(tmp_path, json.dumps(_minimal_dict()).encode())
    out = _cli(command, str(path if command == "run" else suite), "--out", str(tmp_path / "missing" / "report.json"))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error: cannot write")
    assert len(out.stderr.splitlines()) == 1


@pytest.fixture
def in_process_main(capsys, monkeypatch):
    """Call ``cli.main`` here, undoing the heap freeze it makes as it
    returns; yields (exit code, stdout, stderr)."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # restored after main sets it

    def call(*argv):
        try:
            code = main(list(argv))
        finally:
            gc.unfreeze()
        return (code, *capsys.readouterr())

    return call


USAGE_ERRORS = {
    "no_command": [],
    "unknown_command": ["bogus", "--out", "OUT"],
    "flag_before_command": ["--out", "OUT", "suite"],
    "unknown_flag": ["suite", "scenarios", "--out", "OUT", "--bogus", "1"],
    "abbreviated_flag": ["suite", "scenarios", "--out", "OUT", "--form", "csv"],
    "flag_of_another_command": ["suite", "scenarios", "--out", "OUT", "--eps", "0.1"],
    "list_takes_no_flag": ["list", "--out", "OUT"],
    "value_missing_at_end": ["run", "scenarios/blend_constant.json", "--out", "OUT", "--eps"],
    "value_is_a_flag": ["suite", "scenarios", "--format", "--out", "OUT"],
    "bad_format": ["suite", "scenarios", "--out", "OUT", "--format", "xml"],
    "bad_format_inline": ["run", "scenarios/blend_constant.json", "--out", "OUT", "--format=JSON"],
    "eps_not_a_float": ["run", "scenarios/blend_constant.json", "--out", "OUT", "--eps", "tiny"],
    "missing_scenario": ["run", "--out", "OUT"],
    "extra_positional": ["suite", "scenarios", "scenarios", "--out", "OUT"],
    "list_takes_no_positional": ["list", "scenarios"],
    "empty_out_run": ["run", "scenarios/blend_constant.json", "--out", ""],
    "empty_out_run_inline": ["run", "scenarios/blend_constant.json", "--out="],
    "empty_out_suite": ["suite", "scenarios", "--out", ""],
    "empty_out_suite_inline": ["suite", "scenarios", "--out="],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_cli_usage_error_is_the_usage_line_and_one_error_line(tmp_path, monkeypatch, in_process_main, name):
    # exit 2 before anything runs: no report, no --out file, no traceback
    monkeypatch.chdir(SCENARIO_DIR.parent)
    out = tmp_path / "report.json"
    code, stdout, stderr = in_process_main(*(word.replace("OUT", str(out)) for word in USAGE_ERRORS[name]))
    assert code == 2
    assert stdout == ""
    assert re.fullmatch(r"usage: equiblend [^\n]+\nequiblend: error: [^\n]+\n", stderr), stderr
    assert not out.exists()


SPELLINGS = {
    "inline_value": (["suite", "scenarios", "--out=OUT"], ["suite", "scenarios", "--out", "OUT"]),
    "flags_before_positional": (["suite", "--format", "csv", "--out", "OUT", "scenarios"], ["suite", "scenarios", "--format", "csv", "--out", "OUT"]),
    "default_directory": (["suite", "--out", "OUT"], ["suite", "scenarios", "--out", "OUT"]),
    "last_repeat_wins": (["suite", "scenarios", "--format", "csv", "--out", "OUT", "--format=json"], ["suite", "scenarios", "--out", "OUT"]),
    "run_flags_first": (["run", "--eps=1e-3", "--schedule", "2,4,8", "--out", "OUT", "scenarios/blend_grid.json"], ["run", "scenarios/blend_grid.json", "--eps", "1e-3", "--schedule", "2,4,8", "--out", "OUT"]),
}


@pytest.mark.parametrize("name", sorted(SPELLINGS))
def test_cli_accepted_spellings_write_the_canonical_report(tmp_path, monkeypatch, in_process_main, name):
    monkeypatch.chdir(SCENARIO_DIR.parent)
    runs = []
    for index, argv in enumerate(SPELLINGS[name]):
        out = tmp_path / f"report{index}"
        code, stdout, stderr = in_process_main(*(word.replace("OUT", str(out)) for word in argv))
        assert code in (0, 1) and (stdout, stderr) == ("", ""), stderr
        runs.append((code, out.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["run", "--help"], ["suite", "-h"], ["list", "--help"], ["suite", "--format", "csv", "--help", "--bogus"]])
def test_cli_help_returns_zero_and_names_every_command_and_flag(in_process_main, argv):
    code, stdout, stderr = in_process_main(*argv)
    assert (code, stderr) == (0, "")
    assert stdout.startswith("usage: equiblend ")
    commands = COMMANDS if argv[0].startswith("-") else [argv[0]]
    for command in commands:
        assert command in stdout
        assert COMMANDS[command][0] in stdout
        for flag in COMMANDS[command][2]:
            assert f"[{flag} " in stdout


def test_readme_names_every_flag_of_run_and_suite():
    readme = (SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = set()
    for command in ("run", "suite"):
        out = _cli(command, "--help")
        assert out.returncode == 0, out.stderr
        flags |= set(re.findall(r"--[a-z][a-z-]*", out.stdout)) - {"--help"}
    assert flags == set(re.findall(r"--[a-z][a-z-]*", section))


DERIVED_X_SPACES = {
    "box": ({"scheme": {"kind": "grid", "dim": 1, "lo": 0.0, "hi": 1.0}}, {"kind": "box", "dim": 1, "lo": 0.0, "hi": 1.0}),
    "half_open_line": ({"scheme": {"kind": "sorgenfrey", "domain": [0.0, 1.0]}}, {"kind": "half_open_line", "domain": [0.0, 1.0]}),
    "sequential_fan": ({**FAN, "probes": [{"x": {"sequential": ["origin"]}, "y": 0.5}]}, {"kind": "sequential_fan"}),
    "real_line": ({"function": "half_line_split", "operator": "ambiguous_limit", "scheme": {"kind": "none"}, "probes": [{"x": -0.7, "y": 0.3}], "schedule": [16, 32, 64]}, {"kind": "real_line"}),
}


@pytest.mark.parametrize("kind", sorted(DERIVED_X_SPACES))
def test_an_explicit_x_space_must_be_the_one_the_scheme_decides(tmp_path, kind):
    # the derived x_space is echoed byte for byte; any other, even one equal
    # to it in Python (true == 1), is one config error line
    base, derived = DERIVED_X_SPACES[kind]
    outputs = []
    for extra in ({}, {"x_space": derived}):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_minimal_dict(**base, **extra)))
        out = _cli("run", str(path))
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["scenario"]["x_space"] == derived
    if kind != "box":
        return
    for other in ({**derived, "lo": 0.25}, {**derived, "lo": -1.0}, {**derived, "dim": True}):
        path.write_text(json.dumps(_minimal_dict(**base, x_space=other)))
        out = _cli("run", str(path))
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("config error: x_space")
        assert len(out.stderr.splitlines()) == 1


def test_cli_anchor_runs_on_a_level_of_more_than_maxsize_keys(tmp_path):
    # dim 2 at n = 2**32 holds (2**33 + 1)**2 keys, more than len() can count
    data = _minimal_dict(
        operator="piecewise_anchor",
        scheme={"kind": "grid", "dim": 2, "lo": -1.0, "hi": 1.0},
        probes=[{"x": [0.25, 0.5], "y": 0.5}],
        schedule=[1, 2, 2**32],
    )
    path, _ = _scenario_in_suite(tmp_path, json.dumps(data).encode())
    out = _cli("run", str(path))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["records"][0]["terms"] == [0.5, 0.5, 0.5]


def test_the_finest_level_is_bounded_by_the_float_resolution_of_the_box():
    # math.ulp(1.0) is 2**-52: on [-1, 1] a mesh wider than that parses and
    # runs, and a mesh no wider is a configuration error
    box = {"scheme": {"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0}, "probes": [{"x": 0.25, "y": 0.5}, {"x": 1.0, "y": 0.5}]}
    report = run_scenario(Scenario.from_dict(_minimal_dict(**box, schedule=[1, 2, 2**51])))
    assert report["summary"]["all_passed"]
    with pytest.raises(ConfigError, match="finer than the floats resolve") as info:
        Scenario.from_dict(_minimal_dict(**box, schedule=[1, 2, 2**52]))
    assert str(2**52) not in str(info.value)


# ------------------------------------------------------------ package surface


def _names_read(tree: ast.AST) -> set:
    """Every name a module reads, attribute names included; names it only
    assigns are not read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _class_members(node: ast.ClassDef) -> set:
    """A class's methods and properties, its ``__slots__`` entries and its
    dataclass fields."""
    names = set()
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            names.add(item.name)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
            names |= {c.value for c in ast.walk(item.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def _names_defined(tree: ast.Module) -> set:
    """The functions, classes and assigned names at a module's top level,
    and the members of its classes, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
        if isinstance(node, ast.ClassDef):
            names |= _class_members(node)
    return {name for name in names if not name.startswith("__")}


def test_every_export_is_reached_by_the_package_or_an_acceptance_criterion():
    # every module-level name and class member of src/: one that only its
    # own unit tests reach is dead code
    root = SCENARIO_DIR.parent
    acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    used = _names_read(acceptance)  # an import alone reaches nothing
    defined = set()
    for path in (root / "src" / "equiblend").glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= _names_defined(tree)
        used |= _names_read(tree)
    assert sorted(defined - used) == []


# bench/spans.py calls dataclasses.replace on instances of these; every other
# class of the package is a plain class, which is cheaper to create at import
REPLACED_BY_THE_BENCH = {"ConnectorSpace", "DenseSet", "FunctionSpec", "SectionedFunction"}


def test_the_only_dataclasses_are_the_ones_the_bench_replaces():
    found = set()
    for path in (SCENARIO_DIR.parent / "src" / "equiblend").glob("*.py"):
        module = importlib.import_module(f"equiblend.{path.stem}") if path.stem != "__init__" else equiblend
        found |= {name for name, obj in vars(module).items() if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)}
    assert found == REPLACED_BY_THE_BENCH
