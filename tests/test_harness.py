"""Scenario harness: config validation, runs, serialization, CLI contract."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equiblend
from equiblend.gallery import SequentialPoint
from equiblend.harness import (
    ConfigError,
    DEFAULT_EPS,
    DEFAULT_SCHEDULE,
    MAX_STAGE,
    OPERATORS,
    REGISTRY,
    SCHEMES,
    Scenario,
    load_scenario_file,
    render_csv,
    render_json,
    report_data,
    run_scenario,
    suite_data,
)
from equiblend.partitions import SupportBox

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
    sc = Scenario.from_dict(
        {
            "name": "d",
            "function": "constant",
            "operator": "lambda_blend",
            "scheme": {"kind": "grid", "dim": 1, "lo": 0.0, "hi": 1.0},
            "probes": [{"x": 0.5, "y": 0.0}],
        }
    )
    assert sc.schedule == DEFAULT_SCHEDULE
    assert sc.eps == DEFAULT_EPS
    echo = sc.echo()
    assert list(echo.keys())[0] == "name"
    assert echo["schedule"] == list(DEFAULT_SCHEDULE)


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
    assert sc.fn_name == "half_line_split"


# the parse rules the operator table must keep: (operator, function kind, has scheme)
ACCEPTED_COMBINATIONS = {
    ("lambda_blend", "pointwise", True),
    ("piecewise_anchor", "pointwise", True),
    ("ambiguous_limit", "ambiguous", False),
    ("tower_tail", "pointwise", False),
    ("tower_tail", "sequential", False),
}
FUNCTION_OF_KIND = {
    "pointwise": ("example2", 0.0),
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
    assert rep.summary["probes"] == 1


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
    assert rep.summary["all_passed"]
    (rec,) = rep.records
    assert rec.target == 0.5
    assert rec.terms == (0.5, 0.5, 0.5)
    assert rec.final_gap == 0.0


def test_product_blend_reproduces_linear_sections():
    sc = Scenario.from_dict(
        _minimal_dict(
            function="product",
            probes=[{"x": 0.3, "y": 0.8}, {"x": 0.77, "y": -0.4}],
            schedule=[1, 2, 4, 8],
            eps=1e-9,
        )
    )
    rep = run_scenario(sc)
    assert rep.summary["all_passed"]


def test_tower_tail_scenario_at_the_anchor_point():
    sc = Scenario.from_dict(
        {
            "name": "tt",
            "function": "example2",
            "operator": "tower_tail",
            "probes": [
                {"x": 0.0, "y": {"rational": [1, 2]}},
                {"x": 0.0, "y": {"irrational": 2.718281828459045}},
            ],
            "schedule": [1, 2, 4, 8, 16],
            "eps": 0.0,
        }
    )
    rep = run_scenario(sc)
    assert rep.summary["all_passed"]
    assert rep.records[0].target == 1.0
    assert rep.records[1].target == 0.0


def test_tower_tail_needs_a_regularity_anchor():
    # found at parse time, before any scenario of a suite runs
    with pytest.raises(ConfigError, match="no anchor tower"):
        Scenario.from_dict(
            {
                "name": "tt_off",
                "function": "example2",
                "operator": "tower_tail",
                "probes": [{"x": 0.3, "y": 0.0}],
                "schedule": [1, 2, 4],
            }
        )


def test_tower_tail_levels_are_bounded():
    origin = {**FAN, "probes": [{"x": {"sequential": ["origin"]}, "y": 0.5}]}
    assert Scenario.from_dict(_minimal_dict(**origin, schedule=[1, 2, MAX_STAGE])).schedule[-1] == MAX_STAGE
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
    assert rep.summary == {"probes": 3, "passed": 3, "failed": 0, "all_passed": True}


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
    assert not rep.summary["all_passed"]
    assert rep.summary["failed"] == 1


# -------------------------------------------------------------- serialization


def test_render_json_is_stable_and_roundtrips():
    sc = Scenario.from_dict(_minimal_dict())
    rep = run_scenario(sc)
    data = report_data(rep)
    s1 = render_json(data)
    s2 = render_json(report_data(run_scenario(sc)))
    assert s1 == s2
    assert s1.endswith("\n")
    back = json.loads(s1)
    assert back["summary"]["all_passed"] is True
    assert back["scenario"]["name"] == "demo"


def test_float_formatting_roundtrips_exactly():
    sc = Scenario.from_dict(
        _minimal_dict(probes=[{"x": 0.1, "y": 0.2}], schedule=[1, 2, 4])
    )
    rep = run_scenario(sc)
    back = json.loads(render_json(report_data(rep)))
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
    assert rep.records == ()
    assert rep.summary == {"probes": 0, "passed": 0, "failed": 0, "all_passed": True}
    assert json.loads(render_json(report_data(rep)))["records"] == []
    assert render_csv([rep]).strip().split("\n") == [
        "scenario,probe,x,y,target,passed,final_gap,last_term"
    ]


def test_csv_and_json_agree_numerically():
    sc = Scenario.from_dict(
        _minimal_dict(function="product", probes=[{"x": 0.3, "y": 0.7}, {"x": 0.6, "y": 0.1}])
    )
    rep = run_scenario(sc)
    back = json.loads(render_json(report_data(rep)))
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


def test_cli_import_leaves_typing_unloaded():
    # under -S, because site's .pth hooks may import typing themselves: the
    # package takes its abstract bases from collections.abc and keeps its
    # annotations as strings
    code = "import sys; sys.path.insert(0, sys.argv[1]); import equiblend.cli; print('typing' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SCENARIO_DIR.parent / "src")], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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


MALFORMED = {
    "affine_z_lo_above_hi": {"z_space": {"kind": "affine", "lo": 1.0, "hi": 0.0}},
    "sorgenfrey_domain_not_numbers": {"scheme": {"kind": "sorgenfrey", "domain": [0.0, "x"]}},
    "sorgenfrey_domain_empty": {"scheme": {"kind": "sorgenfrey", "domain": []}},
    "sorgenfrey_domain_one_number": {"scheme": {"kind": "sorgenfrey", "domain": [0.5]}},
    "grid_lo_not_a_number": {"scheme": {"kind": "grid", "dim": 1, "lo": "x", "hi": 1.0}},
    "grid_side_not_whole": {"scheme": {"kind": "grid", "dim": 1, "lo": 0.0, "hi": 1.5}},
    "z_dim_not_a_number": {"z_space": {"kind": "line", "dim": "x"}},
    "z_dim_two": {"z_space": {"kind": "line", "dim": 2}},
    "scalar_function_on_dim2_grid": {
        "function": "product",
        "scheme": {"kind": "grid", "dim": 2, "lo": 0.0, "hi": 1.0},
        "probes": [{"x": [0.25, 0.5], "y": 0.5}],
    },
    "box_x_space_without_lo": {"x_space": {"kind": "box", "hi": 1.0}},
    "probe_outside_the_scheme": {"x_space": {"kind": "real_line"}, "probes": [{"x": 3.0, "y": 0.5}]},
    "unknown_x_space_without_probes": {"x_space": {"kind": "sphere"}, "probes": []},
    "grid_dim_not_an_integer": {"scheme": {"kind": "grid", "dim": 1.7, "lo": 0.0, "hi": 1.0}},
    "z_dim_not_an_integer": {"z_space": {"kind": "line", "dim": 1.5}},
    "schedule_shorter_than_the_tail": {"schedule": [1, 2]},
    "scalar_function_with_list_x": {"function": "product", "probes": [{"x": [0.5], "y": 0.5}]},
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
    "tower_tail_without_an_anchor_tower": {"function": "product", "operator": "tower_tail", "scheme": {"kind": "none"}},
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


def test_the_finest_level_is_bounded_by_the_float_resolution_of_the_box():
    # math.ulp(1.0) is 2**-52: on [-1, 1] a mesh wider than that parses and
    # runs, and a mesh no wider is a configuration error
    box = {"scheme": {"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0}, "probes": [{"x": 0.25, "y": 0.5}, {"x": 1.0, "y": 0.5}]}
    report = report_data(run_scenario(Scenario.from_dict(_minimal_dict(**box, schedule=[1, 2, 2**51]))))
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


def _names_defined(tree: ast.Module) -> set:
    """The functions, classes and assigned names at a module's top level,
    dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def test_every_export_is_reached_by_the_package_or_an_acceptance_criterion():
    # every module-level name of src/, exported or not: one that only its own
    # unit tests reach is dead code
    root = SCENARIO_DIR.parent
    acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    used = _names_read(acceptance) | {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = set()
    for path in (root / "src" / "equiblend").glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= _names_defined(tree)
        if path.name != "__init__.py":
            used |= _names_read(tree)
    exports = {name for name in equiblend.__all__ if not inspect.ismodule(getattr(equiblend, name))}
    assert exports <= defined
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


# the converted classes whose instances a caller or test compares or hashes:
# one instance, and one that differs from it in each field in turn
VALUE_CLASSES = {
    "SequentialPoint": (
        lambda: SequentialPoint.leaf(2, 4),
        [SequentialPoint.level(2), SequentialPoint.leaf(3, 9), SequentialPoint.leaf(2, 5)],
    ),
    "SupportBox": (
        lambda: SupportBox((0.0,), (1.0,), (True,), (False,)),
        [
            SupportBox((0.5,), (1.0,), (True,), (False,)),
            SupportBox((0.0,), (2.0,), (True,), (False,)),
            SupportBox((0.0,), (1.0,), (False,), (False,)),
            SupportBox((0.0,), (1.0,), (True,), (True,)),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_classes_compare_and_hash_by_their_fields(name):
    make, others = VALUE_CLASSES[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert len(others) == len(a.__slots__)
    assert all(a != other for other in others)
    # another type with the same field values is not equal
    assert a != tuple(getattr(a, field) for field in a.__slots__)
