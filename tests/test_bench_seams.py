"""The benchmark's span tracer still finds every name it wraps.

bench/spans.py wraps library names where the CLI and the harness look them
up; a renamed or bypassed name leaves its span empty and fails a traced
benchmark run.  This runs tiny scenarios under the tracer, in a subprocess
so the wrappers stay out of this process, and checks every span and counter
that bench/run.py requires on the suite, probes and levels workloads.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LINE = {"kind": "line", "dim": 1}
SCENARIOS = {
    "anchor2": {
        "function": "constant",
        "operator": "piecewise_anchor",
        "scheme": {"kind": "grid", "dim": 2, "lo": -1.0, "hi": 1.0},
        "z_space": LINE,
        "probes": [{"x": [0.3, -0.2], "y": 0.5}],
        "schedule": [1, 2, 4],
    },
    "anchor_sorgenfrey": {
        "function": "sine_sum",
        "operator": "piecewise_anchor",
        "scheme": {"kind": "sorgenfrey", "domain": [0.0, 1.0]},
        "z_space": LINE,
        "probes": [{"x": 0.3, "y": 0.5}],
        "schedule": [1, 2, 4],
    },
    "blend1": {
        "function": "sine_sum",
        "operator": "lambda_blend",
        "scheme": {"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0},
        "z_space": LINE,
        "probes": [{"x": 0.3, "y": 0.5}],
        "schedule": [1, 2, 4],
    },
    "collapsing": {
        "function": "collapsing_bump",
        "operator": "lambda_blend",
        "scheme": {"kind": "grid", "dim": 1, "lo": -1.0, "hi": 1.0},
        "z_space": {"kind": "warped"},
        "probes": [{"x": 0.3, "y": {"rational": [0, 1]}}],
        "schedule": [1, 2, 4],
    },
    "fan": {
        "function": "example1",
        "operator": "tower_tail",
        "probes": [{"x": {"sequential": ["origin"]}, "y": {"rational": [1, 2]}}],
        "schedule": [1, 2, 4],
    },
}

TRACED_SUITE = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import equiblend.cli, run, spans
tracer = spans.Tracer()
spans.install(tracer)
equiblend.cli.main(["suite", sys.argv[2], "--out", sys.argv[3]])
summary = tracer.summary()
names = {name for workload in ("suite", "probes", "levels") for name in run.MUST_RECORD[workload]}
print(json.dumps({name: summary["spans"].get(name, {}).get("calls", 0) or summary["counts"].get(name, 0) for name in sorted(names)}))
"""


def _recorded(tmp_path, names) -> dict:
    """Calls or counts of every required span and counter after a traced
    suite over the named scenarios."""
    suite = tmp_path / "suite"
    suite.mkdir(parents=True)
    for name in names:
        (suite / f"{name}.json").write_text(json.dumps({"name": name, **SCENARIOS[name]}))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_SUITE, str(ROOT), str(suite), str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_required_span_records(tmp_path):
    recorded = _recorded(tmp_path, SCENARIOS)
    assert [name for name, calls in recorded.items() if not calls] == []


def test_sorgenfrey_cell_lookup_records(tmp_path):
    # the probes workload's piecewise_anchor runs on a Sorgenfrey scheme, so
    # its cell lookup must record without a grid scenario beside it
    recorded = _recorded(tmp_path, ["anchor_sorgenfrey"])
    assert [name for name in ("partitions.cell_of", "partitions.contains", "partitions.disjointify") if not recorded[name]] == []


@pytest.mark.parametrize(
    ("scenario", "names", "keys"),
    [
        ("blend1", ("partitions.contains",), 3 + 5 + 9),
        ("anchor2", ("partitions.contains", "partitions.cell_of", "partitions.disjointify"), 3**2 + 5**2 + 9**2),
    ],
    ids=["blend1", "anchor2"],
)
def test_lookup_spans_record_on_one_scenario(tmp_path, scenario, names, keys):
    # a lookup made of raw float comparisons, or cells that skip disjointify,
    # would leave these empty; keys_built reads len(index_keys) per level
    recorded = _recorded(tmp_path, [scenario])
    assert [name for name in names if not recorded[name]] == []
    assert recorded["partitions.keys_built"] == keys


def test_a_shared_scheme_records_its_build_once(tmp_path):
    # blend1 and collapsing read one grid scheme (the shape of the probes
    # workload's grid1_line and grid1_warped), so the second builds no level
    # and picks no anchor; what the first builds still records
    names = ("partitions.level_build", "partitions.levels_built", "partitions.keys_built", "partitions.anchor_picks")
    alone = _recorded(tmp_path / "alone", ["blend1"])
    shared = _recorded(tmp_path / "shared", ["blend1", "collapsing"])
    assert [name for name in names if not shared[name]] == []
    assert {name: shared[name] for name in names} == {name: alone[name] for name in names}
    assert shared["partitions.keys_built"] == 3 + 5 + 9
