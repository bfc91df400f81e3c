"""Smoke test of the benchmark on the tiny seeded `smoke` workload.

No timing bounds: it checks the result format, the metric names against
BENCHMARK.json, the correctness checks and the refusal to run without
sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", "smoke", "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    out = _bench(ROOT, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 8
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[section]}
    info = json.loads(out.stdout.strip().splitlines()[-2])["info"]
    assert info["seed"] == 5 and info["nproc"] >= 1 and info["problems"] == []
    if trace == 0:
        assert info["spread"]["calibration_s"]["min"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, 0)
    assert out.returncode != 0
    assert out.stdout == ""


def test_digest_compares_numbers_by_value_and_ignores_extra_fields():
    record = {"x": -2, "y": 0.3, "target": -2, "terms": [1, -0.0], "gaps": [3.0, 0], "passed": True, "final_gap": 0}
    rendered = {"x": -2.0, "y": 0.3, "target": -2.0, "terms": [1.0, 0.0], "gaps": [3.0, 0.0], "passed": True, "final_gap": 0.0, "observed_order": None}
    assert workloads.record_digest(record) == workloads.record_digest(rendered)
    assert workloads.probe_key(record) == workloads.probe_key(rendered)
    assert workloads.record_digest(record) != workloads.record_digest({**record, "passed": False})


def test_seed_picks_probes_from_the_referenced_pools():
    reference = workloads.load_reference("probes")
    for template, count in workloads.GENERATED["probes"][1]:
        probes = workloads.pool(template)
        assert {workloads.probe_key(p) for p in probes} == set(reference[template])
        assert len(probes) >= count
