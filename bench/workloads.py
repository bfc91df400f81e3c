"""Workload inputs and reference digests for the equiblend benchmark.

`suite` is the shipped `scenarios/` directory, unchanged.  `probes` and
`levels` are generated: each scenario template owns a fixed pool of probes
(drawn from a constant seed), and the run's `--seed` picks which pool
probes go into the scenario files.  Every pool probe has a stored reference
digest, so every seed is checked against references, not only the default
one.  `smoke` is a two-probes-per-template cut of `probes` for the tests.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Report fields that make up a probe's value; anything else in a record is
# ignored, so added diagnostic fields are not mismatches.
RECORD_FIELDS = ("target", "terms", "gaps", "passed", "final_gap")


def _schedule(n_max: int) -> list:
    return [1 << k for k in range(n_max.bit_length())]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _y_plain(rng):
    return _u(rng, -1.0, 1.0)


def _y_tagged(rng):
    # the collapsing bump decides rational and irrational tags exactly
    kind = rng.randrange(3)
    if kind == 0:
        return {"rational": [rng.randrange(-8, 9), rng.randrange(1, 9)]}
    if kind == 1:
        return {"irrational": _u(rng, -1.0, 1.0)}
    return _u(rng, -1.0, 1.0)


def _x_line(rng):
    return _u(rng, -1.0, 1.0)


def _x_unit_half_open(rng):
    return _u(rng, 0.0, 0.999999)


def _x_box(dim, lo, hi):
    return lambda rng: [_u(rng, lo, hi) for _ in range(dim)]


def _grid(dim, lo, hi):
    return {"kind": "grid", "dim": dim, "lo": lo, "hi": hi}


LINE = {"kind": "line", "dim": 1}

# name -> (scenario fields without probes, x maker, y maker, pool size)
TEMPLATES = {
    "grid1_line": (
        {"function": "sine_sum", "operator": "lambda_blend", "scheme": _grid(1, -1.0, 1.0), "z_space": LINE, "schedule": _schedule(256)},
        _x_line, _y_plain, 256,
    ),
    "grid1_warped": (
        {"function": "collapsing_bump", "operator": "lambda_blend", "scheme": _grid(1, -1.0, 1.0), "z_space": {"kind": "warped"}, "schedule": _schedule(256)},
        _x_line, _y_tagged, 256,
    ),
    "grid2": (
        {"function": "constant", "operator": "lambda_blend", "scheme": _grid(2, 0.0, 1.0), "z_space": LINE, "schedule": _schedule(32)},
        _x_box(2, 0.0, 1.0), _y_plain, 96,
    ),
    "sorgenfrey_anchor": (
        {"function": "sine_sum", "operator": "piecewise_anchor", "scheme": {"kind": "sorgenfrey", "domain": [0.0, 1.0]}, "z_space": LINE, "schedule": _schedule(1024)},
        _x_unit_half_open, _y_plain, 256,
    ),
    "ladder1": (
        {"function": "collapsing_bump", "operator": "lambda_blend", "scheme": _grid(1, -1.0, 1.0), "z_space": LINE, "schedule": _schedule(1024)},
        _x_line, _y_tagged, 32,
    ),
    "ladder2": (
        {"function": "constant", "operator": "lambda_blend", "scheme": _grid(2, -1.0, 1.0), "z_space": LINE, "schedule": _schedule(128)},
        _x_box(2, -1.0, 1.0), _y_plain, 32,
    ),
    "ladder3": (
        {"function": "constant", "operator": "lambda_blend", "scheme": _grid(3, -1.0, 1.0), "z_space": LINE, "schedule": _schedule(16)},
        _x_box(3, -1.0, 1.0), _y_plain, 32,
    ),
    "anchor2": (
        {"function": "constant", "operator": "piecewise_anchor", "scheme": _grid(2, -1.0, 1.0), "z_space": LINE, "schedule": _schedule(32)},
        _x_box(2, -1.0, 1.0), _y_plain, 32,
    ),
}

EPS = 0.01

# workload -> (reference file stem, ((template, probes per scenario), ...))
GENERATED = {
    "probes": ("probes", (("grid1_line", 128), ("grid1_warped", 128), ("grid2", 48), ("sorgenfrey_anchor", 128))),
    "levels": ("levels", (("ladder1", 1), ("ladder2", 1), ("ladder3", 1), ("anchor2", 1))),
    "smoke": ("probes", (("grid1_line", 2), ("grid1_warped", 2), ("grid2", 2), ("sorgenfrey_anchor", 2))),
}
WORKLOADS = ("suite",) + tuple(GENERATED)


def pool(template: str) -> list:
    """The template's fixed probe pool; independent of the run's seed."""
    _, x_of, y_of, size = TEMPLATES[template]
    rng = random.Random(f"pool:{template}")
    return [{"x": x_of(rng), "y": y_of(rng)} for _ in range(size)]


def scenario(template: str, probes: list) -> dict:
    fields = TEMPLATES[template][0]
    return {"name": template, **fields, "probes": probes, "eps": EPS, "rng_seed": 0}


def write_generated(workload: str, seed: int, directory: Path, full_pool: bool = False) -> None:
    """Write the workload's scenario files for this seed (or every pool
    probe, when building references)."""
    directory.mkdir(parents=True, exist_ok=True)
    for template, count in GENERATED[workload][1]:
        probes = pool(template)
        if not full_pool:
            probes = random.Random(f"{seed}:{template}").sample(probes, count)
        text = json.dumps(scenario(template, probes), indent=1)
        (directory / f"{template}.json").write_text(text + "\n", encoding="utf-8")


def expected_keys(directory: Path) -> dict:
    """Scenario name -> probe keys, in file order, from a scenario directory."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        out[data["name"]] = [probe_key(p) for p in data["probes"]]
    return out


def _canon(value):
    """Numbers compared by value: ints become floats and -0.0 becomes 0.0,
    so `-2`, `-2.0` and `-2.00` all read the same."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return float(value) + 0.0
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    raise TypeError(f"unexpected {type(value).__name__} in a report")


def probe_key(record_or_probe: dict) -> str:
    return json.dumps(_canon([record_or_probe["x"], record_or_probe["y"]]), sort_keys=True)


def record_digest(record: dict) -> str:
    text = json.dumps(_canon([record[f] for f in RECORD_FIELDS]), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def report_records(report: dict) -> dict:
    """Scenario name -> record list, from a suite report."""
    return {s["scenario"]["name"]: s["records"] for s in report["scenarios"]}


def reference_path(workload: str) -> Path:
    stem = "suite" if workload == "suite" else GENERATED[workload][0]
    return REFERENCE_DIR / f"{stem}.json"


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text(encoding="utf-8"))
