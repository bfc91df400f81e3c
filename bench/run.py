"""equiblend benchmark: end-to-end and per-layer timings of `equiblend suite`.

    python3 bench/run.py --workload {suite,probes,levels} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass is a fresh child process
(child.py) that imports `equiblend.cli` from the checkout's `src/` and runs
`main(["suite", DIR, "--out", REPORT])`, one process at a time.  Passes
repeat until S seconds have been measured; metrics are medians over passes.
Every probe record of every pass is checked against the stored reference
digests.  The last stdout line is the result JSON; the line before it, and
`.bench_build/equiblend/results/`, hold machine info and pass-to-pass spread.
Each untraced pass follows a calibration child (calibrate.py), and its
end-to-end times are scaled by CALIBRATION_S over that child's wall time, so
host speed drift cancels.  With --trace 1, untraced and traced passes
alternate and the result holds the per-layer metrics of the traced passes,
unscaled.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
PASS_TIMEOUT_S = 60.0
MEASURE_CAP_S = 100.0  # no pass starts later, so a run ends within 180 s
# End-to-end times are reported as seconds on a host where one calibration
# child takes this long: a pass's time times CALIBRATION_S / its child's time.
CALIBRATION_S = 1.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "terms_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.modules_loaded": "count",
    "harness.parse_s": "s",
    "harness.run_s": "s",
    "harness.render_s": "s",
    "harness.report_bytes": "bytes",
    "partitions.level_build_s": "s",
    "partitions.levels_built": "count",
    "partitions.keys_built": "count",
    "partitions.anchor_picks": "count",
    "partitions.contains_s": "s",
    "partitions.contains.calls": "count",
    "partitions.contains.hit_ratio": "ratio",
    "partitions.disjointify_s": "s",
    "partitions.cell_of_s": "s",
    "partitions.cell_of.calls": "count",
    "connectors.fold_s": "s",
    "connectors.fold.calls": "count",
    "connectors.connect.calls": "count",
    "operators.term_s": "s",
    "operators.term.calls": "count",
    "operators.term_p50_us": "us",
    "operators.term_p99_us": "us",
    "operators.tail_check_s": "s",
    "operators.target_s": "s",
    "gallery.eval_s": "s",
    "gallery.eval.calls": "count",
    "trace.overhead_s": "s",
}

# Spans and counters that must record work on the workload they dominate
# (README.md, "Layer -> end-to-end mapping"); zero there means a wrapper
# no longer sits where the library looks the name up.
MUST_RECORD = {
    "suite": ("harness.parse", "harness.run", "harness.render", "harness.report_bytes", "operators.target", "gallery.eval"),
    "probes": ("partitions.contains", "partitions.cell_of", "connectors.fold", "connectors.connect.calls", "operators.term", "operators.tail_check"),
    "levels": ("partitions.level_build", "partitions.levels_built", "partitions.keys_built", "partitions.anchor_picks", "partitions.disjointify", "partitions.cell_of"),
}
MUST_RECORD["smoke"] = MUST_RECORD["probes"]


def _spawn(argv: list, stdout: Path, stderr: Path, timeout: float):
    """Run argv to completion; returns (spawn instant, exit instant, exit
    code or None on timeout, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    exited = time.monotonic()
    if not ready:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return spawned, exited, (os.waitstatus_to_exitcode(status) if ready else None), usage


def calibrate(work: Path) -> float:
    """Wall time of one calibration child, spawn to exit."""
    argv = [sys.executable, str(BENCH_DIR / "calibrate.py")]
    spawned, exited, code, _ = _spawn(argv, work / "cal.out", work / "cal.err", PASS_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"calibration child exited with {code}: {(work / 'cal.err').read_text(errors='replace')[-2000:]}")
    return exited - spawned


def run_pass(src: Path, scenarios: Path, work: Path, index: int, traced: bool, expected: dict, reference: dict) -> dict:
    """One child pass, timed and checked probe by probe."""
    stem = work / f"pass{index}"
    report, timing = stem.with_suffix(".report.json"), stem.with_suffix(".timing.json")
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(src), str(scenarios), str(report), str(timing)]
    spawned, exited, code, usage = _spawn(argv + (["--trace"] if traced else []), stem.with_suffix(".out"), stem.with_suffix(".err"), PASS_TIMEOUT_S)
    probes = sum(len(keys) for keys in expected.values())
    result = {
        "traced": traced,
        "wall_s": exited - spawned,
        "setup_s": exited - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "probes": probes,
        "failed": probes,
        "terms": 0,
        "digests": {},
        "error": None,
    }
    errors = stem.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    try:
        if code not in (0, 1) or "Traceback" in errors:
            raise ValueError(f"exit code {code}: {errors.strip()[-2000:]}")
        times = json.loads(timing.read_text(encoding="utf-8"))
        data = json.loads(report.read_text(encoding="utf-8"))
        if (code == 0) != bool(data["summary"]["all_passed"]):
            raise ValueError(f"exit code {code} disagrees with summary {data['summary']}")
        records = workloads.report_records(data)
        digests = {name: [workloads.record_digest(r) for r in records.get(name, [])] for name in expected}
        keys_got = {name: [workloads.probe_key(r) for r in records.get(name, [])] for name in expected}
        terms = sum(len(r["terms"]) for name in expected for r in records.get(name, []))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result["error"] = str(exc)
        return result
    failed = 0
    for name, keys in expected.items():
        refs = reference.get(name, {})
        got = list(zip(keys_got[name], digests[name]))
        for i, key in enumerate(keys):
            failed += not (i < len(got) and got[i] == (key, refs.get(key)))
    result.update(
        setup_s=times["imported_at"] - spawned,
        import_s=times["import_s"],
        modules_loaded=times["modules_loaded"],
        trace=times.get("trace"),
        failed=failed,
        terms=terms,
        digests=digests,
    )
    return result


def _spread(values: list) -> dict:
    median = statistics.median(values)
    out = {"samples": len(values), "median": median, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / median if median else None)
    return out


def _terms_per_s(p: dict) -> float:
    busy = p["wall_s"] - p["setup_s"]
    return p["terms"] / busy if busy > 0 else 0.0


def _scaled(p: dict) -> dict:
    """The pass's end-to-end metrics at calibration speed."""
    speed = CALIBRATION_S / p["cal_s"]
    return {
        "wall_s": p["wall_s"] * speed,
        "setup_s": p["setup_s"] * speed,
        "terms_per_s": _terms_per_s(p) / speed,
        "peak_rss_mb": p["peak_rss_mb"],
    }


def _layer_checks(workload: str, plain: list, traced: list) -> list:
    """Problems with the traced passes: spans that recorded nothing where
    they dominate, counts that did not repeat, reports unlike the untraced."""
    problems = []
    summaries = [p["trace"] for p in traced if p.get("trace")]
    if not summaries:
        return ["no traced pass completed"]
    first = summaries[0]
    for name in MUST_RECORD.get(workload, ()):
        recorded = first["spans"].get(name, {}).get("calls", 0) or first["counts"].get(name, 0)
        if not recorded:
            problems.append(f"span or counter {name} recorded nothing on {workload}")
    counts = [{k: v for k, v in spans.layer_metrics(s).items() if PER_LAYER_UNITS[k] in ("count", "bytes")} for s in summaries]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    untraced = [p["digests"] for p in plain if not p["error"]]
    if any(p["digests"] != untraced[0] for p in traced if untraced and not p["error"]):
        problems.append("traced reports differ from untraced reports")
    return problems


def _metrics(units: dict, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "equiblend" / "cli.py").is_file():
        print(f"no equiblend sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "suite" and not (root / "scenarios").is_dir():
        print(f"no scenarios/ directory under {root}", file=sys.stderr)
        return 2
    out_dir = root / ".bench_build" / "equiblend"
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, src, root, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, src: Path, root: Path, work: Path, out_dir: Path) -> int:
    if args.workload == "suite":
        scenarios = root / "scenarios"
    else:
        scenarios = work / "scenarios"
        workloads.write_generated(args.workload, args.seed, scenarios)
    expected = workloads.expected_keys(scenarios)
    reference = workloads.load_reference(args.workload)

    # untimed: compiles bytecode on a fresh checkout and warms the file cache
    warm = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import equiblend.cli", str(src)]
    _, _, code, _ = _spawn(warm, work / "warm.out", work / "warm.err", PASS_TIMEOUT_S)
    if code != 0:
        print(f"cannot import equiblend.cli:\n{(work / 'warm.err').read_text(errors='replace')}", file=sys.stderr)
        return 1
    if not args.trace:
        calibrate(work)

    kinds = (False, True) if args.trace else (False,)
    passes = []
    start = time.monotonic()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        cal_s = None if traced else calibrate(work)
        passes.append({**run_pass(src, scenarios, work, len(passes), traced, expected, reference), "cal_s": cal_s})
        elapsed = time.monotonic() - start
        if (elapsed >= args.seconds and len(passes) >= len(kinds)) or elapsed >= MEASURE_CAP_S:
            break
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    problems = [f"pass {i}: {p['error']}" for i, p in enumerate(passes) if p["error"]]
    attempted = sum(p["probes"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} probe records missing or unlike the reference")

    median = statistics.median
    if args.trace:
        problems += _layer_checks(args.workload, plain, traced)
        done = [p for p in traced if p.get("trace")]
        layers = [spans.layer_metrics(p["trace"]) for p in done] or [spans.layer_metrics({"spans": {}, "counts": {}, "samples": {}})]
        values = {name: median([layer[name] for layer in layers]) for name in layers[0]}
        values["cli.import_s"] = median([p.get("import_s", 0.0) for p in done] or [0.0])
        values["cli.modules_loaded"] = done[0]["modules_loaded"] if done else 0
        values["trace.overhead_s"] = median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain])
        metrics = _metrics(PER_LAYER_UNITS, values)
    else:
        scaled = [_scaled(p) for p in plain]
        values = {name: median([s[name] for s in scaled]) for name in END_TO_END_UNITS}
        metrics = _metrics(END_TO_END_UNITS, values)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "probes_per_pass": sum(len(k) for k in expected.values()),
        "failed_frac": failed / attempted if attempted else 1.0,
        "term_samples": [p["trace"]["samples"].get("operators.term", {}).get("count", 0) for p in traced if p.get("trace")],
        # unscaled measurements; the scaled end-to-end series follow below
        "spread": {
            "wall_s": _spread([p["wall_s"] for p in plain]),
            "setup_s": _spread([p["setup_s"] for p in plain]),
            "cpu_s": _spread([p["cpu_s"] for p in plain]),
            "peak_rss_mb": _spread([p["peak_rss_mb"] for p in plain]),
            "terms_per_s": _spread([_terms_per_s(p) for p in plain]),
        },
        "problems": problems,
    }
    if not args.trace:
        info["spread"]["calibration_s"] = _spread([p["cal_s"] for p in plain])
        info["scaled_spread"] = {name: _spread([s[name] for s in scaled]) for name in END_TO_END_UNITS}
    if traced:
        info["spread"]["traced_wall_s"] = _spread([p["wall_s"] for p in traced])
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
