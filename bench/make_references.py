"""Rebuild the reference digests in references/ from the current program.

    python3 bench/make_references.py

Run from the root of a checkout whose reports are known good.  For `suite`
the probes are the shipped scenarios; for `probes` and `levels` they are
every probe of every template pool, so any seed's picks are covered.
"""

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def build(workload: str, root: Path, work: Path) -> dict:
    if workload == "suite":
        scenarios = root / "scenarios"
    else:
        scenarios = work / workload
        workloads.write_generated(workload, 0, scenarios, full_pool=True)
    expected = workloads.expected_keys(scenarios)
    result = run.run_pass(root / "src", scenarios, work, 0, False, expected, {})
    if result["error"]:
        raise SystemExit(f"{workload}: {result['error']}")
    reference = {}
    for name, keys in expected.items():
        digests = result["digests"][name]
        if len(digests) != len(keys):
            raise SystemExit(f"{workload}/{name}: {len(digests)} records for {len(keys)} probes")
        reference[name] = dict(zip(keys, digests))
    return reference


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_build" / "equiblend" / "references-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        for workload in ("suite", "probes", "levels"):
            reference = build(workload, root, work)
            path = workloads.reference_path(workload)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{path.name}: {sum(len(v) for v in reference.values())} probes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
