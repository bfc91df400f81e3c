"""Command line front end: run one scenario, run a scenario directory, or
list what the registry offers.

Exit codes: 0 all probes passed, 1 some probe failed the tail criterion,
2 configuration error (unreadable file, bad schema, unknown names).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .harness import (
    OPERATORS,
    REGISTRY,
    SCHEMES,
    ConfigError,
    Scenario,
    load_scenario_file,
    render_csv,
    render_json,
    report_data,
    run_scenario,
    suite_data,
)


def _parse_schedule(text: str) -> list:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad schedule {text!r}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    scenario = load_scenario_file(args.scenario)
    overrides = {}
    if args.eps is not None:
        overrides["eps"] = args.eps
    if args.schedule is not None:
        overrides["schedule"] = _parse_schedule(args.schedule)
    if overrides:
        # re-parse so overrides pass the same checks as scenario files
        scenario = Scenario.from_dict({**scenario.config, **overrides})
    report = run_scenario(scenario)
    if args.format == "csv":
        _emit(render_csv([report]), args.out)
    else:
        _emit(render_json(report_data(report)), args.out)
    return 0 if report.summary["all_passed"] else 1


def _cmd_suite(args) -> int:
    directory = Path(args.directory)
    files = sorted(directory.glob("*.json"))
    if not files:
        raise ConfigError(f"no scenario files (*.json) in {directory}")
    reports = [run_scenario(load_scenario_file(path)) for path in files]
    data = suite_data(reports)
    if args.format == "csv":
        _emit(render_csv(reports), args.out)
    else:
        _emit(render_json(data), args.out)
    return 0 if data["summary"]["all_passed"] else 1


def _cmd_list(args) -> int:
    lines = ["functions:"]
    width = max(len(name) for name in REGISTRY)
    for name in sorted(REGISTRY):
        lines.append(f"  {name:<{width}}  {REGISTRY[name].summary}")
    lines.append("operators:")
    for name in OPERATORS:
        lines.append(f"  {name}")
    lines.append("schemes:")
    for name in SCHEMES:
        lines.append(f"  {name}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    # read by numpy's first import (warped z-space only); idle BLAS workers only cost time
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = argparse.ArgumentParser(prog="equiblend", description="convergence scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario", help="path to a scenario .json file")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--out", help="write the report here instead of stdout")
    run_p.add_argument("--eps", type=float, help="override the tail tolerance")
    run_p.add_argument("--schedule", help="override the level schedule, e.g. 1,2,4,8")
    run_p.set_defaults(func=_cmd_run)

    suite_p = sub.add_parser("suite", help="run every scenario in a directory")
    suite_p.add_argument("directory", nargs="?", default="scenarios")
    suite_p.add_argument("--format", choices=("json", "csv"), default="json")
    suite_p.add_argument("--out", help="write the report here instead of stdout")
    suite_p.set_defaults(func=_cmd_suite)

    list_p = sub.add_parser("list", help="list registered functions, operators and schemes")
    list_p.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    finally:
        # the interpreter's exit-time collection then skips every live object
        # (the OS takes the memory back); frozen objects are never finalized,
        # so every file the CLI writes is closed before this point
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
