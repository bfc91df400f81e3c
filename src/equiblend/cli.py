"""Command line front end: run one scenario, run a scenario directory, or
list what the registry offers.

Exit codes: 0 all probes passed, 1 some probe failed the tail criterion,
2 usage or configuration error (bad argv, unreadable file, bad schema).
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace

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
    try:  # the names Path.glob("*.json") matches, without compiling its pattern
        files = [directory / name for name in sorted(os.listdir(directory)) if name.endswith(".json")]
    except OSError:  # no directory there, which Path.glob reads as no match
        files = []
    if not files:
        raise ConfigError(f"no scenario files (*.json) in {directory}")
    scenarios = [load_scenario_file(path) for path in files]  # a bad file stops the suite before any run
    schemes = {}  # describe() -> the first scheme made to it; a scheme only memoises, so its levels are built once per suite
    for scenario in scenarios:
        if scenario.scheme is not None:
            scenario.scheme = schemes.setdefault(repr(scenario.scheme.describe()), scenario.scheme)
    del schemes  # so a scheme, and a scenario, is freed once the last scenario that reads it has run
    reports = [run_scenario(scenarios.pop(0)) for _ in files]
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


# command: (summary, (positional, default or None if required), {flag: converter or choices, the first the default}, handler)
COMMANDS = {
    "run": ("run one scenario file", ("scenario", None), {"--format": ("json", "csv"), "--out": str, "--eps": float, "--schedule": str}, _cmd_run),
    "suite": ("run every scenario in a directory", ("directory", "scenarios"), {"--format": ("json", "csv"), "--out": str}, _cmd_suite),
    "list": ("list registered functions, operators and schemes", (None, None), {}, _cmd_list),
}
USAGES = {None: "equiblend [-h] {" + ",".join(COMMANDS) + "} ..."} | {
    command: " ".join([f"equiblend {command} [-h]", *(f"[{flag} {flag[2:].upper() if callable(kind) else '{' + ','.join(kind) + '}'}]" for flag, kind in flags.items()), *([name if default is None else f"[{name}]"] if name else [])])
    for command, (_, (name, default), flags, _) in COMMANDS.items()
}


class _Stop(Exception):
    """Ends parsing: (command or None, usage error or None for help)."""


def _parse(argv: list):
    """(handler, options) for ``argv`` by :data:`COMMANDS`, or :class:`_Stop`."""
    command, *words = argv or [None]
    if command not in COMMANDS:
        raise _Stop(None, None if command in ("-h", "--help") else f"argument command: invalid choice: {command!r}" if command else "the following arguments are required: command")
    _, (name, default), flags, handler = COMMANDS[command]
    options, given, words = {flag[2:]: None if callable(kind) else kind[0] for flag, kind in flags.items()}, [], iter(words)
    for word in words:
        flag, eq, value = word.partition("=")
        if not word.startswith("-"):
            given.append(word)
        elif (kind := flags.get(flag)) is None:
            raise _Stop(command, None if word in ("-h", "--help") else f"unrecognized arguments: {word}")
        elif not eq and (value := next(words, "-")).startswith("-") or not value:  # no flag takes an empty value
            raise _Stop(command, f"argument {flag}: expected one argument")
        else:
            try:
                options[flag[2:]] = kind(value) if callable(kind) else kind[kind.index(value)]  # index refuses a non-choice
            except ValueError:
                raise _Stop(command, f"argument {flag}: invalid value: {value!r}") from None
    options |= {name: given.pop(0) if given else default} if name else {}
    if given or name and options[name] is None:
        raise _Stop(command, f"unrecognized arguments: {' '.join(given)}" if given else f"the following arguments are required: {name}")
    return handler, SimpleNamespace(**options)


def main(argv=None) -> int:
    # read by numpy's first import (warped z-space only); idle BLAS workers only cost time
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except _Stop as stop:  # help, or a usage error: nothing runs
        command, error = stop.args
        if error:
            sys.stderr.write(f"usage: {USAGES[command]}\nequiblend: error: {error}\n")
            return 2
        entries = [COMMANDS[command][0]] if command else [f"{USAGES[name]}\n    {COMMANDS[name][0]}" for name in COMMANDS]
        sys.stdout.write("\n\n".join([f"usage: {USAGES[command]}", *entries, "A flag may come anywhere after its command, as --format csv or --format=csv.\n"]))
        return 0
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
