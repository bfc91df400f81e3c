"""One benchmark pass: import the equiblend CLI and run one suite, as a user would.

    python3 child.py SRC SCENARIO_DIR REPORT TIMING [--trace]

Writes TIMING (JSON) after the CLI returns: the CLOCK_MONOTONIC instant at
which `import equiblend.cli` completed, the import time, the number of
modules the import loaded, the CLI's exit code and, with --trace, the span
totals of spans.py.  Exits with the CLI's exit code.
"""

import os
import sys
import time


def main(argv) -> int:
    src, scenarios, report, timing = argv[:4]
    traced = argv[4:] == ["--trace"]
    sys.path.insert(0, src)
    modules_before = len(sys.modules)
    start = time.monotonic()
    import equiblend.cli

    imported_at = time.monotonic()
    modules_loaded = len(sys.modules) - modules_before
    if not os.path.realpath(equiblend.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"imported {equiblend.cli.__file__}, not the checkout's {src}", file=sys.stderr)
        return 3

    import json

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    code = equiblend.cli.main(["suite", scenarios, "--out", report])
    out = {
        "imported_at": imported_at,
        "import_s": imported_at - start,
        "modules_loaded": modules_loaded,
        "exit": code,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    with open(timing, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
