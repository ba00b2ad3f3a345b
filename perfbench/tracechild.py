"""Run one trigkit command in a fresh interpreter with layer tracing on.

Usage: python tracechild.py SPANS_FILE SPAWNED_AT TRIGKIT_ARGS...

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, which all processes
share, so the time until this file's first line is recorded as the root span
``cli.process_start``. The import of ``trigkit.cli`` is the root span
``cli.import`` and the command, run as ``python -m trigkit`` runs it, the
root span ``cli.<command>``. Spans and
counters are written to SPANS_FILE with ``marshal`` after the command
returns (JSON would cost the traced process tens of milliseconds), followed
by the time the write ended, from which the parent records the interpreter's
exit as ``cli.process_exit``. The exit code is the command's.
"""
import time

STARTED = time.perf_counter()

import marshal  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

from layers import Tracer  # noqa: E402


def main() -> int:
    spans_path, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.spans.append(["cli.process_start", spawned_at, STARTED, -1, 0])
    with tracer.span("cli.import"):
        import trigkit.cli
    command = argv[2]  # argv is: --config PATH COMMAND ...
    sys.argv = ["trigkit", *argv]
    code = 0
    with tracer.installed():
        with tracer.span(f"cli.{command}"):
            try:  # what ``python -m trigkit`` runs
                runpy.run_module("trigkit", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code
    with open(spans_path, "wb") as handle:
        marshal.dump((tracer.spans, tracer.counters.get(0, {})), handle)
        marshal.dump(time.perf_counter(), handle)  # start of interpreter exit
    return code


if __name__ == "__main__":
    raise SystemExit(main())
