"""Run one beamfeedback CLI command in this fresh process, as its entry point would.

    python3 perfbench/child.py MARKER TRACE CLI_ARGS...

Writes to MARKER the monotonic clock readings taken on entering
``beamfeedback.cli.main`` and after it returns, so the parent can split the
wall time into set-up (interpreter start and imports), the command, and
interpreter shutdown.  When TRACE is not ``-`` the layers are traced and
the trace is written there after ``main`` returns (counted as shutdown).
"""

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
EXIT_WRONG_PACKAGE = 70


def main(marker, trace_path, *argv):
    import beamfeedback.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "beamfeedback":
        print(f"imported beamfeedback from {cli.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_WRONG_PACKAGE
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer(f"{os.getpid()}-{time.time_ns()}")
        tracer.install()
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write(f"{time.monotonic()!r}\n")
    if tracer is None:
        code = cli.main(list(argv))
    else:
        with tracer.span("cli.main"):
            code = cli.main(list(argv))
    with open(marker, "a", encoding="utf-8") as handle:
        handle.write(f"{time.monotonic()!r}\n")
    if tracer is not None:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
