"""Run one biquad CLI command with the tracer installed and save its spans.

    python3 -m perfbench.cli_traced SPANS_JSON -- COMMAND [ARGS...]

Exits with the command's own exit code. SPANS_JSON receives the spans, the
counts and ``cli.import_ms``, the time ``import biquad.cli`` took.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from .tracer import Tracer


def main(argv):
    out, sep, command = argv[0], argv[1], argv[2:]
    if sep != "--" or not command:
        raise SystemExit(__doc__)
    start = time.perf_counter()
    import biquad.cli

    import_ms = (time.perf_counter() - start) * 1000
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(f"cli.command.{command[0]}"):
            code = biquad.cli.main(command)
    finally:
        tracer.uninstall()
    tracer.counts["cli.import_ms"] += import_ms
    Path(out).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
