"""One traced cold-cli op, run as its own process.

    python3 bench/cli_shim.py SPANS_JSON CLI_ARG...

Times ``import envtheory.cli``, runs ``envtheory.cli.run`` on the arguments
with the tracer's pass-throughs installed, writes the spans to SPANS_JSON
and exits with the CLI's exit code.  stdout and stderr are the CLI's own.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import envtheory.cli as cli

    end = time.perf_counter()
    import tracer

    trace = tracer.Tracer()
    trace.op = 0
    trace.spans.append(["import.cli", start, end, -1, 0, None])
    with trace.installed(0), trace.span("cli.run"):
        code = cli.run(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(trace.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
