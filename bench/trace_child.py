"""Run one jmrep CLI call with the benchmark's span recorder installed.

Usage: python3 bench/trace_child.py SPANS_OUT OP_ID VERB FILE...

Behaves like `python -m jmrep VERB FILE...` (same stdout, stderr and exit
code) and writes the spans of the call, including the import of jmrep, as
JSON to SPANS_OUT.  The benchmark's cli_batch workload uses it in traced runs.
"""

import sys
from time import perf_counter

from spans import IMPORT_SPAN, Tracer


def main() -> int:
    spans_out, op = sys.argv[1], int(sys.argv[2])
    tracer = Tracer()
    tracer.current_op = op
    start = perf_counter()
    import jmrep.cli

    tracer.record(IMPORT_SPAN, "cli", start, perf_counter())
    tracer.install()
    tracer.active = True
    try:
        return jmrep.cli.main(sys.argv[3:])
    finally:
        tracer.active = False
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
