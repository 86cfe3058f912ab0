"""Run one jcpulse command line as ``python -m jcpulse`` would, with spans.

Usage: python -X importtime perfbench/traced_cli.py SPANS_FILE (--import-only | ARGV...)

Times the import of ``jcpulse.cli``, traces the layers while the command
runs, and writes {"import_s": ..., "spans": [...]} to SPANS_FILE when it
ends.  Exit status, stdout and stderr are the command's own; the
``-X importtime`` lines on stderr come first and start with "import time:".
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    import jcpulse.cli
    import_s = time.perf_counter() - start

    import json
    from tracer import Tracer

    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    code = 0
    try:
        if argv != ["--import-only"]:
            tracer.install()
            code = jcpulse.cli.main(argv)
    finally:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
