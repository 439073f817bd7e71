"""A traced qhs CLI request.

    python3 perfbench/clidriver.py --out PATH --request N -- ARGV...

Does what ``python -m qhs ARGV...`` does, with the same stdout bytes and
exit code, after installing the span wrappers.  The import time of qhs.cli,
the span aggregates and the raw spans go to PATH as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--request", type=int, default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = perf_counter()
    import qhs.cli

    import_s = perf_counter() - start
    trace = tracer.Tracer()
    trace.request = args.request
    trace.install()
    try:
        code = qhs.cli.main(argv)
    finally:
        sys.stdout.flush()
        trace.uninstall()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "trace": trace.summary(), "raw": trace.raw}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
