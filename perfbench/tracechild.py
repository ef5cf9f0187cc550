"""A ``cventlab`` process with span tracing, for traced runs of ``cli-cold``.

    python perfbench/tracechild.py TRACE_JSON ARGS...

Runs ``cventlab ARGS...`` as the console script does (same stdout, stderr and
exit code) and writes the request's spans to TRACE_JSON.  The import of
``cventlab.cli`` happens before the request span opens, as it does before
``main`` in the console script.
"""

import json
import sys
import traceback

from streams import use_checkout_source

use_checkout_source()

from cventlab import cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main(trace_path: str, args: list[str]) -> int:
    tracer = Tracer()
    code = 0
    try:
        with tracer, tracer.request("cli"):
            cli.main(args, prog_name="cventlab")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # as an uncaught exception would: traceback, exit 1
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump([r.to_json() for r in tracer.requests], fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
