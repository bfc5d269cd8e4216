"""Run one halfcomm command line under the span tracer.

Usage: ``python -m perfbench.cli_child SPANS_PATH ARG...``.  Behaves like
``python -m halfcomm ARG...`` (same output and exit code) and writes the
recorded spans to SPANS_PATH as JSON when the command ends, however it ends.
"""

import sys

from perfbench.trace import Tracer, install


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from halfcomm.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
