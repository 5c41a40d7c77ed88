"""Run one crs-bias command with spans around the CLI's calls into the package.

    python3 bench/traced_cli.py SPANS_OUT COMMAND --config CONFIG

Behaves like ``python -m crs_bias.cli COMMAND --config CONFIG`` (same output,
same exit code) and writes the command's spans to SPANS_OUT as JSON lines.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    from crs_bias import cli

    tracer = spans.Tracer()
    tracer.install()
    span = tracer.start(f"cli.{argv[0]}")
    try:
        return cli.main(argv)
    finally:
        tracer.finish(span)
        tracer.uninstall()
        spans.write_spans(tracer, out)


if __name__ == "__main__":
    sys.exit(main())
