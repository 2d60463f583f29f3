"""Traced stand-in for ``python -m lmax``.

Usage: ``python perfbench/shim.py SPANS_PATH OP_ID [lmax arguments...]``
with ``src`` on ``PYTHONPATH``.  It times ``import lmax``, wraps the
package's functions (see ``spans.WRAPS``), runs ``lmax.cli.main`` on the
remaining arguments and appends the spans to SPANS_PATH.  The package's
stdout is left untouched.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, op = argv[0], argv[1]
    tracer = Tracer(op)
    try:
        with tracer.span("import.lmax"):
            import lmax.cli
        tracer.install()
        with tracer.span("cli.main"):
            return lmax.cli.main(argv[2:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
