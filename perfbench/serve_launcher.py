"""Start ``cable serve`` with the traced run's span wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS_FILE serve --port 0 ...``

The wrappers record spans in memory; they are written to ``SPANS_FILE``
when the server exits (SIGINT stops it cleanly).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers
    from perfbench.tracer import Tracer
    from repro.service.cli import serve_main

    spans_file, command, *rest = argv
    if command != "serve":
        raise SystemExit(f"usage: {__doc__.splitlines()[2]}")
    tracer = Tracer()
    layers.install(tracer)
    layers.install_http(tracer)
    try:
        return serve_main(rest)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
