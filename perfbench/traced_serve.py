"""Run ``repro serve`` with the layer wrappers installed.

Usage: ``python perfbench/traced_serve.py SPANS.json <repro CLI args>``.
Installs :mod:`tracing`'s wrappers, runs the same CLI entry the plain
``python -m repro`` runs, and writes every recorded span to
``SPANS.json`` once the server has shut down (SIGINT).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracing.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracing.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
