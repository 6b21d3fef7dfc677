"""The solve daemon with per-layer tracing, for the traced service run.

    python3 perfbench/daemon_shim.py SPANS_OUT serve --port 0 ...

Installs the tracer's service and solve layers, runs the unchanged
``python -m repro.service`` command line with the remaining arguments,
and, once ``/v1/shutdown`` has stopped the server, writes the span
summary to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install_service_layers()
    tracer.install_solve_layers()
    from repro.service.cli import main as service_main

    code = service_main(argv)
    Path(spans_out).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
