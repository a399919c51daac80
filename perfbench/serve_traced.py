"""``repro serve`` with the service layers wrapped; spans go to a file.

Usage::

    python3 perfbench/serve_traced.py SPANS.npz serve --topology abilene --port 0

The wrappers go in before the CLI builds the controller state, and the
spans are written when the server exits (on SIGINT, as Ctrl-C would).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import SERVICE_LAYERS  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    recorder.install(SERVICE_LAYERS)
    import repro.service.server as server
    from repro.cli import main as repro_main

    traced_dispatch = server.dispatch

    def dispatch(*args, **kwargs):
        # One trace id per request: the spans of one operation share it.
        recorder.trace_id += 1
        return traced_dispatch(*args, **kwargs)

    server.dispatch = dispatch

    try:
        return repro_main(argv)
    finally:
        recorder.write(out)


if __name__ == "__main__":
    sys.exit(main())
