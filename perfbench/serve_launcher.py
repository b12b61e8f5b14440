"""Start ``repro serve`` with the traced run's layer wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py --out spans.json -- serve --port 0

Everything after ``--`` is handed to the program's own command line.
Each ``GET /healthz`` takes a counter snapshot (the client calls it when
nothing else is in flight, just before and just after its measured
window).  When the daemon has drained and stopped, the recorder's spans,
plans, per-request records and snapshots are written to ``--out``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_source_tree  # noqa: E402
from tracing import Recorder  # noqa: E402


def main(argv) -> int:
    split = argv.index("--")
    out = argv[argv.index("--out") + 1]
    use_source_tree()
    recorder = Recorder()
    recorder.install()

    from repro.cli import main as cli_main
    from repro.serve import server as server_mod

    route = server_mod.QueryServer._route

    async def traced_route(server, method, path, body):
        if path == "/healthz":
            pool = server.pool
            recorder.snapshot({
                "serve.sessions_built": pool.session_builds,
                "serve.sessions_evicted": pool.sessions_evicted,
                "serve.coalesced": server.coalesced_total,
            })
        return await route(server, method, path, body)

    server_mod.QueryServer._route = traced_route
    try:
        return cli_main(argv[split + 1:])
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
