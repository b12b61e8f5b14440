"""Measure how often the daemon's refresh race fails a request.

Usage (from the root of a source checkout)::

    python3 perfbench/race_probe.py --requests 60 --seed 1

Two closed-loop clients share one target.  Every request carries a new
seed, so each one builds new covers and inserts into the session cache
while the other client's finished request walks that cache in
``SessionPool.touch`` -> ``PooledSession.refresh_nbytes`` outside the
session lock.  When the walk meets the insert, Python raises
``RuntimeError: dictionary changed size during iteration`` and a request
that already has its answer returns HTTP 500.

The probe prints the number of requests, the HTTP 500s with that message,
and any other failure.  It is not part of the gated benchmark: the race
fires at random, so its count differs from run to run (README.md, "The
refresh race").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT_DIR, use_source_tree  # noqa: E402
from run import REFRESH_RACE, Client, Daemon  # noqa: E402
from workloads import Op  # noqa: E402

TARGETS = ("grid:10x10", "trigrid:9x9")
PATTERNS = ("cycle:4", "path:3", "triangle")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=60,
                        help="requests per client")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    use_source_tree()
    os.makedirs(OUT_DIR, exist_ok=True)

    outcomes: Counter = Counter()
    lock = threading.Lock()
    daemon = Daemon(os.path.join(OUT_DIR, "race-probe-daemon.log"), None)
    try:
        def drive(client_id: int) -> None:
            client = Client(daemon.port)
            try:
                for i in range(args.requests):
                    op = Op("decide", TARGETS[i % len(TARGETS)],
                            (PATTERNS[i % len(PATTERNS)],),
                            seed=args.seed * 100003 + 2 * i + client_id)
                    status, payload = client.query(op)
                    if status == 200:
                        key = "ok"
                    elif REFRESH_RACE in json.dumps(payload):
                        key = "refresh race (HTTP 500)"
                    else:
                        key = f"other HTTP {status}"
                    with lock:
                        outcomes[key] += 1
            finally:
                client.close()

        threads = [threading.Thread(target=drive, args=(c,)) for c in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        daemon.stop()
    total = sum(outcomes.values())
    print(json.dumps({"requests": total, "outcomes": dict(outcomes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
