"""Paths, the source-tree import guard and the run statistics shared by
every benchmark script.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` of that checkout, never from an installed copy.
"""

from __future__ import annotations

import math
import os
import sys
import time
from typing import Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and verify that
    ``repro`` resolves there (exit non-zero otherwise)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SourceMissing(f"no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"repro imported from {repro.__file__}")


def child_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


#: Fewest samples that leave ten beyond some percentile.
MIN_SAMPLES = 11


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples
    strictly beyond its interpolation point.

    With ``q = p / 100`` the point sits at rank ``q (n - 1)``; the samples
    beyond it are the ranks above ``floor(q (n - 1))``.  Needs
    ``n >= MIN_SAMPLES``.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"a tail needs at least {MIN_SAMPLES} samples, "
                         f"got {n}")
    for p in range(99, 0, -1):
        beyond = n - 1 - math.floor(p / 100 * (n - 1))
        if beyond >= 10:
            return p
    return 1


def latency_summary(latencies: List[float]) -> dict:
    """``latency_p50_s``, ``latency_tail_s`` and the tail's definition."""
    p = tail_percentile(len(latencies))
    return {
        "latency_p50_s": median(latencies),
        "latency_tail_s": quantile(latencies, p / 100),
        "tail_percentile": p,
        "samples": len(latencies),
    }


def reference_loop_s() -> float:
    """Seconds for a fixed NumPy + interpreter loop.

    Host drift shows here and in the program alike; a change to the
    program shows only in the program.  Median of three ~0.07 s timings.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.integers(0, 1 << 20, size=4096)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2000):
            b = np.sort(a ^ i)
            acc += int(b[i]) & 7
            acc += sum(range(200))
        times.append(time.perf_counter() - t0)
    return median(times)


def peak_rss_mb_of(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
