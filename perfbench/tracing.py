"""Per-layer span recorder for the traced run.

The recorder wraps the program's layer entry points *by name* from the
benchmark side: nothing under ``src/`` knows it exists.  Each wrapped call
becomes a span (layer, thread, start, end, self time, parent layer); self
time is the span's duration minus the time of the wrapped calls nested
directly inside it on the same thread.  Spans stay in memory and are
written out when the run ends.

Counters come from the program's own public surfaces: ``CacheStats`` of
the sessions a query ran on, ``ExecStats`` of every execution backend the
planner built, the ``QueryPlan`` objects the planner returned, and the
pool and server totals that ``/metrics`` also exposes.

Layers whose calls are too many to keep as spans (the per-path DP
kernels, the tracer's own ``Span`` objects) are counted, not spanned.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _dp_layer(args, kwargs) -> str:
    space = _arg(args, kwargs, 0, "space")
    if type(space).__name__ == "SeparatingStateSpace":
        return "separating.dp"
    return "isomorphism.dp"


def _search_layer(args, kwargs) -> str:
    pattern = _arg(args, kwargs, 3, "pattern")
    k = getattr(pattern, "k", None)
    return f"connectivity.search{k}" if k in (4, 6, 8) else "separating.search"


# (layer or classifier, module, qualified attribute).  Module-level
# functions are also rebound in every ``repro`` module that imported them
# by name, so callers that hold their own reference see the wrapper too.
SPANNED: Tuple[Tuple[object, str, str], ...] = (
    (_dp_layer, "repro.isomorphism.parallel_dp", "parallel_dp"),
    (_dp_layer, "repro.isomorphism.sequential_dp", "sequential_dp"),
    ("isomorphism.cover", "repro.isomorphism.cover", "treewidth_cover"),
    ("cluster.est", "repro.cluster.est", "est_clustering"),
    ("treedecomp.baker", "repro.treedecomp.baker", "baker_decomposition"),
    ("treedecomp.nice", "repro.treedecomp.nice", "make_nice"),
    ("isomorphism.recovery", "repro.isomorphism.recovery", "first_witness"),
    ("separating.cover", "repro.separating.cover", "separating_cover"),
    (_search_layer, "repro.separating.driver",
     "decide_separating_isomorphism"),
    ("planar.face_vertex", "repro.planar.face_vertex",
     "build_face_vertex_graph"),
    ("planar.embed", "repro.planar.geometric", "embed_geometric"),
    ("planar.embed", "repro.planar.dmp", "embed_planar"),
    ("engine.planner.plan", "repro.engine.planner", "plan_query"),
    ("engine.shared.batch", "repro.engine.shared", "decide_batch_shared"),
    ("serve.parse", "repro.serve.protocol", "parse_body"),
    ("serve.parse", "repro.serve.protocol", "parse_query"),
    ("serve.acquire", "repro.serve.pool", "SessionPool.acquire"),
    ("serve.touch", "repro.serve.pool", "SessionPool.touch"),
    ("serve.refresh", "repro.serve.pool", "PooledSession.refresh_nbytes"),
    ("serve.execute", "repro.serve.server", "QueryServer._dispatch_query"),
    ("serve.serialize", "repro.serve.protocol", "result_to_dict"),
    ("serve.serialize", "repro.serve.protocol", "batch_to_dict"),
    ("serve.wait", "repro.serve.server", "QueryServer._run_blocking"),
)

COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("isomorphism.path", "repro.isomorphism.match_dag",
     "_solve_path_packed"),
    ("isomorphism.path", "repro.isomorphism.match_dag", "solve_path"),
    ("pram.spans", "repro.pram.trace", "Span.__init__"),
)


class Recorder:
    """Spans, counters and snapshots of one traced process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.plans: List[Tuple[float, object]] = []
        self.backends: List[object] = []
        self.requests: List[dict] = []
        self.evicted: List[Tuple[float, str, int]] = []
        self.snapshots: List[Tuple[float, dict]] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- wrappers ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def spanned(self, layer, fn: Callable) -> Callable:
        classify = layer if callable(layer) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = classify(args, kwargs) if classify else layer
            stack = self._stack()
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = None
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                self.spans.append((name, threading.get_ident(), frame[1],
                                  end, duration - frame[2], parent))

        return wrapper

    def counted(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module: str, qualname: str, make) -> None:
        mod = importlib.import_module(module)
        owner = mod
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        wrapped = make(original)
        setattr(owner, parts[-1], wrapped)
        if owner is not mod:
            return
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if other is mod or not name.startswith("repro"):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer entry point; call once per process."""
        for module in ("repro.isomorphism", "repro.connectivity",
                       "repro.engine.session", "repro.serve.server",
                       "repro.exec.backends"):
            importlib.import_module(module)
        for layer, module, qualname in SPANNED:
            self._replace(module, qualname,
                          lambda fn, layer=layer: self.spanned(layer, fn))
        for layer, module, qualname in COUNTED:
            self._replace(module, qualname,
                          lambda fn, layer=layer: self.counted(layer, fn))
        self._replace("repro.engine.planner", "plan_query", self._keep_plans)
        self._replace("repro.exec.backends", "resolve_backend",
                      self._keep_backends)
        self._replace("repro.serve.server", "QueryServer._dispatch_query",
                      self._session_deltas)
        self._replace("repro.serve.pool", "SessionPool._drop",
                      self._eviction_deltas)

    # -- counter sources -----------------------------------------------------

    def _keep_plans(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            plan = fn(*args, **kwargs)
            self.plans.append((time.perf_counter(), plan))
            return plan

        return wrapper

    def _keep_backends(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            backend = fn(*args, **kwargs)
            with self._lock:
                if all(b is not backend for b in self.backends):
                    self.backends.append(backend)
            return backend

        return wrapper

    def _session_deltas(self, fn):
        """Per-request ``CacheStats`` deltas of the session it ran on.

        The daemon holds the session's lock around this call, so the
        deltas belong to this request alone.
        """

        @functools.wraps(fn)
        def wrapper(server, session, request, *args, **kwargs):
            stats = session.stats
            hits, misses = stats.hit_count, stats.miss_count
            start = time.perf_counter()
            try:
                return fn(server, session, request, *args, **kwargs)
            finally:
                entry = {
                    "start": start,
                    "end": time.perf_counter(),
                    "mode": request.mode,
                    "target": request.target,
                    "hits": stats.hit_count - hits,
                    "misses": stats.miss_count - misses,
                }
                with self._lock:
                    self.counts["engine.session.hits"] += entry["hits"]
                    self.counts["engine.session.misses"] += entry["misses"]
                    self.requests.append(entry)

        return wrapper

    def _eviction_deltas(self, fn):
        @functools.wraps(fn)
        def wrapper(pool, fingerprint, *args, **kwargs):
            pooled = pool._sessions[fingerprint]
            stats = pooled.session.stats
            before = stats.eviction_count
            try:
                return fn(pool, fingerprint, *args, **kwargs)
            finally:
                with self._lock:
                    self.counts["engine.session.evictions"] += (
                        stats.eviction_count - before)
                    self.evicted.append((time.perf_counter(), pooled.spec,
                                         pooled.nbytes))

        return wrapper

    # -- snapshots -------------------------------------------------------------

    def snapshot(self, extra: Optional[Dict[str, float]] = None) -> dict:
        """Cumulative counters now; differences of two snapshots taken
        while nothing runs give one window's counts."""
        with self._lock:
            counts = dict(self.counts)
            backends = list(self.backends)
        counts["exec.tasks"] = sum(b.stats.tasks for b in backends)
        counts["exec.bytes_shipped"] = sum(
            b.stats.bytes_shipped for b in backends)
        counts.update(extra or {})
        snap = (time.perf_counter(), counts)
        self.snapshots.append(snap)
        return counts

    def dump(self) -> dict:
        """Everything recorded, JSON-ready."""
        plans = []
        for at, plan in self.plans:
            error = plan.prediction_error
            plans.append({
                "at": at, "backend": plan.backend, "engine": plan.engine,
                "mode": plan.mode, "prediction_error": error,
            })
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "plans": plans,
            "requests": self.requests,
            "evicted": [list(e) for e in self.evicted],
            "snapshots": [[at, counts] for at, counts in self.snapshots],
        }


# -- per-layer metrics ----------------------------------------------------------

TIME_LAYERS = (
    "isomorphism.dp", "isomorphism.cover", "cluster.est", "treedecomp.baker",
    "treedecomp.nice", "isomorphism.recovery", "separating.dp",
    "separating.cover", "connectivity.search4", "connectivity.search6",
    "connectivity.search8", "planar.face_vertex", "engine.planner.plan",
    "engine.shared.batch", "serve.parse", "serve.acquire", "serve.refresh",
    "serve.execute", "serve.serialize", "serve.wait",
)

#: name -> unit, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "isomorphism.dp_s": "s/op",
    "isomorphism.dp_calls": "count/op",
    "isomorphism.path_calls": "count/op",
    "isomorphism.cover_s": "s/op",
    "cluster.est_s": "s/op",
    "treedecomp.baker_s": "s/op",
    "treedecomp.nice_s": "s/op",
    "isomorphism.pieces": "count/op",
    "isomorphism.recovery_s": "s/op",
    "separating.dp_s": "s/op",
    "separating.cover_s": "s/op",
    "connectivity.search4_s": "s/op",
    "connectivity.search6_s": "s/op",
    "connectivity.search8_s": "s/op",
    "planar.face_vertex_s": "s/op",
    "planar.embed_s": "s",
    "engine.session.hits": "count/op",
    "engine.session.misses": "count/op",
    "engine.session.hit_ratio": "ratio",
    "engine.session.evictions": "count/op",
    "engine.planner.plan_s": "s/op",
    "engine.planner.threads_plans": "count/op",
    "engine.planner.pred_error_p50": "ratio",
    "engine.shared.batch_s": "s/op",
    "exec.tasks": "count/op",
    "exec.bytes_shipped": "bytes/op",
    "serve.parse_s": "s/op",
    "serve.acquire_s": "s/op",
    "serve.refresh_s": "s/op",
    "serve.execute_s": "s/op",
    "serve.serialize_s": "s/op",
    "serve.wait_s": "s/op",
    "serve.sessions_built": "count/op",
    "serve.sessions_evicted": "count/op",
    "serve.coalesced": "count/op",
    "pram.spans": "count/op",
    "host.ref_s": "s",
    "traced.latency_p50_s": "s",
}


def layer_metrics(
    dump: dict, window: Tuple[float, float], before: dict, after: dict,
    ops: int, embed_s: float, host_ref_s: float, traced_p50_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    Time metrics are self seconds per operation (inclusive for the
    ``connectivity.search*`` drivers), summed over the spans that start
    inside the measured ``window``; counts are the difference
    of the snapshots taken at the window's ends, per operation.
    ``planar.embed_s`` is the embedding time of the whole run in seconds
    (for the in-process workloads it all falls in set-up).
    """
    lo, hi = window
    self_s: Counter = Counter()
    for name, _tid, start, end, self_time, _parent in dump["spans"]:
        if lo <= start <= hi:
            # A cycle search is a driver around the separating cover and
            # DP: its metric is inclusive, every other layer's is self time.
            inclusive = name.startswith("connectivity.search")
            self_s[name] += (end - start) if inclusive else self_time

    def delta(key: str) -> float:
        return float(after.get(key, 0) - before.get(key, 0))

    out: Dict[str, float] = {}
    for layer in TIME_LAYERS:
        out[f"{layer}_s"] = self_s[layer] / ops
    out["isomorphism.dp_calls"] = sum(
        1 for s in dump["spans"] if s[0] == "isomorphism.dp"
        and lo <= s[2] <= hi) / ops
    out["isomorphism.path_calls"] = delta("isomorphism.path") / ops
    out["isomorphism.pieces"] = delta("isomorphism.pieces") / ops
    hits, misses = delta("engine.session.hits"), delta(
        "engine.session.misses")
    out["engine.session.hits"] = hits / ops
    out["engine.session.misses"] = misses / ops
    out["engine.session.hit_ratio"] = hits / (hits + misses) if (
        hits + misses) else 0.0
    out["engine.session.evictions"] = delta("engine.session.evictions") / ops
    plans = [p for p in dump["plans"] if lo <= p["at"] <= hi]
    out["engine.planner.threads_plans"] = sum(
        1 for p in plans if p["backend"] == "threads") / ops
    errors = sorted(p["prediction_error"] for p in plans
                    if p["prediction_error"] is not None)
    out["engine.planner.pred_error_p50"] = (
        errors[len(errors) // 2] if errors else 0.0)
    out["exec.tasks"] = delta("exec.tasks") / ops
    out["exec.bytes_shipped"] = delta("exec.bytes_shipped") / ops
    out["serve.sessions_built"] = delta("serve.sessions_built") / ops
    out["serve.sessions_evicted"] = delta("serve.sessions_evicted") / ops
    out["serve.coalesced"] = delta("serve.coalesced") / ops
    out["pram.spans"] = delta("pram.spans") / ops
    out["planar.embed_s"] = embed_s
    out["host.ref_s"] = host_ref_s
    out["traced.latency_p50_s"] = traced_p50_s
    return {name: out[name] for name in PER_LAYER_UNITS}


def embed_seconds(dump: dict) -> float:
    return sum(s[4] for s in dump["spans"] if s[0] == "planar.embed")
