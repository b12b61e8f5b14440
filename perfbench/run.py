"""Run one benchmark workload and print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload decide-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that wraps the program's layer
entry points (``tracing.py``) and reports per-layer metrics instead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say how
the run went (tail percentile and sample count, failures by reason,
``host.ref_s``).  Spans and per-operation records of traced runs are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR,
    MIN_SAMPLES,
    OUT_DIR,
    ROOT,
    SourceMissing,
    child_env,
    latency_summary,
    median,
    peak_rss_mb_of,
    reference_loop_s,
    use_source_tree,
)
from workloads import (  # noqa: E402
    HOT_PER_PASS,
    SERVE_BUDGET_MB,
    WORKLOADS,
    Op,
    build_ops,
    build_patterns,
    build_targets,
    passes_for,
)

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: The named daemon fault (see README.md, "The refresh race").
REFRESH_RACE = "dictionary changed size during iteration"


def _cost(cost) -> List[int]:
    return [int(cost.work), int(cost.depth)]


# -- in-process workloads (decide-cold, vc) -----------------------------------


def _execute(op: Op, targets: dict, patterns: dict):
    from repro.connectivity import planar_vertex_connectivity
    from repro.isomorphism import decide_subgraph_isomorphism, find_occurrence

    graph, embedding = targets[op.target]
    if op.kind == "vc":
        return planar_vertex_connectivity(
            graph, embedding, seed=op.seed, rounds=op.rounds,
            want_certificate=op.certificate,
        )
    driver = find_occurrence if op.kind == "witness" else (
        decide_subgraph_isomorphism)
    return driver(graph, embedding, patterns[op.patterns[0]], seed=op.seed)


def _answer(index: int, op: Op, result) -> dict:
    answer = {"op": index, "cost": _cost(result.cost),
              "trace_cost": _cost(result.trace.cost)}
    if op.kind == "vc":
        cut = result.certificate_cut
        answer.update(kappa=int(result.connectivity),
                      cut=sorted(int(v) for v in cut) if cut else None)
    else:
        witness = result.witness
        answer.update(
            found=bool(result.found),
            witness={str(p): int(v) for p, v in witness.items()}
            if witness else None,
            pieces=int(result.pieces_examined),
        )
    return answer


def _setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process doing the workload's set-up."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=child_env(), check=True, timeout=60,
    )
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> int:
    """Child side of the set-up timing: imports, generation, embedding."""
    import repro.connectivity  # noqa: F401
    import repro.isomorphism  # noqa: F401

    ops = build_ops(workload, seed)
    build_targets(ops)
    build_patterns(ops)
    return 0


def run_in_process(args, recorder) -> dict:
    ops = build_ops(args.workload, args.seed)
    setup = [] if args.trace else [
        _setup_probe_seconds(args.workload, args.seed)
        for _ in range(SETUP_REPEATS)
    ]
    if recorder is not None:
        recorder.install()
    import repro.connectivity  # noqa: F401
    import repro.isomorphism  # noqa: F401

    targets = build_targets(ops)
    patterns = build_patterns(ops)
    schedule = [i for _ in range(passes_for(args.workload, args.seconds))
                for i in range(len(ops))]
    answers, latencies, per_op = [], [], []
    pieces = 0
    before = recorder.snapshot() if recorder is not None else None
    start = time.perf_counter()
    for index in schedule:
        t0 = time.perf_counter()
        try:
            result = _execute(ops[index], targets, patterns)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            answers.append({"op": index, "error": repr(exc)})
            continue
        latencies.append(time.perf_counter() - t0)
        per_op.append((index, latencies[-1]))
        answer = _answer(index, ops[index], result)
        pieces += answer.get("pieces", 0)
        answers.append(answer)
        del result
    end = time.perf_counter()
    after = None
    if recorder is not None:
        after = recorder.snapshot({"isomorphism.pieces": pieces})
    return {
        "ops": ops, "answers": answers, "latencies": latencies,
        "per_op": per_op, "window": (start, end), "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "before": before, "after": after,
        "dump": recorder.dump() if recorder is not None else None,
    }


# -- serve-mixed ----------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, log_path: str, trace_out: Optional[str]) -> None:
        serve_args = ["serve", "--port", "0",
                      "--cache-budget-mb", str(SERVE_BUDGET_MB)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro"] + serve_args
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_launcher.py"),
                   "--out", trace_out, "--"] + serve_args
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        import select

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    return int(line.split("listening on ")[1].split()[0]
                               .rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("daemon did not start; see its log in "
                           f"{self._log.name}")

    def stop(self) -> None:
        import signal

        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def _body(op: Op) -> dict:
    body = {"target": op.target}
    if op.kind == "batch":
        body["patterns"] = list(op.patterns)
    elif op.patterns:
        body["pattern"] = op.patterns[0]
    if op.kind != "count":
        body["seed"] = op.seed
    return body


class Client:
    """One keep-alive connection sending requests in a closed loop."""

    def __init__(self, port: int) -> None:
        import http.client

        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if response.getheader("Content-Type", "").startswith(
                "application/json"):
            return response.status, json.loads(data)
        return response.status, data.decode()

    def query(self, op: Op):
        return self.call("POST", f"/v1/{op.kind}", _body(op))

    def close(self) -> None:
        self.conn.close()


def _serve_answer(index: int, op: Op, status: int, payload) -> dict:
    if status != 200:
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        return {"op": index, "error": error.get("message", str(payload)),
                "status": status}
    answer = {"op": index, "cost": [payload["cost"]["work"],
                                    payload["cost"]["depth"]]}
    if op.kind == "decide":
        answer.update(found=payload["found"], witness=payload["witness"],
                      want_witness=True, pieces=payload["pieces_examined"])
    elif op.kind == "batch":
        answer["results"] = [
            {"pattern": r["pattern"], "found": r["found"],
             "witness": r["witness"]} for r in payload["results"]]
        answer["pieces"] = sum(r["pieces_examined"]
                               for r in payload["results"])
    elif op.kind == "count":
        answer["isomorphisms"] = payload["isomorphisms"]
    else:
        answer.update(kappa=payload["connectivity"],
                      cut=payload["certificate_cut"])
    return answer


def _warm(port: int, ops: List[Op]) -> None:
    client = Client(port)
    try:
        status, _ = client.call("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        for op in ops:
            status, payload = client.query(op)
            if status != 200:
                raise RuntimeError(f"warm-up {op.label}: {status} {payload}")
        client.call("GET", "/healthz")
    finally:
        client.close()


def run_serve(args) -> dict:
    """serve-mixed; its traced run records inside the daemon."""
    import threading

    passes = passes_for(args.workload, args.seconds)
    ops = build_ops(args.workload, args.seed, passes)
    hot = [i for i, op in enumerate(ops) if op.client == 0]
    churn = [i for i, op in enumerate(ops) if op.client == 1]
    # The churn client follows each churn request with the next hot query.
    schedules = [hot * HOT_PER_PASS * passes,
                 [i for pair in zip(churn, itertools.cycle(hot))
                  for i in pair]]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_out = os.path.join(OUT_DIR, f"{tag}-daemon.json") if (
        args.trace) else None

    setup, daemon = [], None
    try:
        for rep in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            daemon = Daemon(os.path.join(OUT_DIR, f"{tag}-daemon.log"),
                            trace_out)
            _warm(daemon.port, [ops[i] for i in hot])
            setup.append(time.perf_counter() - t0)
            if rep < SETUP_REPEATS - 1 and not args.trace:
                daemon.stop()
                daemon = None

        records: List[list] = [[], []]
        errors: List[BaseException] = []

        def drive(slot: int) -> None:
            client = Client(daemon.port)
            try:
                for index in schedules[slot]:
                    t0 = time.perf_counter()
                    status, payload = client.query(ops[index])
                    records[slot].append(
                        (index, time.perf_counter() - t0, status, payload))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=drive, args=(slot,))
                   for slot in (0, 1)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        if errors:
            raise errors[0]
        health = Client(daemon.port)
        try:
            health.call("GET", "/healthz")
        finally:
            health.close()
        peak_rss = peak_rss_mb_of(daemon.proc.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    answers, latencies, per_op = [], [], []
    for index, latency, status, payload in records[0] + records[1]:
        answer = _serve_answer(index, ops[index], status, payload)
        answers.append(answer)
        if "error" not in answer:
            latencies.append(latency)
            per_op.append((index, latency))
    result = {
        "ops": ops, "answers": answers, "latencies": latencies,
        "per_op": per_op,
        "window": (start, end), "setup": setup, "peak_rss_mb": peak_rss,
        "before": None, "after": None, "dump": None,
    }
    if args.trace:
        with open(trace_out, encoding="utf-8") as fh:
            dump = json.load(fh)
        pieces = sum(a.get("pieces", 0) for a in answers)
        result["dump"] = dump
        result["before"] = dump["snapshots"][-2][1]
        result["after"] = dict(dump["snapshots"][-1][1],
                               **{"isomorphism.pieces": pieces})
    return result


# -- checking and reporting ------------------------------------------------------


def check_answers(ops: List[Op], answers: List[dict]) -> List[list]:
    """Run the oracle process on every answer; ``[[index, reason]...]``."""
    payload = json.dumps({"ops": [op.as_dict() for op in ops],
                          "answers": answers})
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "oracles.py")],
        input=payload, capture_output=True, text=True, cwd=ROOT,
        env=child_env(), timeout=100,
    )
    if done.returncode != 0:
        raise RuntimeError(f"oracle process failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout)["wrong"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)

    ref_start = reference_loop_s()
    recorder = None
    if args.trace and args.workload != "serve-mixed":
        from tracing import Recorder

        recorder = Recorder()
    if args.workload == "serve-mixed":
        run = run_serve(args)
    else:
        run = run_in_process(args, recorder)
    ref_end = reference_loop_s()

    ops, answers = run["ops"], run["answers"]
    wrong = check_answers(ops, answers)
    errors = [a for a in answers if "error" in a]
    attempted = len(answers)
    failed = len(errors) + len(wrong)
    window_s = run["window"][1] - run["window"][0]
    answered = [a for a in answers if "error" not in a]
    host_ref = median([ref_start, ref_end])

    print(f"workload {args.workload} seed {args.seed}: {attempted} "
          f"operations in {window_s:.2f} s, {failed} failed")
    for a in errors:
        race = " [refresh race]" if REFRESH_RACE in a["error"] else ""
        print(f"failed{race}: {ops[a['op']].label}: "
              f"{a.get('status', '')} {a['error']}")
    for index, why in wrong:
        print(f"wrong: {ops[answers[index]['op']].label}: {why}")
    print(f"host.ref_s {host_ref:.6f}")
    if len(run["latencies"]) < MIN_SAMPLES:
        # Too few answered operations for the percentiles: report the
        # counts with no metric values and fail the run.
        print(f"only {len(run['latencies'])} operations answered; the "
              f"latency tail needs {MIN_SAMPLES}")
        print(json.dumps({"correct": not wrong, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    lat = latency_summary(run["latencies"])
    print(f"latency_tail_s is p{lat['tail_percentile']} of "
          f"{lat['samples']} samples")

    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-ops.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"labels": [op.label for op in ops],
                   "per_op": run["per_op"], "setup": run["setup"]}, fh)
    if args.trace:
        from tracing import PER_LAYER_UNITS, embed_seconds, layer_metrics

        dump = run["dump"]
        values = layer_metrics(
            dump, run["window"], run["before"], run["after"], attempted,
            embed_seconds(dump), host_ref, lat["latency_p50_s"],
        )
        units = PER_LAYER_UNITS
        path = os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"window": run["window"], "metrics": values,
                       "latencies": run["latencies"], "trace": dump}, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        values = {
            "latency_p50_s": lat["latency_p50_s"],
            "latency_tail_s": lat["latency_tail_s"],
            "throughput_ops": attempted / window_s,
            "setup_s": median(run["setup"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "charged_work": float(sum(a["cost"][0] for a in answered)),
            "charged_depth": float(sum(a["cost"][1] for a in answered)),
        }
        units = {"latency_p50_s": "s", "latency_tail_s": "s",
                 "throughput_ops": "1/s", "setup_s": "s",
                 "peak_rss_mb": "MB", "charged_work": "work",
                 "charged_depth": "steps"}
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
