"""Independent answer checks, run in their own process after the timed run.

Every expected value comes from ``networkx`` on the generated input
graph, never from the program or from a stored copy of its output:

* verdicts: ``GraphMatcher(target, pattern).subgraph_is_monomorphic()``;
* exact counts: the number of labelled monomorphisms networkx enumerates;
* vertex connectivity: ``networkx.node_connectivity``.

On top of the oracles, each answer must satisfy the properties its kind
promises: witnesses are injective and map every pattern edge onto a
target edge; certificate cuts have exactly kappa vertices and disconnect
the target; an in-process result's trace total equals its cost; and a
bipartite target never reports an odd cycle.

Usage::

    python3 perfbench/oracles.py --self-test     # corrupted answers are caught
    python3 perfbench/oracles.py < run.json      # used by run.py

The second form reads ``{"ops": [...], "answers": [...]}`` on stdin and
prints ``{"wrong": [[answer_index, reason], ...]}``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from common import use_source_tree


def nx_pattern(spec: str) -> nx.Graph:
    """The pattern, built by networkx with the program's vertex numbering
    (cycle ``i -> i+1``, path ``i -> i+1``, star centre 0)."""
    name, *args = spec.split(":")
    if name == "triangle":
        return nx.cycle_graph(3)
    if name == "cycle":
        return nx.cycle_graph(int(args[0]))
    if name == "path":
        return nx.path_graph(int(args[0]))
    if name == "star":
        return nx.star_graph(int(args[0]))
    if name == "clique":
        return nx.complete_graph(int(args[0]))
    if name == "diamond":
        return nx.Graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    raise ValueError(f"no oracle pattern for {spec!r}")


def odd_cycle(spec: str) -> bool:
    name, *args = spec.split(":")
    return name == "triangle" or (name == "cycle" and int(args[0]) % 2 == 1)


class Oracle:
    """Memoized expected answers per (target, pattern)."""

    def __init__(self) -> None:
        self._targets: Dict[str, nx.Graph] = {}
        self._memo: Dict[tuple, object] = {}

    def target(self, spec: str) -> nx.Graph:
        graph = self._targets.get(spec)
        if graph is None:
            from repro.cli import parse_target

            g, _ = parse_target(spec)
            graph = nx.Graph()
            graph.add_nodes_from(range(g.n))
            graph.add_edges_from(map(tuple, g.edges().tolist()))
            self._targets[spec] = graph
        return graph

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def occurs(self, target: str, pattern: str) -> bool:
        return self._cached(("occurs", target, pattern), lambda: GraphMatcher(
            self.target(target), nx_pattern(pattern)
        ).subgraph_is_monomorphic())

    def count(self, target: str, pattern: str) -> int:
        return self._cached(("count", target, pattern), lambda: sum(
            1 for _ in GraphMatcher(
                self.target(target), nx_pattern(pattern)
            ).subgraph_monomorphisms_iter()
        ))

    def kappa(self, target: str) -> int:
        return self._cached(("kappa", target), lambda: nx.node_connectivity(
            self.target(target)))

    def bipartite(self, target: str) -> bool:
        return self._cached(("bipartite", target), lambda: nx.is_bipartite(
            self.target(target)))


def witness_problem(
    graph: nx.Graph, pattern: nx.Graph, witness: Optional[dict]
) -> Optional[str]:
    if not witness:
        return "found without a witness"
    image = {int(p): int(v) for p, v in witness.items()}
    if set(image) != set(pattern.nodes):
        return f"witness covers pattern vertices {sorted(image)}"
    if len(set(image.values())) != len(image):
        return "witness is not injective"
    for u, v in pattern.edges:
        if not graph.has_edge(image[u], image[v]):
            return f"pattern edge {u}-{v} maps to non-edge"
    return None


def cut_problem(graph: nx.Graph, kappa: int, cut) -> Optional[str]:
    if cut is None:
        return "certificate requested but none returned"
    cut = {int(v) for v in cut}
    if len(cut) != kappa:
        return f"certificate has {len(cut)} vertices, kappa is {kappa}"
    if not cut <= set(graph.nodes):
        return "certificate names a vertex outside the target"
    rest = graph.subgraph(set(graph.nodes) - cut)
    if rest.number_of_nodes() > 0 and nx.is_connected(rest):
        return "certificate does not disconnect the target"
    return None


def _decide_problem(oracle, target, pattern, answer, want_witness):
    expected = oracle.occurs(target, pattern)
    if bool(answer["found"]) != expected:
        if odd_cycle(pattern) and oracle.bipartite(target):
            return "bipartite target reports an odd cycle"
        return f"found={answer['found']}, oracle says {expected}"
    if expected and (want_witness or answer.get("witness")):
        return witness_problem(
            oracle.target(target), nx_pattern(pattern), answer.get("witness")
        )
    return None


def problem(oracle: Oracle, op: dict, answer: dict) -> Optional[str]:
    """Why ``answer`` is wrong for ``op``, or None when it checks out."""
    kind, target = op["kind"], op["target"]
    if answer.get("trace_cost") is not None and (
        answer["trace_cost"] != answer["cost"]
    ):
        return f"trace total {answer['trace_cost']} != cost {answer['cost']}"
    if kind in ("decide", "witness"):
        # The daemon's decide route answers with find_occurrence, so its
        # answers carry want_witness.
        want = kind == "witness" or answer.get("want_witness", False)
        return _decide_problem(oracle, target, op["patterns"][0], answer, want)
    if kind == "batch":
        results = answer.get("results") or []
        if [r.get("pattern") for r in results] != list(op["patterns"]):
            return "batch answered other patterns than asked"
        for res in results:
            # Batch decides carry no witness; one that is given must hold.
            why = _decide_problem(oracle, target, res["pattern"], res, False)
            if why:
                return f"{res['pattern']}: {why}"
        return None
    if kind == "count":
        expected = oracle.count(target, op["patterns"][0])
        if answer["isomorphisms"] != expected:
            return f"count {answer['isomorphisms']}, oracle says {expected}"
        return None
    if kind in ("vc", "connectivity"):
        expected = oracle.kappa(target)
        if answer["kappa"] != expected:
            return f"kappa {answer['kappa']}, oracle says {expected}"
        if op.get("certificate") and 1 <= expected <= 4:
            return cut_problem(oracle.target(target), expected, answer["cut"])
        return None
    return f"unknown operation kind {kind!r}"


def check(ops: List[dict], answers: List[dict]) -> List[Tuple[int, str]]:
    """``(answer index, reason)`` for every answer that is wrong.

    Answers that carry ``error`` failed to run and are counted by the
    caller; they are not checked here.
    """
    oracle = Oracle()
    wrong = []
    for i, answer in enumerate(answers):
        if "error" in answer:
            continue
        why = problem(oracle, ops[answer["op"]], answer)
        if why:
            wrong.append((i, why))
    return wrong


def self_test() -> List[str]:
    """Feed known-good and deliberately corrupted answers to :func:`check`;
    return the corruptions it failed to catch (empty when sound)."""
    ops = [
        {"kind": "witness", "target": "grid:4x4", "patterns": ["cycle:4"]},
        {"kind": "decide", "target": "grid:4x4", "patterns": ["triangle"]},
        {"kind": "vc", "target": "grid:4x4", "patterns": [],
         "certificate": True},
        {"kind": "count", "target": "grid:4x4", "patterns": ["cycle:4"]},
        {"kind": "batch", "target": "trigrid:3x3",
         "patterns": ["triangle", "path:3"]},
    ]
    good_witness = {"0": 0, "1": 1, "2": 5, "3": 4}
    good = [
        {"op": 0, "found": True, "witness": good_witness,
         "cost": [5, 2], "trace_cost": [5, 2]},
        {"op": 1, "found": False, "witness": None, "cost": [3, 1]},
        {"op": 2, "kappa": 2, "cut": [1, 4], "cost": [1, 1]},
        {"op": 3, "isomorphisms": 9 * 8, "cost": [1, 1]},
        {"op": 4, "cost": [1, 1], "results": [
            {"pattern": "triangle", "found": True,
             "witness": {"0": 0, "1": 1, "2": 4}},
            {"pattern": "path:3", "found": True,
             "witness": {"0": 0, "1": 1, "2": 2}},
        ]},
    ]
    corruptions = {
        "flipped verdict": (0, {"found": False}),
        "non-injective witness": (
            0, {"witness": {"0": 0, "1": 1, "2": 0, "3": 4}}),
        "witness off an edge": (0, {"witness": {"0": 0, "1": 1, "2": 6,
                                                "3": 4}}),
        "trace total differs from cost": (0, {"trace_cost": [5, 3]}),
        "odd cycle in a bipartite grid": (1, {"found": True}),
        "wrong kappa": (2, {"kappa": 3}),
        "cut that does not disconnect": (2, {"cut": [5, 6]}),
        "cut of the wrong size": (2, {"cut": [1, 4, 5]}),
        "missing certificate": (2, {"cut": None}),
        "count off by one": (3, {"isomorphisms": 9 * 8 + 1}),
        "flipped verdict inside a batch": (4, {"results": [
            {"pattern": "triangle", "found": False, "witness": None},
            good[4]["results"][1]]}),
        "bad witness inside a batch": (4, {"results": [
            {"pattern": "triangle", "found": True,
             "witness": {"0": 0, "1": 1, "2": 2}},
            good[4]["results"][1]]}),
    }
    missed = []
    if check(ops, good):
        missed.append(f"good answers rejected: {check(ops, good)}")
    for name, (index, patch) in corruptions.items():
        answers = [dict(a) for a in good]
        answers[index].update(patch)
        caught = {i for i, _ in check(ops, answers)}
        if index not in caught:
            missed.append(name)
    return missed


def main(argv: List[str]) -> int:
    use_source_tree()
    if argv[1:] == ["--self-test"]:
        missed = self_test()
        for name in missed:
            print(f"self-test: corruption not caught: {name}")
        if not missed:
            print("self-test: every corrupted answer was caught")
        return 1 if missed else 0
    missed = self_test()
    if missed:
        raise SystemExit(f"oracle self-test failed: {missed}")
    payload = json.load(sys.stdin)
    wrong = check(payload["ops"], payload["answers"])
    json.dump({"wrong": wrong}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
