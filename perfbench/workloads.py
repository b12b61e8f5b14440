"""The benchmark's workloads: fixed operation lists generated from a seed.

Every workload is one list of operations (a *pass*) that a run repeats a
fixed number of times.  The run seed picks the point sets of the random
target families (Delaunay, outerplanar, trees); the list itself (target
families and sizes, patterns, algorithm seeds, order) is the same for
every seed, so all runs of a workload do the same kind and about the same
amount of work.

Target specs use the program's own spec grammar (``repro.cli``), which the
daemon accepts on the wire too, so all three workloads describe their
inputs the same way.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

WORKLOADS = ("decide-cold", "vc", "serve-mixed")


@dataclass(frozen=True)
class Op:
    """One operation: a query kind, its target spec and arguments.

    ``kind`` is ``decide`` / ``witness`` (one-shot
    ``decide_subgraph_isomorphism`` / ``find_occurrence``), ``vc``
    (``planar_vertex_connectivity``) or, for the daemon, one of the
    routes ``decide`` / ``batch`` / ``count`` / ``connectivity``.
    """

    kind: str
    target: str
    patterns: Tuple[str, ...] = ()
    seed: int = 0
    rounds: Optional[int] = None
    certificate: bool = False
    client: int = 0

    @property
    def label(self) -> str:
        extra = " ".join(self.patterns)
        if self.rounds is not None:
            extra += f" rounds={self.rounds}"
        if self.certificate:
            extra += " +certificate"
        return f"{self.kind} {self.target} {extra}".strip()

    def as_dict(self) -> dict:
        return asdict(self)


# -- decide-cold ------------------------------------------------------------
# (kind, target spec with {s} for a seeded family, pattern).  Present
# patterns stop after the first cover round that captures them; the odd
# cycle in the bipartite grid is absent and runs all ceil(2 log2 n) rounds.
DECIDE_COLD = (
    ("decide", "grid:16x16", "cycle:4"),
    ("decide", "trigrid:10x10", "triangle"),
    ("witness", "trigrid:8x8", "diamond"),
    ("decide", "grid:8x8", "path:3"),
    ("witness", "delaunay:100:{s}", "triangle"),
    ("decide", "trigrid:8x8", "triangle"),
    ("witness", "grid:8x8", "star:3"),
    ("decide", "grid:6x6", "cycle:6"),
    ("decide", "outerplanar:150:{s}", "triangle"),
    ("witness", "grid:10x10", "path:3"),
    ("decide", "grid:5x5", "triangle"),
)

# -- vc -----------------------------------------------------------------------
# (target, rounds, certificate).  kappa runs from 1 to 5; the antiprism
# (kappa 4) and the icosahedron (kappa 5) are the four-versus-five-connected
# cases.  The icosahedron runs one round: every cycle search on it is
# absent, and the method errs only by missing a separating cycle, so its
# answer of 5 is exact at any round count.  The cheaper kappa 1 to 3
# queries appear twice (with their own algorithm seeds), once before each
# heavy query, so the latency percentiles sit among many samples of
# similar cost spread over the run.
_VC_CHEAP = (
    ("wheel:5", None, False),
    ("wheel:6", None, True),
    ("grid:5x5", None, False),
    ("grid:5x5", None, True),
    ("grid:4x4", None, False),
    ("grid:3x8", None, False),
    ("trigrid:4x4", None, False),
    ("trigrid:5x5", None, False),
    ("cycle:24", None, False),
    ("outerplanar:30:{s}", None, False),
    ("outerplanar:20:{s}", None, True),
    ("outerplanar:15:{s}", None, False),
    ("tree:25:{s}", None, True),
)
VC = (
    _VC_CHEAP + (("antiprism:4", None, False),)
    + _VC_CHEAP + (("icosahedron", 1, False),)
)

# -- serve-mixed --------------------------------------------------------------
# Client 0 ("hot") cycles warm queries over two resident targets.  Client 1
# ("churn") sends heavier requests, each on a target no request has used
# before, so every one builds a session (cache writes) and the pool budget
# evicts the oldest churn sessions.  After each of them the churn client
# also sends the next hot query, on the hot client's targets, so the two
# connections wait on the same session locks and identical requests in
# flight coalesce.  Only warm hits share a target: a warm hit inserts
# nothing into the session cache, so the refresh race (README.md) cannot
# fire on it.
HOT = (
    ("decide", "grid:16x16", ("cycle:4",)),
    ("batch", "trigrid:12x12", ("triangle", "cycle:4", "path:3")),
    ("batch", "grid:16x16", ("cycle:4", "path:4", "star:3")),
    ("decide", "trigrid:12x12", ("triangle",)),
)
CHURN = (
    ("count", "grid:{shape}", ("cycle:4",)),
    ("connectivity", "outerplanar:40:{s}", ()),
    ("decide", "delaunay:100:{s}", ("triangle",)),
    ("decide", "outerplanar:120:{s}", ("cycle:4",)),
)
#: Grid shapes of about 90 vertices for the churn client's counts, one
#: per pass (cycled), so no count target repeats within a run.
COUNT_SHAPES = ("9x10", "10x9", "8x11", "11x8", "7x13", "13x7", "6x15",
                "15x6")
#: Residency budget: the two hot sessions (about 6.7 MB after the warm
#: pass) plus the churn sessions of the last pass or two (0.3 to 1.8 MB
#: each); older churn sessions are evicted.
SERVE_BUDGET_MB = 16.0
#: Hot-client passes over ``HOT`` per churn-client pass over ``CHURN``.
#: A chosen mix, not measured traffic: at 16 the hot client's 64 warm
#: requests (about 4.5 s) take about as long as the churn client's pass
#: (about 6 s), so both connections stay busy for the whole window.
HOT_PER_PASS = 16

#: Nominal seconds one pass takes on the reference host (2 cores); a run
#: of ``--seconds S`` makes ``max(1, round(S / PASS_SECONDS))`` passes,
#: so two commits measured with the same settings do the same work.
PASS_SECONDS = {"decide-cold": 15.0, "vc": 30.0, "serve-mixed": 5.0}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _draws(key: str):
    rng = random.Random(key)
    return lambda: rng.randrange(1, 1 << 30)


def build_ops(workload: str, seed: int, passes: int = 1) -> List[Op]:
    """The operations of ``workload`` for ``seed``.

    In-process workloads return one pass, which a run repeats.
    serve-mixed returns the hot queries (repeated by the run) followed by
    ``passes`` churn passes, each on new targets.
    """
    # The run seed picks the random targets; the queries' own algorithm
    # seeds are fixed per operation, so a run's amount of work depends on
    # the generated targets and not on which cover rounds happen to
    # capture a pattern first.
    draw = _draws(workload)
    target_seed = _draws(f"{workload}/{seed}")
    family_seed = target_seed()
    ops: List[Op] = []
    if workload == "decide-cold":
        for kind, target, pattern in DECIDE_COLD:
            ops.append(Op(kind, target.format(s=family_seed), (pattern,),
                          seed=draw()))
    elif workload == "vc":
        for target, rounds, cert in VC:
            ops.append(Op("vc", target.format(s=family_seed), (),
                          seed=draw(), rounds=rounds, certificate=cert))
    elif workload == "serve-mixed":
        for kind, target, patterns in HOT:
            ops.append(Op(kind, target, patterns, seed=draw(), client=0))
        for p in range(passes):
            shape = COUNT_SHAPES[p % len(COUNT_SHAPES)]
            for kind, target, patterns in CHURN:
                ops.append(Op(kind, target.format(s=target_seed(),
                                                  shape=shape),
                              patterns, seed=draw(), client=1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def build_targets(ops: List[Op]) -> dict:
    """Generate and embed every distinct target of ``ops`` (the setup)."""
    from repro.cli import parse_target

    return {spec: parse_target(spec) for spec in dict.fromkeys(
        op.target for op in ops)}


def build_patterns(ops: List[Op]) -> dict:
    from repro.cli import parse_pattern

    return {spec: parse_pattern(spec) for op in ops for spec in op.patterns}
