"""Pebblings on any DAG: legality checking, cost metrics, the keep-all
topological and seeded random legal pebblings, and JSON I/O.

The pebblings that certify facts about particular graphs (the gadget
schedule, chain-copy synchronization and the 16-node counterexample's
cost-27 pebbling) live in reductions.py, beside the graphs they belong to.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .graph import Dag, OutOfRange

__all__ = [
    "Pebbling",
    "CostReport",
    "LegalityVerdict",
    "validate",
    "cost",
    "trivial_pebbling",
    "random_legal_pebbling",
    "pebbling_to_json",
    "pebbling_from_json",
]

MODES = ("parallel", "sequential")


@dataclass(frozen=True)
class Pebbling:
    """An ordered sequence of pebble sets P_1..P_t (P_0 = empty is implicit).

    Rounds are normalized to sorted duplicate-free tuples. In sequential mode
    a legal pebbling additionally places at most one new pebble per round.
    """

    rounds: tuple[tuple[int, ...], ...]
    mode: str = "parallel"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(
            self, "rounds", tuple(tuple(sorted(set(r))) for r in self.rounds)
        )

    @property
    def t(self) -> int:
        return len(self.rounds)


@dataclass(frozen=True)
class CostReport:
    cc: int
    st: int
    t: int
    max_space: int


@dataclass(frozen=True)
class LegalityVerdict:
    legal: bool
    first_violation: tuple[int, int, str] | None = None


def validate(g: Dag, p: Pebbling) -> LegalityVerdict:
    """Check a pebbling against the graph.

    Legal iff every newly placed pebble had all parents present in the
    previous round, sequential pebblings add at most one pebble per round,
    and every sink is pebbled at some point. Violations are reported in a
    fixed scan order: within a round, missing parents in ascending node
    order, then the sequential bound; unpebbled sinks are reported last with
    the final round index.

    Raises:
        OutOfRange: if a round mentions a node outside [1, g.n]; malformed
            input is an error, not an illegal-pebbling verdict.
    """
    prev: frozenset[int] = frozenset()
    ever: set[int] = set()
    for r_idx, rnd in enumerate(p.rounds, start=1):
        cur = frozenset(rnd)
        for v in rnd:
            if not 1 <= v <= g.n:
                raise OutOfRange(v, g.n)
        new = sorted(cur - prev)
        for v in new:
            if not g.parent_sets[v] <= prev:
                return LegalityVerdict(False, (r_idx, v, "missing_parent"))
        if p.mode == "sequential" and len(new) > 1:
            return LegalityVerdict(False, (r_idx, new[1], "sequential_bound"))
        ever |= cur
        prev = cur
    for s in g.sinks:
        if s not in ever:
            return LegalityVerdict(False, (len(p.rounds), s, "sink_unpebbled"))
    return LegalityVerdict(True, None)


def cost(p: Pebbling) -> CostReport:
    """Cumulative and space-time cost of a pebbling (legal or not)."""
    sizes = [len(r) for r in p.rounds]
    max_space = max(sizes, default=0)
    return CostReport(
        cc=sum(sizes),
        st=len(sizes) * max_space,
        t=len(sizes),
        max_space=max_space,
    )


def trivial_pebbling(g: Dag) -> Pebbling:
    """Keep-all topological pebbling: P_i = {1..i}; always legal, cc n(n+1)/2."""
    return Pebbling(rounds=tuple(tuple(range(1, i + 1)) for i in range(1, g.n + 1)))


def random_legal_pebbling(g: Dag, seed: int, mode: str = "parallel") -> Pebbling:
    """A legal pebbling with randomized placements and drops, seeded.

    Runs a random phase for 3n rounds, placing a random nonempty subset of
    the available nodes and keeping each held pebble with probability 0.7,
    then switches to a keep-everything completion phase, which terminates
    within depth(g) further rounds.
    """
    rng = random.Random(seed)
    sinks = set(g.sinks)
    satisfied: set[int] = set()
    cur: set[int] = set()
    rounds: list[frozenset[int]] = []
    while not sinks <= satisfied:
        avail = [
            v for v in range(1, g.n + 1) if v not in cur and g.parent_sets[v] <= cur
        ]
        if len(rounds) < 3 * g.n:
            if mode == "sequential":
                place = {rng.choice(avail)}
            else:
                place = {v for v in avail if rng.random() < 0.5}
                if not place:
                    place = {rng.choice(avail)}
            keep = {v for v in cur if rng.random() < 0.7}
            cur = keep | place
        else:
            cur = cur | {avail[0]} if mode == "sequential" else cur | set(avail)
        rounds.append(frozenset(cur))
        satisfied |= cur & sinks
    return Pebbling(rounds=tuple(tuple(sorted(r)) for r in rounds), mode=mode)


def pebbling_to_json(p: Pebbling) -> str:
    return json.dumps({"mode": p.mode, "rounds": [list(r) for r in p.rounds]})


def pebbling_from_json(text: str) -> Pebbling:
    data = json.loads(text)
    try:
        rounds = tuple(tuple(int(v) for v in r) for r in data["rounds"])
    except TypeError as exc:
        raise ValueError(f"pebbling JSON has the wrong shape: {exc}") from exc
    return Pebbling(rounds=rounds, mode=data.get("mode", "parallel"))


def __getattr__(name: str):
    # perfbench/workloads.py still imports reduction_pebbling from here; a
    # top-level import would bring back the pebbling -> reductions edge,
    # which is a cycle now that reductions imports Pebbling.
    if name == "reduction_pebbling":
        from .reductions import reduction_pebbling

        return reduction_pebbling
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
