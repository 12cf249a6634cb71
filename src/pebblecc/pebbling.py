"""Pebbling certificates: legality checking, cost metrics, and the explicit
constructions (keep-all topological, the fixed 27-cost sequence on the 16-node
counterexample, the witness-driven gadget schedule, and chain-copy
synchronization).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .b2lc import B2lcWitness, group_consistent
from .graph import Dag, OutOfRange
from .reductions import ReductionLayout

__all__ = [
    "InvalidWitness",
    "Pebbling",
    "CostReport",
    "LegalityVerdict",
    "validate",
    "cost",
    "trivial_pebbling",
    "claim_c1_pebbling",
    "reduction_pebbling",
    "sync_normalize",
    "random_legal_pebbling",
    "pebbling_to_json",
    "pebbling_from_json",
]

MODES = ("parallel", "sequential")


class InvalidWitness(ValueError):
    """The supplied assignment table covers some equation with no assignment."""


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


_CLAIM_C1_ROUNDS = (
    (1,),
    (2,),
    (3,),
    (4,),
    (5,),
    (6,),
    (7,),
    (8,),
    (1, 9),
    (2, 10),
    (3, 11),
    (4, 12),
    (5, 13),
    (6, 14),
    (7, 14),
    (8, 14),
    (9, 15),
    (16,),
)


def claim_c1_pebbling() -> Pebbling:
    """The fixed 18-round, cost-27 pebbling of the 16-node counterexample graph."""
    return Pebbling(rounds=_CLAIM_C1_ROUNDS)


def _canonical_groups(layout: ReductionLayout, w: B2lcWitness):
    """Repair the witness grouping if needed and canonicalize its values.

    Each equation keeps its assigned group when that group's row satisfies
    it, otherwise it moves to the first row that does. The returned values
    are the canonical (per-component min-zero) shift of each group's
    assignment, so every value lies in [0, c].

    Raises:
        InvalidWitness: if some equation is satisfied by no row at all.
    """
    inst = layout.instance
    if len(w.group_of) != inst.k or len(w.values) != inst.m:
        raise InvalidWitness(
            f"witness shape ({len(w.group_of)} groups, {len(w.values)} rows) does "
            f"not match the instance ({inst.k} equations, budget {inst.m})"
        )

    def satisfied_by(eq, row):
        alpha, c_off, beta = eq
        return row[alpha - 1] + c_off == row[beta - 1]

    group_of: list[int] = []
    for i, eq in enumerate(inst.equations):
        preferred = w.group_of[i]
        candidates = [preferred] + [y for y in range(1, inst.m + 1) if y != preferred]
        for y in candidates:
            if 1 <= y <= inst.m and satisfied_by(eq, w.values[y - 1]):
                group_of.append(y)
                break
        else:
            raise InvalidWitness(f"equation {i} is satisfied by no assignment")

    values: list[tuple[int, ...]] = []
    for y in range(1, inst.m + 1):
        idxs = [i for i, gy in enumerate(group_of) if gy == y]
        ok, vals = group_consistent(inst, idxs)
        assert ok, "a satisfying row exists, so the group must be consistent"
        values.append(vals)
    return group_of, values


def reduction_pebbling(layout: ReductionLayout, w: B2lcWitness) -> Pebbling:
    """Pebble a gadget layout along a covering witness, one pass per assignment.

    In pass y every variable chain walks its c nodes once, with variable i's
    chains delayed by V_y - x_{y,i} rounds (V_y the pass maximum), so that the
    chain of a larger-valued variable runs ahead by exactly the value gap.
    That alignment makes equation chains walkable during the pass of the
    assignment that satisfies them. Path gadgets advance c positions per pass
    and park a frontier pebble between passes; finished equation chains park
    their last pebble until the sink round. Passes start as early as the
    frontier alignment allows.

    The result is legal with cc at most layout.pebbling_cost_bound().

    Raises:
        InvalidWitness: if some equation is satisfied by no assignment row.
    """
    inst = layout.instance
    c, tau, m, n = layout.c, layout.tau, inst.m, inst.n_vars
    group_of, values = _canonical_groups(layout, w)

    vmax = [max(row) for row in values]
    start = [0] * (m + 1)  # start[y] = first round of pass y (1-based)
    start[1] = 1
    for y in range(2, m + 1):
        lag_prev = [vmax[y - 2] - x for x in values[y - 2]]
        lag_cur = [vmax[y - 1] - x for x in values[y - 1]]
        d = max(lp - lc for lp, lc in zip(lag_prev, lag_cur))
        start[y] = start[y - 1] + c + d

    # a[y][i]: round at which variable i's chains place node 1 in pass y
    a = [[0] * (n + 1) for _ in range(m + 1)]
    for y in range(1, m + 1):
        for i in range(1, n + 1):
            a[y][i] = start[y] + vmax[y - 1] - values[y - 1][i - 1]
    release = max(a[m][i] + c for i in range(1, n + 1))

    rounds: list[set[int]] = [set() for _ in range(release + 1)]

    def put(node: int, first: int, last: int | None = None) -> None:
        for r in range(first, (last if last is not None else first) + 1):
            rounds[r - 1].add(node)

    for y in range(1, m + 1):
        for i in range(1, n + 1):
            for z in range(1, c + 1):
                r = a[y][i] + z - 1
                for j in range(1, tau + 1):
                    put(layout.var_chain(i, j, z), r)
            for p in range(1, c + 1):
                pos = (y - 1) * c + p
                placed = a[y][i] + p
                if p < c:
                    put(layout.path_node(i, pos), placed)
                else:
                    hold_until = a[y + 1][i] if y < m else release
                    put(layout.path_node(i, pos), placed, hold_until)
    for i, eq in enumerate(inst.equations, start=1):
        alpha, c_i, _beta = eq
        y = group_of[i - 1]
        for e_pos in range(1, c - c_i + 1):
            placed = a[y][alpha] + e_pos
            if e_pos < c - c_i:
                put(layout.eq_chain(i, e_pos), placed)
            else:
                put(layout.eq_chain(i, e_pos), placed, release)
    put(layout.sink_id, release + 1)

    return Pebbling(rounds=tuple(tuple(sorted(r)) for r in rounds))


def sync_normalize(layout: ReductionLayout, p: Pebbling) -> Pebbling:
    """Write the cheapest chain copy's schedule onto all tau copies.

    For each variable i, the copy j whose c chain nodes carry the fewest
    pebble-rounds (ties toward the lowest j) is chosen, and every copy of
    variable i then holds chain node z in exactly the rounds in which copy j
    held it. Pebbles outside the variable chains are untouched.

    Chain node z of a copy has one parent, node z-1 of the same copy, and
    every equation-chain and path node reads all tau copies, so each
    placement of the result had its parents in the previous round of the
    chosen copy: a legal parallel pebbling stays legal. (A sequential one
    can break the one-pebble bound, since copies are placed together.) The
    chain cost becomes tau times the cheapest copy's, so cc never increases,
    and the transform is idempotent.
    """
    inst = layout.instance
    copies = range(1, layout.tau + 1)
    where = {
        layout.var_chain(i, j, z): (i, j, z)
        for i in range(1, inst.n_vars + 1)
        for j in copies
        for z in range(1, layout.c + 1)
    }
    load: dict[tuple[int, int], int] = {}
    for rnd in p.rounds:
        for v in rnd:
            if v in where:
                i, j, _ = where[v]
                load[i, j] = load.get((i, j), 0) + 1
    best = {
        i: min(copies, key=lambda j: load.get((i, j), 0))
        for i in range(1, inst.n_vars + 1)
    }
    new_rounds = []
    for rnd in p.rounds:
        kept = [v for v in rnd if v not in where]
        for v in rnd:
            if v in where:
                i, j, z = where[v]
                if j == best[i]:
                    kept.extend(layout.var_chain(i, k, z) for k in copies)
        new_rounds.append(tuple(kept))
    return Pebbling(rounds=tuple(new_rounds), mode=p.mode)


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
