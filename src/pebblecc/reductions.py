"""Instance and graph constructions, with the pebblings that certify them:
3-partition to covering equations, the covering-equation gadget graph with
its witness-driven schedule and chain-copy synchronization, vertex-cover
decorations, indegree reduction, chain appending, and the fixed 16-node
counterexample graph with its cost-27 pebbling.
"""

from __future__ import annotations

import heapq
import json
import warnings
from dataclasses import dataclass, field

from .b2lc import B2lcInstance, B2lcWitness, ThreePartitionInstance, _assemble_witness, b2lc_to_json
from .graph import Dag, build_dag, dag_to_json
from .pebbling import Pebbling

__all__ = [
    "NotDivisibleWarning",
    "DegenerateEquation",
    "AmbiguousSink",
    "InvalidWitness",
    "ReductionLayout",
    "reduction_pebbling",
    "sync_normalize",
    "threepartition_to_b2lc",
    "default_tau",
    "b2lc_to_graph",
    "vc_to_reducible",
    "reduce_indegree",
    "append_chain",
    "amplifier_chain_length",
    "counterexample_dag",
    "claim_c1_pebbling",
    "layout_to_json",
]


class NotDivisibleWarning(UserWarning):
    """The triple-sum target T/n is fractional; the emitted instance is scaled."""


class DegenerateEquation(ValueError):
    """An equation whose offset equals the full chain length leaves a 0-node gadget."""

    def __init__(self, index: int) -> None:
        super().__init__(f"equation {index} has offset >= c; its gadget chain would be empty")
        self.index = index


class AmbiguousSink(ValueError):
    """The operation needs a unique sink but the graph has several."""


class InvalidWitness(ValueError):
    """The supplied assignment table covers some equation with no assignment."""


@dataclass(frozen=True)
class ReductionLayout:
    """The gadget graph of a covering instance plus its coordinate labelling.

    Coordinates are strings: "C/i/j/z" is node z of copy j of variable i's
    chain, "E/i/a" is node a of equation i's chain, "M/i/p" is position p of
    variable i's long path, and "sink" is the single sink. label_map is a
    bijection from coordinates to node ids.
    """

    graph: Dag
    instance: B2lcInstance
    tau: int
    c: int
    label_map: dict[str, int] = field(repr=False)

    def var_chain(self, i: int, j: int, z: int) -> int:
        return self.label_map[f"C/{i}/{j}/{z}"]

    def eq_chain(self, i: int, a: int) -> int:
        return self.label_map[f"E/{i}/{a}"]

    def path_node(self, i: int, p: int) -> int:
        return self.label_map[f"M/{i}/{p}"]

    @property
    def sink_id(self) -> int:
        return self.label_map["sink"]

    def pebbling_cost_bound(self) -> int:
        """Cumulative-cost guarantee of the witness-driven pebbling schedule."""
        inst = self.instance
        n, m, k = inst.n_vars, inst.m, inst.k
        return self.tau * self.c * m * n + 2 * self.c * m * n + 2 * self.c * k * m + 1


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

    # a satisfying row exists for each equation, so every group is consistent
    canon = _assemble_witness(inst, tuple(group_of))
    return canon.group_of, canon.values


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


def threepartition_to_b2lc(p: ThreePartitionInstance) -> B2lcInstance:
    """Encode a 3-partition instance as a covering-equation instance.

    Elements are sorted ascending into a ladder of difference equations over
    x_1..x_{3n+1}: one row per element offset, one all-zero spacer row per
    repeat, scaled target rows, and n closing equations tying x_1 to
    x_{3n+1}. Budget m is set to n. Equation count is 3n^2 + n.

    If n does not divide the total T, the instance is a trivial no; the
    reduction is still emitted, applied to the instance scaled by n (which
    preserves the answer and keeps every constant integral), under a
    NotDivisibleWarning.
    """
    n = p.n
    total = p.total
    scale = 1
    if total % n:
        scale = n
        warnings.warn(
            f"triple-sum target {total}/{n} is fractional; emitting the reduction "
            f"of the instance scaled by {n}",
            NotDivisibleWarning,
            stacklevel=2,
        )
    xs = tuple(sorted(x * scale for x in p.elements))
    t = total * scale
    eqs: list[tuple[int, int, int]] = []
    for i in range(1, 3 * n + 1):
        eqs.append((i, xs[i - 1], i + 1))
    for q in range(0, n - 1):
        for i in range(1, 3 * n + 1):
            eqs.append((i, q * t, i + 1))
    for i in range(1, n + 1):
        eqs.append((1, t // n + 3 * (i - 1) * (n - 2) * t, 3 * n + 1))
    return B2lcInstance(
        n_vars=3 * n + 1,
        m=n,
        equations=tuple(eqs),
        promise_bound={"promise_satisfied": p.promise_satisfied, "scaled_by": scale},
    )


def default_tau(inst: B2lcInstance) -> int:
    """Chain replication count large enough to separate yes from no instances."""
    c = sum(c_i for _, c_i, _ in inst.equations)
    return 2 * c * inst.m * inst.n_vars + 2 * c * inst.k * inst.m + 2


def b2lc_to_graph(inst: B2lcInstance, tau: int | None = None) -> ReductionLayout:
    """Build the pebbling gadget graph of a covering-equation instance.

    Per variable, tau parallel chains of c = sum(c_i) nodes; per equation i, a
    chain of c - c_i nodes whose node a also hangs off chain positions a (of
    the alpha variable) and a + c_i (of the beta variable) in all tau copies;
    per variable, a path of c*m nodes whose position p + qc hangs off chain
    position p in all copies; one sink fed by the last node of every equation
    chain and every path.

    Node ids are assigned in the documented deterministic order (variable
    chains by (i, j, z), equation chains by (i, a), paths by (i, p), then the
    sink), which is already topological, so no relabelling happens.

    Raises:
        DegenerateEquation: if some offset c_i satisfies c_i >= c.
        ValueError: if c < 1.
    """
    offsets = [c_i for _, c_i, _ in inst.equations]
    c = sum(offsets)
    if c < 1:
        raise ValueError("the offsets sum to 0; the gadget needs c >= 1")
    for idx, c_i in enumerate(offsets):
        if c_i >= c:
            raise DegenerateEquation(idx)
    if tau is None:
        tau = default_tau(inst)
    if tau < 1:
        raise ValueError(f"need tau >= 1, got {tau}")

    n, m, k = inst.n_vars, inst.m, inst.k
    label_map: dict[str, int] = {}
    nid = 0

    def fresh(coord: str) -> int:
        nonlocal nid
        nid += 1
        label_map[coord] = nid
        return nid

    edges: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        for j in range(1, tau + 1):
            prev = None
            for z in range(1, c + 1):
                cur = fresh(f"C/{i}/{j}/{z}")
                if prev is not None:
                    edges.append((prev, cur))
                prev = cur
    for i in range(1, k + 1):
        alpha, c_i, beta = inst.equations[i - 1]
        prev = None
        for a in range(1, c - c_i + 1):
            cur = fresh(f"E/{i}/{a}")
            if prev is not None:
                edges.append((prev, cur))
            for l in range(1, tau + 1):
                edges.append((label_map[f"C/{alpha}/{l}/{a}"], cur))
                edges.append((label_map[f"C/{beta}/{l}/{a + c_i}"], cur))
            prev = cur
    for i in range(1, n + 1):
        prev = None
        for p in range(1, c * m + 1):
            cur = fresh(f"M/{i}/{p}")
            if prev is not None:
                edges.append((prev, cur))
            p_local = (p - 1) % c + 1
            for j in range(1, tau + 1):
                edges.append((label_map[f"C/{i}/{j}/{p_local}"], cur))
            prev = cur
    sink = fresh("sink")
    for i in range(1, k + 1):
        edges.append((label_map[f"E/{i}/{c - offsets[i - 1]}"], sink))
    for i in range(1, n + 1):
        edges.append((label_map[f"M/{i}/{c * m}"], sink))

    expected = tau * n * c + sum(c - c_i for c_i in offsets) + n * c * m + 1
    assert nid == expected, f"node count {nid} != formula {expected}"
    return ReductionLayout(
        graph=build_dag(nid, edges),
        instance=inst,
        tau=tau,
        c=c,
        label_map=label_map,
    )


def vc_to_reducible(
    n: int, edges, convention: str = "nodes"
) -> tuple[Dag, frozenset[int]]:
    """Decorate an undirected graph for the removal-set correspondence.

    Each undirected edge is oriented label-forward; vertex i gets an incoming
    chain of length n-i and an outgoing chain of length i-1. Under the
    "nodes" convention a chain of length L has L nodes; under "edges" it has
    L internal edges, hence L+1 nodes. Either way one extra edge joins the
    chain to its vertex, and labels stay topological.

    A bare vertex path then has n nodes (n+1 edges under "edges"), while a
    path through edge (i, j), i < j, has n+1+(j-i) >= n+2 nodes (n+3 or
    more edges under "edges"). Removing vertex i leaves chains shorter than
    n, and a removed chain node can be traded for its vertex, so under a
    depth bound d in {n, n+1} ("nodes") or {n+1, n+2} ("edges") the minimum
    depth-reducing set has the size of a minimum vertex cover.

    Returns:
        (dag, originals) where originals marks the ids of the n input
        vertices inside the decorated DAG.
    """
    if convention not in ("nodes", "edges"):
        raise ValueError(f"unknown length convention {convention!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    undirected: set[tuple[int, int]] = set()
    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise ValueError(f"bad undirected edge ({a}, {b})")
        undirected.add((min(a, b), max(a, b)))

    extra = 1 if convention == "edges" else 0
    out_edges: list[tuple[int, int]] = []
    vertex_id: dict[int, int] = {}
    nid = 0
    for i in range(1, n + 1):
        in_len = (n - i) + extra
        prev = None
        for _ in range(in_len):
            nid += 1
            if prev is not None:
                out_edges.append((prev, nid))
            prev = nid
        nid += 1
        vertex_id[i] = nid
        if prev is not None:
            out_edges.append((prev, nid))
        prev = nid
        out_len = (i - 1) + extra
        for _ in range(out_len):
            nid += 1
            out_edges.append((prev, nid))
            prev = nid
    for a, b in sorted(undirected):
        out_edges.append((vertex_id[a], vertex_id[b]))
    return build_dag(nid, out_edges), frozenset(vertex_id.values())


def _relabel_topological(
    n: int, raw_edges: list[tuple[int, int]]
) -> tuple[Dag, dict[int, int]]:
    """Relabel an acyclic digraph on ids 1..n so labels become topological.

    Kahn's algorithm popping the smallest old id first, so the result is
    deterministic. Returns the Dag and the old-to-new mapping.
    """
    indeg = [0] * (n + 1)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in raw_edges:
        indeg[v] += 1
        children[u].append(v)
    ready = [v for v in range(1, n + 1) if indeg[v] == 0]
    heapq.heapify(ready)
    mapping: dict[int, int] = {}
    nxt = 0
    while ready:
        v = heapq.heappop(ready)
        nxt += 1
        mapping[v] = nxt
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if nxt != n:
        raise ValueError("digraph has a cycle")
    return build_dag(n, [(mapping[u], mapping[v]) for u, v in raw_edges]), mapping


def reduce_indegree(g: Dag, delta: int = 2, *, with_map: bool = False):
    """Cap indegrees at delta by replacing fan-ins with balanced merge trees.

    A node with p > delta parents gets ceil((p-1)/(delta-1)) - 1 fresh
    internal nodes; its former parents feed chunks of delta, level by level,
    until at most delta feed the node itself. Reachability between original
    nodes is unchanged. The result is relabelled topologically.

    Args:
        g: input graph.
        delta: target indegree bound, at least 2.
        with_map: also return the old-to-new id mapping (original ids only
            when the graph is returned unchanged).

    Returns:
        The transformed Dag, or (Dag, mapping) when with_map is set.
    """
    if delta < 2:
        raise ValueError(f"need delta >= 2, got {delta}")
    if g.max_indeg <= delta:
        return (g, {v: v for v in range(1, g.n + 1)}) if with_map else g

    raw_edges: list[tuple[int, int]] = []
    nid = g.n
    for v in range(1, g.n + 1):
        parents = sorted(g.parent_sets[v])
        if len(parents) <= delta:
            raw_edges.extend((u, v) for u in parents)
            continue
        layer = parents
        while len(layer) > delta:
            nxt: list[int] = []
            for q in range(0, len(layer), delta):
                chunk = layer[q : q + delta]
                if len(chunk) == 1:
                    nxt.append(chunk[0])
                else:
                    nid += 1
                    raw_edges.extend((u, nid) for u in chunk)
                    nxt.append(nid)
            layer = nxt
        raw_edges.extend((u, v) for u in layer)
    out, mapping = _relabel_topological(nid, raw_edges)
    return (out, mapping) if with_map else out


def append_chain(g: Dag, length: int) -> Dag:
    """Extend the unique sink with a fresh path of `length` nodes.

    Raises:
        AmbiguousSink: if the graph has more than one sink.
        ValueError: if length < 1.
    """
    if length < 1:
        raise ValueError(f"need length >= 1, got {length}")
    if len(g.sinks) != 1:
        raise AmbiguousSink(f"expected one sink, found {len(g.sinks)}")
    edges = list(g.edges)
    prev = g.sinks[0]
    for v in range(g.n + 1, g.n + length + 1):
        edges.append((prev, v))
        prev = v
    return build_dag(g.n + length, edges)


def amplifier_chain_length(n: int) -> int:
    """Polynomial chain length that dominates an n-node base graph's cost scale."""
    return 300 * n**3 + 6 * n**2 + 40 * n + 100


def counterexample_dag() -> Dag:
    """The fixed 16-node graph separating round-limited from unlimited pebbling.

    A 16-node path with five skip-9 shortcuts from the start and two skip-7
    shortcuts near the end; 22 edges, single sink 16, full depth 16.
    """
    edges = [(i, i + 1) for i in range(1, 16)]
    edges += [(i, i + 9) for i in range(1, 6)]
    edges += [(i, i + 7) for i in (8, 9)]
    return build_dag(16, edges)


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


def layout_to_json(layout: ReductionLayout) -> str:
    return json.dumps(
        {
            "graph": json.loads(dag_to_json(layout.graph)),
            "instance": json.loads(b2lc_to_json(layout.instance)),
            "tau": layout.tau,
            "c": layout.c,
            "labels": layout.label_map,
        }
    )
