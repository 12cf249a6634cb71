"""Instance and graph constructions, with the pebblings that certify them:
3-partition to covering equations, the covering-equation gadget graph with
its witness-driven schedule and chain-copy synchronization, vertex-cover
decorations, indegree reduction, chain appending, and the fixed 16-node
counterexample graph with its cost-27 pebbling.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from itertools import accumulate, cycle

from .b2lc import B2lcInstance, B2lcWitness, ThreePartitionInstance, _assemble_witness
from .graph import Dag, _dag_fields, _edge_offset, build_dag
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
    """The gadget graph of a covering instance, built on construction, with
    closed-form node ids.

    Ids run in one fixed order, which is topological: variable chains by
    (i, j, z), then equation chains by (i, a), then paths by (i, p), then the
    sink. var_chain(i, j, z) is node z of copy j of variable i's chain,
    eq_chain(i, a) is node a of equation i's chain, path_node(i, p) is
    position p of variable i's long path, and sink_id is the single sink.
    label_map is a view built on access: it maps the coordinate strings
    "C/i/j/z", "E/i/a", "M/i/p" and "sink" to those ids, in id order.

    Raises:
        DegenerateEquation: if some offset c_i satisfies c_i >= c.
        ValueError: if c < 1 or tau < 1.
    """

    instance: B2lcInstance
    tau: int
    c: int = field(init=False)
    graph: Dag = field(init=False)
    # eq_chain(i, a) is _eq_base[i - 1] + a; _eq_base[k] is the last id before the paths
    _eq_base: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        inst, tau = self.instance, self.tau
        offsets = [c_i for _, c_i, _ in inst.equations]
        c = sum(offsets)
        if c < 1:
            raise ValueError("the offsets sum to 0; the gadget needs c >= 1")
        for idx, c_i in enumerate(offsets):
            if c_i >= c:
                raise DegenerateEquation(idx)
        if tau < 1:
            raise ValueError(f"need tau >= 1, got {tau}")
        n = inst.n_vars
        base = tuple(accumulate((c - c_i for c_i in offsets), initial=n * tau * c))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_eq_base", base)

        # each chain or path is a run of consecutive ids, up to node 1 of the
        # next run; every equation chain and every path ends in the sink
        sink = self.path_node(n + 1, 1)
        edges: list[tuple[int, int]] = []
        for i in range(1, n + 1):
            path = range(self.path_node(i, 1), self.path_node(i + 1, 1))
            edges += zip(path, [*path[1:], sink])
            for j in range(1, tau + 1):
                chain = self._chain(i, j)
                edges += zip(chain, chain[1:])
                edges += zip(cycle(chain), path)  # position p + qc hangs off position p
        for i, (alpha, c_i, beta) in enumerate(inst.equations, start=1):
            run = range(self.eq_chain(i, 1), self.eq_chain(i + 1, 1))
            edges += zip(run, [*run[1:], sink])
            for j in range(1, tau + 1):  # node a hangs off alpha's a and beta's a + c_i
                edges += zip(self._chain(alpha, j), run)
                edges += zip(self._chain(beta, j)[c_i:], run)
        object.__setattr__(self, "graph", build_dag(sink, edges))

    def var_chain(self, i: int, j: int, z: int) -> int:
        return ((i - 1) * self.tau + j - 1) * self.c + z

    def eq_chain(self, i: int, a: int) -> int:
        return self._eq_base[i - 1] + a

    def path_node(self, i: int, p: int) -> int:
        return self._eq_base[-1] + (i - 1) * self.c * self.instance.m + p

    @property
    def sink_id(self) -> int:
        return self.graph.n

    def _chain(self, i: int, j: int) -> range:
        """The ids of copy j of variable i's chain, in chain order."""
        return range(self.var_chain(i, j, 1), self.var_chain(i, j + 1, 1))

    @property
    def label_map(self) -> dict[str, int]:
        inst, tau, c = self.instance, self.tau, self.c
        vs = range(1, inst.n_vars + 1)
        keys = [f"C/{i}/{j}/{z}" for i in vs for j in range(1, tau + 1) for z in range(1, c + 1)]
        keys += [f"E/{i}/{a}" for i, (_, c_i, _) in enumerate(inst.equations, start=1)
                 for a in range(1, c - c_i + 1)]
        keys += [f"M/{i}/{p}" for i in vs for p in range(1, c * inst.m + 1)]
        return dict(zip(keys + ["sink"], range(1, self.graph.n + 1)))

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
        InvalidWitness: if the witness has the wrong number of groups or
            rows, a row of the wrong length, or an equation that no row
            satisfies.
    """
    inst = layout.instance
    if len(w.group_of) != inst.k or len(w.values) != inst.m:
        raise InvalidWitness(
            f"witness shape ({len(w.group_of)} groups, {len(w.values)} rows) does "
            f"not match the instance ({inst.k} equations, budget {inst.m})"
        )
    if any(len(row) != inst.n_vars for row in w.values):
        raise InvalidWitness(
            f"witness rows have lengths {[len(row) for row in w.values]}, "
            f"not the instance's {inst.n_vars} variables"
        )

    group_of: list[int] = []
    for i, ((alpha, c_off, beta), claimed) in enumerate(zip(inst.equations, w.group_of)):
        fits = [y for y, row in enumerate(w.values, start=1) if row[alpha - 1] + c_off == row[beta - 1]]
        if not fits:
            raise InvalidWitness(f"equation {i} is satisfied by no assignment")
        group_of.append(claimed if claimed in fits else fits[0])

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
    c, tau, m = layout.c, layout.tau, inst.m
    group_of, values = _canonical_groups(layout, w)

    # a[y - 1][i - 1]: round at which variable i's chains place node 1 in
    # pass y, lag[i] rounds after the pass starts; pass y starts as early as
    # it can while each variable's chains start it at least c rounds after
    # they started pass y - 1
    a: list[list[int]] = []
    for row in values:
        lag = [max(row) - x for x in row]
        s = max(prev + c - d for prev, d in zip(a[-1], lag)) if a else 1
        a.append([s + d for d in lag])
    release = max(a[-1]) + c

    rounds: list[set[int]] = [set() for _ in range(release + 1)]

    def put(node: int, first: int, last: int | None = None) -> None:
        for r in range(first, (last if last is not None else first) + 1):
            rounds[r - 1].add(node)

    for y, starts in enumerate(a, start=1):
        for i, first in enumerate(starts, start=1):
            for z in range(1, c + 1):
                for j in range(1, tau + 1):
                    put(layout.var_chain(i, j, z), first + z - 1)
            for p in range(1, c):
                put(layout.path_node(i, (y - 1) * c + p), first + p)
            # the pass's last position is held until the next pass starts
            put(layout.path_node(i, y * c), first + c, a[y][i - 1] if y < m else release)
    for i, ((alpha, c_i, _beta), y) in enumerate(zip(inst.equations, group_of), start=1):
        first = a[y - 1][alpha - 1]
        for e_pos in range(1, c - c_i):
            put(layout.eq_chain(i, e_pos), first + e_pos)
        put(layout.eq_chain(i, c - c_i), first + c - c_i, release)
    put(layout.sink_id, release + 1)

    return Pebbling(rounds=tuple(rounds))


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
    tau, c = layout.tau, layout.c
    chains = range(1, layout.var_chain(layout.instance.n_vars, tau, c) + 1)
    # chain id v is node (v - 1) % c + 1 of copy j of variable i, where
    # (v - 1) // c = (i - 1) * tau + j - 1 numbers the copies in order
    load = [0] * (len(chains) // c)
    for rnd in p.rounds:
        for v in rnd:
            if v in chains:
                load[(v - 1) // c] += 1
    best = {min(range(q, q + tau), key=load.__getitem__) for q in range(0, len(load), tau)}
    new_rounds = []
    for rnd in p.rounds:
        kept = [v for v in rnd if v not in chains]
        for v in rnd:
            if v in chains and (v - 1) // c in best:
                i, z = (v - 1) // (tau * c) + 1, (v - 1) % c + 1
                kept.extend(range(layout.var_chain(i, 1, z), layout.var_chain(i + 1, 1, z), c))
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
    return B2lcInstance(n_vars=3 * n + 1, m=n, equations=tuple(eqs))


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

    The graph is built here, at once, on the closed-form ids of
    ReductionLayout; their order is already topological, so no relabelling
    happens. tau defaults to default_tau(inst).

    Raises:
        DegenerateEquation: if some offset c_i satisfies c_i >= c.
        ValueError: if c < 1 or tau < 1.
    """
    return ReductionLayout(inst, default_tau(inst) if tau is None else tau)


def vc_to_reducible(
    n: int, edges, convention: str = "nodes"
) -> tuple[Dag, frozenset[int]]:
    """Decorate an undirected graph for the removal-set correspondence.

    Each undirected edge is oriented label-forward; vertex i gets an incoming
    chain of length n-i and an outgoing chain of length i-1. Under the
    "nodes" convention a chain of length L has L nodes; under "edges" it has
    L internal edges, hence L+1 nodes. Either way one extra edge joins the
    chain to its vertex, and labels stay topological.

    Vertex i's in-chain, the vertex and its out-chain are one path of
    span = n + 2*extra nodes (extra is 1 under "edges", else 0). The paths
    follow each other in vertex order, so vertex i has the id
    (i-1)*span + n - i + extra + 1, and the edges are those paths plus one
    edge between vertex ids per undirected edge.

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
    extra = _edge_offset(convention)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    undirected: set[tuple[int, int]] = set()
    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise ValueError(f"bad undirected edge ({a}, {b})")
        undirected.add((min(a, b), max(a, b)))

    span = n + 2 * extra
    vertex_id = [(i - 1) * span + n - i + extra + 1 for i in range(1, n + 1)]
    out_edges = [(v, v + 1) for v in range(1, n * span) if v % span]
    out_edges += [(vertex_id[a - 1], vertex_id[b - 1]) for a, b in sorted(undirected)]
    return build_dag(n * span, out_edges), frozenset(vertex_id)


def reduce_indegree(g: Dag, delta: int = 2, *, with_map: bool = False):
    """Cap indegrees at delta by replacing fan-ins with balanced merge trees.

    A node with p > delta parents gets ceil((p-1)/(delta-1)) - 1 fresh
    internal nodes; its former parents feed chunks of delta, level by level,
    until at most delta feed the node itself. Reachability between original
    nodes is unchanged. Ids stay topological: each node's merge-tree nodes
    take the ids just before its own.

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

    mapping: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    nid = 0
    for v in range(1, g.n + 1):
        layer = sorted(mapping[u] for u in g.parent_sets[v])
        while len(layer) > delta:
            nxt: list[int] = []
            for q in range(0, len(layer), delta):
                chunk = layer[q : q + delta]
                if len(chunk) == 1:
                    nxt.append(chunk[0])
                else:
                    nid += 1
                    edges.extend((u, nid) for u in chunk)
                    nxt.append(nid)
            layer = nxt
        nid += 1
        mapping[v] = nid
        edges.extend((u, nid) for u in layer)
    out = build_dag(nid, edges)
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
            "graph": _dag_fields(layout.graph),
            "instance": asdict(layout.instance),
            "tau": layout.tau,
            "c": layout.c,
            "labels": layout.label_map,
        }
    )
