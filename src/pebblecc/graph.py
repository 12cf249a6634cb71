"""Immutable DAGs in topological label order, generators, and JSON I/O.

Nodes are labelled 1..n and every edge (u, v) has u < v, so a plain ascending
loop over labels is a topological sweep. Node bitmasks put node v at bit
v-1. All other modules build on this.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "BackwardEdge",
    "OutOfRange",
    "TooLarge",
    "Dag",
    "build_dag",
    "depth",
    "levels",
    "mask_of",
    "nodes_of",
    "chain",
    "pyramid",
    "complete",
    "layered_random",
    "generate",
    "dag_to_json",
    "dag_from_json",
]


class BackwardEdge(ValueError):
    """Raised for an edge (u, v) with u >= v, which the label order forbids."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge ({u}, {v}) does not go label-forward")
        self.u = u
        self.v = v


class OutOfRange(ValueError):
    """Raised for a node id outside [1, n]."""

    def __init__(self, node: int, n: int) -> None:
        super().__init__(f"node {node} is outside [1, {n}]")
        self.node = node
        self.n = n


class TooLarge(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its configured cap."""


@dataclass(frozen=True)
class Dag:
    """A directed acyclic graph whose 1-based labels are a topological order.

    Instances are immutable values; every transform returns a new Dag. The
    edge tuple is sorted lexicographically and duplicate-free.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def parent_sets(self) -> tuple[frozenset[int], ...]:
        """parent_sets[v] is parents(v); index 0 is an unused placeholder."""
        ps: list[set[int]] = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            ps[v].add(u)
        return tuple(frozenset(s) for s in ps)

    @cached_property
    def child_sets(self) -> tuple[frozenset[int], ...]:
        cs: list[set[int]] = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            cs[u].add(v)
        return tuple(frozenset(s) for s in cs)

    @cached_property
    def parent_masks(self) -> tuple[int, ...]:
        """parent_masks[v] has bit u-1 set for each parent u; index 0 is 0."""
        pm = [0] * (self.n + 1)
        for u, v in self.edges:
            pm[v] |= 1 << (u - 1)
        return tuple(pm)

    @cached_property
    def child_masks(self) -> tuple[int, ...]:
        """child_masks[u] has bit v-1 set for each child v; index 0 is 0."""
        cm = [0] * (self.n + 1)
        for u, v in self.edges:
            cm[u] |= 1 << (v - 1)
        return tuple(cm)

    @cached_property
    def sink_mask(self) -> int:
        """The sinks as a bitmask."""
        return mask_of(self.sinks)

    def parents(self, v: int) -> frozenset[int]:
        if not 1 <= v <= self.n:
            raise OutOfRange(v, self.n)
        return self.parent_sets[v]

    def indeg(self, v: int) -> int:
        return len(self.parents(v))

    @cached_property
    def max_indeg(self) -> int:
        return max((len(s) for s in self.parent_sets[1:]), default=0)

    @cached_property
    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if not self.child_sets[v])

    @cached_property
    def sources(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if not self.parent_sets[v])


def mask_of(nodes) -> int:
    """The bitmask of node ids `nodes`: bit v-1 for node v."""
    return sum(1 << (v - 1) for v in nodes)


def nodes_of(mask: int) -> tuple[int, ...]:
    """The node ids in `mask`, ascending; the inverse of mask_of."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def build_dag(n: int, edges) -> Dag:
    """Validate and build a Dag on nodes 1..n.

    Args:
        n: node count, at least 1.
        edges: iterable of (u, v) pairs; each must satisfy 1 <= u < v <= n.
            Duplicates are dropped.

    Raises:
        BackwardEdge: if some edge has u >= v.
        OutOfRange: if some endpoint is outside [1, n].
        ValueError: if n < 1.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        for x in (u, v):
            if not 1 <= x <= n:
                raise OutOfRange(x, n)
        if u >= v:
            raise BackwardEdge(u, v)
        seen.add((u, v))
    return Dag(n=n, edges=tuple(sorted(seen)))


def levels(parent_masks, n: int, keep: int) -> list[int]:
    """Longest-path DP over the label order, inside the node mask keep.

    lvl[v] is the node count of the longest path inside keep that ends at v,
    and 0 for v outside keep; lvl[0] is an unused 0.
    """
    lvl = [0] * (n + 1)
    for v in range(1, n + 1):
        if keep >> (v - 1) & 1:
            pm = parent_masks[v] & keep
            best = 0
            while pm:
                low = pm & -pm
                u = low.bit_length()
                if lvl[u] > best:
                    best = lvl[u]
                pm ^= low
            lvl[v] = best + 1
    return lvl


def depth(g: Dag, convention: str = "nodes", excluding=frozenset()) -> int:
    """Length of the longest directed path, by DP over the label order.

    Args:
        g: the graph.
        convention: "nodes" counts nodes on the path, "edges" counts edges.
            A single node has depth 1 under "nodes" and 0 under "edges".
        excluding: node ids treated as deleted (used by the reducibility
            module to measure induced subgraphs without rebuilding). Ids
            outside [1, n] are ignored.

    Returns:
        The longest-path length; 0 if every node is excluded.
    """
    if convention not in ("nodes", "edges"):
        raise ValueError(f"unknown depth convention {convention!r}")
    keep = (1 << g.n) - 1
    for v in excluding:
        if 1 <= v <= g.n:
            keep &= ~(1 << (v - 1))
    best = max(levels(g.parent_masks, g.n, keep))
    if convention == "edges":
        return max(best - 1, 0)
    return best


# ---------------------------------------------------------------------------
# generators


def chain(n: int) -> Dag:
    """The path 1 -> 2 -> ... -> n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return build_dag(n, [(i, i + 1) for i in range(1, n)])


def pyramid(k: int) -> Dag:
    """A k-row pyramid: k sources on the bottom row narrowing to one apex.

    Rows are numbered bottom-up; row r (0-based) holds k - r nodes and each
    node above the bottom has the two nodes below it as parents. Total
    k(k+1)/2 nodes.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    edges = []
    row_start = 1
    for r in range(k - 1):
        width = k - r
        nxt = row_start + width
        for pos in range(width - 1):
            edges.append((row_start + pos, nxt + pos))
            edges.append((row_start + pos + 1, nxt + pos))
        row_start = nxt
    return build_dag(k * (k + 1) // 2, edges)


def complete(n: int) -> Dag:
    """All forward edges (u, v), u < v."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return build_dag(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def layered_random(n: int, seed: int) -> Dag:
    """Chain 1..n plus one random extra parent per node, deterministic in seed.

    Node i > 1 always has parent i-1; the extra parent is drawn uniformly from
    [1, i-1] and may coincide with i-1 (then no extra edge results). This is
    the usual single-pass layered construction.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    edges = []
    for i in range(2, n + 1):
        edges.append((i - 1, i))
        edges.append((rng.randint(1, i - 1), i))
    return build_dag(n, edges)


_GENERATORS = {
    "chain": chain,
    "pyramid": pyramid,
    "complete": complete,
    "layered_random": layered_random,
}


def generate(kind: str, *args, **kwargs) -> Dag:
    """Dispatch to a named generator: chain, pyramid, complete, layered_random."""
    try:
        fn = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown generator {kind!r}") from None
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# I/O


def dag_to_json(g: Dag) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]})


def dag_from_json(text: str) -> Dag:
    data = json.loads(text)
    try:
        n, edges = int(data["n"]), [(int(u), int(v)) for u, v in data["edges"]]
    except TypeError as exc:
        raise ValueError(f"graph JSON has the wrong shape: {exc}") from exc
    return build_dag(n, edges)

