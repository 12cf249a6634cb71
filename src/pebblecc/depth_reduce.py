"""Depth reduction: find small node sets whose removal caps the longest path.

Exact decisions run a hitting-set branch and bound over violating paths: at
each search node one greedy walk of disjoint violating paths gives both the
path to branch on and the lower bound. The greedy heuristic strips nodes
that lie on the most maximum-length paths. The length convention (nodes vs
edges) is always an explicit argument here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CONVENTIONS, Dag, OutOfRange, TooLarge, depth, levels, mask_of, nodes_of

__all__ = [
    "ReducibilityResult",
    "is_reducible",
    "min_reducing_set",
    "greedy_reduce",
    "verify_set",
]


@dataclass(frozen=True)
class ReducibilityResult:
    """Outcome of a reducibility decision.

    When reducible, witness_set is a smallest removal set found and
    residual_depth is depth(g - witness_set) recomputed from scratch. When
    not reducible, witness_set is None and residual_depth is the depth of
    the untouched graph.
    """

    reducible: bool
    witness_set: frozenset[int] | None
    residual_depth: int
    convention: str


def _allowed_nodes(d: int, convention: str) -> int:
    """Max node count of a permitted path: depth <= d translated to nodes."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown depth convention {convention!r}")
    return d + (convention == "edges")


def _violations(g: Dag, keep: int, allowed: int, limit: int) -> tuple[list[list[int]], bool]:
    """Up to limit vertex-disjoint paths inside keep of more than allowed
    nodes, and whether the nodes they leave still hold such a path.

    Each path is a longest path of what the earlier ones leave. It ends at
    the smallest id of greatest level and steps back through the smallest-id
    parent one level down, so the walk is deterministic. Every removal set
    must hit each path, so a set of limit nodes exists only if the flag is
    False.
    """
    paths = []
    while True:
        lvl = levels(g.parent_masks, g.n, keep)
        top = max(lvl)
        if top <= allowed or len(paths) == limit:
            return paths, top > allowed
        v = lvl.index(top)
        path = [v]
        for want in range(top - 1, 0, -1):
            pm = g.parent_masks[v] & keep
            v = (pm & -pm).bit_length()
            while lvl[v] != want:
                pm &= pm - 1
                v = (pm & -pm).bit_length()
            path.append(v)
        paths.append(path[::-1])
        keep &= ~mask_of(path)


# The search nodes one exact decision may visit before it raises TooLarge.
_MAX_VISITS = 500_000


def is_reducible(g: Dag, e: int, d: int, convention: str) -> ReducibilityResult:
    """Decide whether removing at most e nodes brings the depth down to d.

    Witness sets are searched in increasing size, so a reducible verdict
    carries a smallest witness. Raises TooLarge past _MAX_VISITS search nodes.
    """
    if e < 0 or d < 0:
        raise ValueError("e and d must be nonnegative")
    allowed = _allowed_nodes(d, convention)
    full = (1 << g.n) - 1
    visits = iter(range(_MAX_VISITS))

    def search(keep: int, banned: int, budget: int) -> int | None:
        """A mask of kept nodes, at most budget fewer than keep, that caps
        the depth, or None."""
        if next(visits, None) is None:
            raise TooLarge("reducibility search exceeded its node-visit cap")
        paths, more = _violations(g, keep, allowed, budget)
        if more:  # budget + 1 disjoint violations
            return None
        if not paths:
            return keep
        # The first path's window is itself a violating path, so any valid
        # set hits it. Nodes banned by an earlier sibling branch cannot be
        # chosen again; if the whole window is banned this subtree is
        # infeasible.
        for v in paths[0][: allowed + 1]:
            bit = 1 << (v - 1)
            if banned & bit:
                continue
            found = search(keep & ~bit, banned, budget - 1)
            if found is not None:
                return found
            banned |= bit
        return None

    for size in range(min(e, g.n) + 1):
        found = search(full, 0, size)
        if found is not None:
            witness = frozenset(nodes_of(full & ~found))
            return ReducibilityResult(
                reducible=True,
                witness_set=witness,
                residual_depth=depth(g, convention, excluding=witness),
                convention=convention,
            )
    return ReducibilityResult(
        reducible=False,
        witness_set=None,
        residual_depth=depth(g, convention),
        convention=convention,
    )


def min_reducing_set(g: Dag, d: int, convention: str) -> tuple[int, frozenset[int]]:
    """Smallest e with a depth-d reducing set, plus one such set.

    Always terminates: removing every node leaves depth 0.
    """
    witness = is_reducible(g, g.n, d, convention).witness_set
    return len(witness), witness


def greedy_reduce(g: Dag, d: int, convention: str) -> frozenset[int]:
    """Heuristic reducing set: peel nodes carrying the most critical paths.

    Each round counts, for every node on some maximum-length path, the number
    of such paths through it (forward count times backward count) and removes
    the busiest node until the depth target holds. Ties go to the most
    central node (largest min of forward and backward reach, so a lone
    critical path is cut near its middle rather than nibbled from one end),
    then to the smallest id.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    allowed = _allowed_nodes(d, convention)
    keep = (1 << g.n) - 1
    while True:
        # f[v] is the forward reach of v inside keep, 0 for a removed node;
        # removed nodes keep nf, b and nb at 0, so the sums below skip them.
        f = levels(g.parent_masks, g.n, keep)
        span = max(f)
        if span <= allowed:
            return frozenset(nodes_of(((1 << g.n) - 1) & ~keep))
        nf = [0] * (g.n + 1)
        b = [0] * (g.n + 1)
        nb = [0] * (g.n + 1)
        for v in range(1, g.n + 1):
            if f[v]:
                nf[v] = sum(nf[u] for u in g.parent_sets[v] if f[u] == f[v] - 1) or 1
        for v in range(g.n, 0, -1):
            if f[v]:
                b[v] = 1 + max((b[w] for w in g.child_sets[v]), default=0)
                nb[v] = sum(nb[w] for w in g.child_sets[v] if b[w] == b[v] - 1) or 1
        busiest, key = 0, (0, 0)
        for v in range(1, g.n + 1):
            if f[v] and f[v] + b[v] - 1 == span:
                cand = (nf[v] * nb[v], min(f[v], b[v]))
                if cand > key:
                    busiest, key = v, cand
        keep &= ~(1 << (busiest - 1))


def verify_set(g: Dag, s, d: int, convention: str) -> bool:
    """Recompute depth(g - s) and compare against d."""
    s = frozenset(s)
    for v in s:
        if not 1 <= v <= g.n:
            raise OutOfRange(v, g.n)
    return depth(g, convention, excluding=s) <= d
