"""Depth reduction: find small node sets whose removal caps the longest path.

Exact decisions run a hitting-set branch and bound over violating paths: at
each search node one greedy walk of disjoint violating paths gives both the
path to branch on and the lower bound. The last removal (budget 1) is
decided without branching: one forward and one backward longest-path pass
give every single cut, a node whose removal alone caps the depth. Each
single cut lies on every violating path, so it lies in the branching
window, and the lowest one not banned is the leaf the branching would have
found first. The greedy heuristic strips nodes that lie on the most
maximum-length paths. The length convention (nodes vs edges) is always an
explicit argument here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Dag, OutOfRange, TooLarge, _edge_offset, depth, levels, mask_of, nodes_of

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


def _tails(g: Dag, keep: int, f: list[int], allowed: int) -> tuple[list[int], int]:
    """b and crossed, for f = levels over keep: b[v] is the node count of
    the longest path inside keep that starts at v (0 outside keep), and
    crossed is the mask of nodes strictly between x and y for the edges
    (x, y) inside keep with f[x] + b[y] > allowed.

    One backward pass over the label order. A node y is final once every
    larger id is done, and it then pushes b[y] into its parents through
    g.parent_masks; until x is final, b[x] holds the best tail among its
    children.
    """
    b = [0] * (g.n + 1)
    crossed = 0
    for y in range(g.n, 0, -1):
        if keep >> (y - 1) & 1:
            b[y] = tail = b[y] + 1
            pm = g.parent_masks[y] & keep
            while pm:
                low = pm & -pm
                x = low.bit_length()
                if b[x] < tail:
                    b[x] = tail
                if f[x] + tail > allowed:
                    crossed |= (1 << (y - 1)) - (low << 1)
                pm ^= low
    return b, crossed


def _single_cuts(g: Dag, keep: int, allowed: int) -> int | None:
    """The mask of single cuts of keep, or None if keep holds no path of
    more than allowed nodes.

    A single cut is a node w of keep whose removal alone leaves no such
    path. Ids are topological, so a path that avoids w lies wholly below
    w, wholly above it, or crosses it by one edge (x, y) with x < w < y.
    Hence w is a single cut iff no x < w has f[x] > allowed, no y > w has
    b[y] > allowed, and w is not in crossed (see _tails).
    """
    f = levels(g.parent_masks, g.n, keep)
    if max(f) <= allowed:
        return None
    b, crossed = _tails(g, keep, f, allowed)
    lo = next(x for x, fx in enumerate(f) if fx > allowed)
    hi = max(y for y, by in enumerate(b) if by > allowed)
    return keep & ~crossed & ((1 << lo) - 1) & ~((1 << (hi - 1)) - 1)


# The search nodes one exact decision may visit before it raises TooLarge.
# A visit is one call of search. A node with budget 1 decides its last
# removal from _single_cuts in two O(n + |E|) passes, with no budget-0
# leaves below it, so only the size-0 root visits with budget 0; a node with
# budget k >= 2 makes at most k + 1 such passes in _violations.
_MAX_VISITS = 500_000


def is_reducible(g: Dag, e: int, d: int, convention: str) -> ReducibilityResult:
    """Decide whether removing at most e nodes brings the depth down to d.

    Witness sets are searched in increasing size, so a reducible verdict
    carries a smallest witness. Raises TooLarge past _MAX_VISITS search nodes.
    """
    if e < 0 or d < 0:
        raise ValueError("e and d must be nonnegative")
    allowed = d + _edge_offset(convention)
    full = (1 << g.n) - 1
    visits = iter(range(_MAX_VISITS))

    def search(keep: int, banned: int, budget: int) -> int | None:
        """A mask of kept nodes, at most budget fewer than keep, that caps
        the depth, or None."""
        if next(visits, None) is None:
            raise TooLarge("reducibility search exceeded its node-visit cap")
        if budget == 1:  # the last removal: the lowest single cut not banned
            cuts = _single_cuts(g, keep, allowed)
            if cuts is None:
                return keep
            cuts &= ~banned
            return keep & ~(cuts & -cuts) if cuts else None
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
    allowed = d + _edge_offset(convention)
    keep = (1 << g.n) - 1
    while True:
        # f[v] is the forward reach of v inside keep, 0 for a removed node;
        # removed nodes keep nf and b at 0, so they add nothing to the sums
        # below and are never critical.
        f = levels(g.parent_masks, g.n, keep)
        span = max(f)
        if span <= allowed:
            return frozenset(nodes_of(((1 << g.n) - 1) & ~keep))
        nf = [0] * (g.n + 1)
        for v in range(1, g.n + 1):
            if f[v]:
                nf[v] = sum(nf[u] for u in g.parent_sets[v] if f[u] == f[v] - 1) or 1
        # No path passes span nodes, so with span as the bound no edge is
        # crossed and _tails gives b alone.
        b, _ = _tails(g, keep, f, span)
        # nb[v] counts the longest paths from a critical v (f[v] + b[v] - 1
        # == span). Its critical children w are those with f[w] == f[v] + 1,
        # so each critical node pushes its count to such parents; descending
        # ids with >= leave ties at the smallest id.
        nb = [0] * (g.n + 1)
        busiest, key = 0, (0, 0)
        for v in range(g.n, 0, -1):
            if f[v] + b[v] - 1 == span:
                nb[v] = nb[v] or 1
                cand = (nf[v] * nb[v], min(f[v], b[v]))
                if cand >= key:
                    busiest, key = v, cand
                for u in g.parent_sets[v]:
                    if f[u] == f[v] - 1:
                        nb[u] += nb[v]
        keep &= ~(1 << (busiest - 1))


def verify_set(g: Dag, s, d: int, convention: str) -> bool:
    """Recompute depth(g - s) and compare against d."""
    s = frozenset(s)
    for v in s:
        if not 1 <= v <= g.n:
            raise OutOfRange(v, g.n)
    return depth(g, convention, excluding=s) <= d
