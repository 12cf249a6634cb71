"""Exact optimal-pebbling search over pebble configurations.

This is the brute-force oracle the rest of the package leans on: one A*
search for minimum cumulative cost, with or without a horizon on the rounds,
and capped breadth-first sweeps for space-time and minimum-space optima.
The cost searches expand states through one successor generator,
`_children`; it and the sweep build new sets with `_new_sets` and read the
placeable nodes and the parents of a node set from the `Dag` tables
(`Dag.children_of`, `Dag.parents_of`). States are (pebble bitmask,
satisfied-sink bitmask) pairs, and every search stores them packed into
one int, mask | sat << n; every returned witness replays the predecessor
chain as literal rounds, so it can be revalidated independently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, partial
from heapq import heappop, heappush
from itertools import combinations

from .graph import Dag, TooLarge, depth, levels, nodes_of
from .pebbling import MODES, Pebbling
from .pebbling import cost as pebbling_cost

__all__ = [
    "Exhausted",
    "Infeasible",
    "SearchLimits",
    "SearchResult",
    "exact_pcc",
    "exact_pcc_bounded",
    "exact_min_st",
    "exact_min_space",
]


class Exhausted(RuntimeError):
    """A search cap (states or wall clock) was hit before the proof finished.

    From exact_pcc and exact_pcc_bounded, the optimum is proven to lie in
    [lower_bound, upper_bound]; upper_bound is the cost of the cheapest
    pebbling the search built (its dive), or None. exact_min_space and
    exact_min_st carry their own proven intervals, whose upper end is
    likewise None or a witness the sweep built. expanded counts the states
    expanded, the dive's steps included.
    """

    def __init__(
        self,
        message: str,
        expanded: int,
        lower_bound: int | None = None,
        upper_bound: int | None = None,
    ) -> None:
        if lower_bound is not None:
            hi = "?" if upper_bound is None else upper_bound
            message += f"; optimum in [{lower_bound}, {hi}]"
        super().__init__(message)
        self.expanded = expanded
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound


class Infeasible(RuntimeError):
    """No legal pebbling exists within the stated bounds (horizon or caps)."""


class _Stop(Exception):
    """A cap fired; each search turns it into Exhausted with its own counts."""


_MAX_NODES = 24  # every search refuses a larger graph


@dataclass(frozen=True)
class SearchLimits:
    """The work caps every exact search reads.

    max_states caps the states expanded, the dive's steps included; it
    must be an int, and a bool or a float raises TypeError. time_budget is
    in seconds of wall clock; 0.0 stops at the first check. A negative or
    NaN cap raises ValueError. Every search also refuses a graph of more
    than 24 nodes, a built-in cap.
    """

    max_states: int = 2_000_000
    time_budget: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_states, int) or isinstance(self.max_states, bool):
            raise TypeError(f"max_states must be an int, got {self.max_states!r}")
        for name in ("max_states", "time_budget"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class SearchResult:
    """optimum is proven within the declared limits (mode, horizon, caps);
    witness is a legal pebbling achieving it."""

    optimum: int
    witness: Pebbling
    proven: bool
    expanded_states: int


def _check_entry(
    g: Dag, mode: str, limits: SearchLimits | None
) -> tuple[SearchLimits, float | None]:
    """Validate a search's arguments; return its limits (the defaults for
    None) and the monotonic instant at which a budgeted search gives up."""
    limits = limits or SearchLimits()
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(MODES)}, got {mode!r}")
    if g.n > _MAX_NODES:
        raise TooLarge(f"graph has {g.n} nodes, above the configured cap {_MAX_NODES}")
    deadline = None if limits.time_budget is None else time.monotonic() + limits.time_budget
    return limits, deadline


def _infeasible(within: str, cost_cap: int | None) -> Infeasible:
    """The error of a cost search that found no pebbling `within` its caps."""
    under = "" if cost_cap is None else f" under cost cap {cost_cap}"
    return Infeasible(f"no legal pebbling{within}{under}")


def _spend(expanded: int, limits: SearchLimits, deadline: float | None) -> None:
    """Charge expansion number `expanded` against the state and time caps."""
    if expanded > limits.max_states:
        raise _Stop(f"state cap {limits.max_states} hit")
    if deadline is not None and time.monotonic() > deadline:
        raise _Stop("time budget hit")


def _future_need(parents_of, pebbles: int, need: int) -> int:
    """Backward closure of `need` through unpebbled nodes, parents_of the
    graph's `Dag.parents_of`.

    Every node in the closure must occupy at least one future round, so its
    popcount lower-bounds the remaining cumulative cost. The walk adds one
    layer at a time: the unpebbled parents of the last layer that are not
    in the closure yet.
    """
    closure = todo = need
    unpebbled = ~pebbles
    while todo:
        todo = parents_of(todo) & unpebbled & ~closure
        closure |= todo
    return closure


def _child_closure(parents_of, closure: int, t_mask: int, feed: int) -> int:
    """The closure of child t_mask, from its parent's closure and the `feed`
    that `_children` yields with it.

    No closure path runs through a placed node, so closure & ~t_mask is
    closed but for the paths through dropped pebbles that feed it (feed &
    ~t_mask); only their walk is new, and it stops at the nodes already
    known.
    """
    known = closure & ~t_mask
    return known | _future_need(parents_of, t_mask | known, feed & ~t_mask)


def _hold_bound(parent_masks: tuple[int, ...], closure: int) -> int:
    """h2, the larger of |U| + |A| + |B| and 1 + the largest chain of U, U
    the `_future_need` closure: a lower bound on the remaining cumulative
    cost, proven in exact_pcc's docstring, and 0 when U is empty.

    A holds each v in U with a child c in U whose other parent u, also in
    U, descends from v through nodes of U: v is first placed before u, and
    is pebbled again in the round before c, so it fills two future rounds.
    (Through a pebbled node the descent proves nothing: u could be placed
    in v's first round.) B is late & ~U, late the OR of the parents of
    every c in U that has a parent in U: such a c is not placeable next
    round, so each pebble feeding it fills one more round. The chain of v
    is 0 if v has no parent in U, else |parents(v)| plus the largest chain
    of its parents in U. One pass over U from low ids to high keeps, for
    each node of U, its ancestors within U and, above them, its chain; ids
    are topological, so a node's parents are settled first, and the
    largest packed entry of a node's parents holds their largest chain.
    """
    shift = len(parent_masks)
    full = (1 << shift) - 1
    anc: dict[int, int] = {}
    twice = late = top = 0
    todo = closure
    while todo:
        low = todo & -todo
        todo ^= low
        parents = parent_masks[low.bit_length()]
        inner = parents & closure
        if inner:
            late |= parents
            up = hi = 0
            rest = inner
            while rest:
                p = rest & -rest
                rest ^= p
                e = anc.get(p, 0)
                up |= e
                if e > hi:
                    hi = e
            twice |= inner & up
            val = (hi >> shift) + parents.bit_count()
            anc[low] = (inner | up) & full | val << shift
            if val > top:
                top = val
    h = closure.bit_count() + twice.bit_count() + (late & ~closure).bit_count()
    return max(h, top + 1) if top else h


def _seq_bound(parent_masks: tuple[int, ...], closure: int) -> int:
    """h_seq = 1 + sum of w(c) over U - max of w(c) over the c in U placeable
    now, that is with no parent in U, with w(c) = max(1, |parents(c)|), U
    the `_future_need` closure, and 0 when U is empty, in one pass over U: a
    lower bound on the remaining cost of a sequential pebbling, proven in
    exact_pcc's docstring."""
    if not closure:
        return 0
    total, top = 1, 0
    todo = closure
    while todo:
        low = todo & -todo
        todo ^= low
        parents = parent_masks[low.bit_length()]
        w = parents.bit_count() or 1
        total += w
        if w > top and not parents & closure:
            top = w
    return total - top


def _new_sets(avail: int, sequential: bool, cap: int | None):
    """The sets a round may place, all nonempty subsets of avail: in
    sequential mode each node alone, lowest id first; otherwise the subsets
    of at most cap nodes (any number with cap None), in descending numeric
    order. The next such subset below new is (new - 1) & avail with its
    lowest bits cleared down to cap nodes, so no larger set is tried. cap
    must be at least 1: at cap 0 every subset clears to 0, and 0 is
    yielded for ever."""
    if sequential:
        while avail:
            low = avail & -avail
            yield low
            avail ^= low
        return
    new = avail
    while new:
        if cap is not None:
            for _ in range(new.bit_count() - cap):
                new &= new - 1
        yield new
        new = (new - 1) & avail


def _children(g, mask, sat, gc, sequential, ub, deadline, closure, idle=False):
    """Successors of state (mask, sat), reached at cost gc with closure
    `closure`, one family (base, free, ns, feed) per new set: its children
    are base | sub for the subsets sub of free, and ns is their finished
    sinks.

    A round places a nonempty set of placeable nodes (one in sequential mode)
    and retains a subset of the pebbles; finished sinks are never re-placed
    or held. The placeable nodes are the unpebbled and unfinished nodes
    whose parents are all pebbled. A pebble is dropped only in a round that
    places one of its children. If a round drops a non-sink pebble and
    places none of its children, taking that pebble out of the round before
    keeps the pebbling legal and costs one less (and a round left with no
    placement can go too), so every min-cost pebbling follows the rule,
    under any horizon or cost cap. The pebbles that feed no node of the new
    set, the parents of its nodes, are therefore forced: base is the new set
    and the forced pebbles, and free the pebbles that are parents of the
    new set.

    With idle set (A* in parallel mode) the idle-pebble rule of exact_pcc's
    docstring applies too: an idle pebble is one that is no finished sink
    and has all its parents pebbled, and a new set that places no child of
    some idle pebble is skipped, so a state with an idle pebble that has no
    placeable child yields nothing (A* never stores one: the dead-end cut).
    The rule is false in sequential mode.

    Placements are not limited to the closure U, `_future_need` of the
    unfinished sinks. On the 8-node CLOSURE_TRAP of the tests, every
    least-cost parallel pebbling places a node outside U: one pebble on 2
    stands in for those on its children 3 and 4, which the round drops and
    2 rebuilds later. Holding 3 and 4 instead, or 2's parent 1 for a later
    2, costs one more. In sequential mode the rule has no proof.

    A placed node has all its parents pebbled, so no closure path runs
    through a new set: known = closure & ~base is the closure of
    (mask | new), with no walk. feed holds the free pebbles with a child in
    known; those a child drops are the only new starts of its closure,
    which `_child_closure` completes when a caller reads it. A child's h1
    floor is its cost plus its closure, and a feed pebble counts once
    either way: kept, it is in the round; dropped, it is in the child's
    closure. So the child base | feed has the family's least (f, -g)
    (exact_pcc's docstring), and a new set is skipped when that child's
    floor gc + |base| + |feed| + |known| exceeds ub; a caller keeps a
    subset only if it holds no more free pebbles outside feed than the
    slack left. New sets are built lazily, and the clock is read every 1024
    sets so that one expansion cannot overrun the deadline; the callers
    read it as often over the subsets they walk.
    """
    parents_of, sink_mask = g.parents_of, g.sink_mask
    retainable = mask & ~sat
    ready = ~g.children_of(~mask) & (1 << g.n) - 1
    need = ready & retainable if idle else 0  # the idle pebbles
    tried = 0
    for new in _new_sets(ready & ~(mask | sat), sequential, None):
        tried += 1
        if not tried & 1023 and deadline is not None and time.monotonic() > deadline:
            raise _Stop("time budget hit")
        free = parents_of(new) & retainable
        if need & ~free:
            continue  # an idle pebble with no child placed
        base = new | (retainable ^ free)
        known = closure & ~new
        feed = free & parents_of(known)
        if gc + base.bit_count() + feed.bit_count() + known.bit_count() <= ub:
            yield base, free, sat | (new & sink_mask), feed


def _witness(links, cur: int, n: int, mode: str, ibits: int) -> Pebbling:
    """Replay links back to the start, link 0. A link is state << ibits | i,
    the state packed as mask | sat << n (any tag above bit 2n), and
    links[i] is the link before it, that of the state expanded i-th."""
    full = (1 << n) - 1
    index = (1 << ibits) - 1
    rounds = []
    while cur:
        rounds.append(nodes_of(cur >> ibits & full))
        cur = links[cur & index]
    rounds.reverse()
    return Pebbling(rounds=tuple(rounds), mode=mode)


def exact_pcc(
    g: Dag,
    mode: str = "parallel",
    limits: SearchLimits | None = None,
    cost_cap: int | None = None,
) -> SearchResult:
    """Minimum cumulative cost over all legal pebblings, with witness.

    With cost_cap set, the search returns the optimum if it is at most
    cost_cap and raises Infeasible otherwise; the cap prunes from the start.

    A* on the configuration graph, keyed by (g + h, -g). Three lower bounds
    on the cost still to pay serve as h, and all are consistent. For h1 and
    h2, a round that places the set N and keeps R out of the state's
    pebbles pays |N| + |R|, and each term of the state's bound is paid by a
    distinct pebble of the round or carried into a distinct term of the
    child's bound.

    - h1 = |U|, U the `_future_need` closure: a node of U is placed in this
      round and pays for itself, or stays in the child's closure U'.
    - h2, from `_hold_bound`, the larger of |U| + |A| + |B| and the chain
      term below. The U terms go as for h1.
      A node v of A is in U, with witnesses c and u in U (u a parent of c,
      descending from v through U). Neither c nor u is placeable, since
      each has a parent in U. If v is placed now, it is held in the child,
      below the unplaced c, whose parent u is in U': v is in B'. Otherwise
      the path from v to u keeps all its nodes in U' (each but v has an
      unpebbled parent on it, so none was placed), and v is in A'. A pebble
      p of B feeds a c in U that has a parent in U, so c is not placed now.
      If p is kept, it pays; if dropped, p is an unpebbled parent of c in
      U', so p is in U' but not in U, and no other term maps there.
      At a goal U, A and B are empty, so h2 is 0.
    - h_seq, sequential mode only, from `_seq_bound`: with w(c) =
      max(1, |parents(c)|), h_seq = 1 + sum of w(c) over U - max of w(c)
      over the c in U placeable now, and 0 when U is empty. A sequential
      round places one node, so the nodes of U have distinct first
      placement rounds r_c, and the rounds r_c - 1 are distinct too. Round
      r_c - 1 holds all of c's parents, and no round after this one is
      empty (each places a node), so it costs at least w(c). At most one of
      these rounds is the current state, which is already paid, and its c
      is placeable now. The last placement round is none of the r_c - 1,
      and adds at least 1. So h_seq never exceeds the remaining cost, and
      it is never below |U|. Consistency: a round that places x and holds
      t pays |t|, and U' holds all of U but x. So the sum loses at most
      w(x), and only if x is in U, where x was placeable: w(x) is at most
      the state's max. The child's max is at most |t|, since a placeable
      node's parents are all in t, and t holds x. If U' is empty, U is at
      most {x}, and h_seq is at most 1.

    The chain term of h2 is 1 + the heaviest path v1 -> ... -> vk inside U
    (none when U is empty), each vj after v1 weighing |parents(vj)|. Each
    such vj has a parent in U, so it is first placed at least two rounds
    from now: the rounds r(vj) - 1 are distinct and all in the future, each
    holds every parent of vj, and the last round adds 1. Only v1 can be
    placed this round. If it is, v2 either keeps a parent in U', and the
    path goes on from v2, or has all its parents held, so the round pays
    the |parents(v2)| the path loses; otherwise the path stays in U'.

    Every bound reads the closure alone: a parent of a node of U is
    pebbled or in U, so a node of U is placeable now exactly when it has no
    parent in U, and B = late & ~U. The search uses one bound, h2, or in
    sequential mode h_seq, computed once per closure, for the start and
    every child. At the start h2 never exceeds h_seq = |sources| + |E|: U
    is every node, so B is empty; a node of A is a parent of some c other
    than c's last parent in id order, so |U| + |A| <= |sources| + |E|; and
    1 + chain <= 1 + |E|, with at least one source. Every key is g plus an
    admissible bound, so the first goal popped is optimal and every popped
    key is a proven lower bound; the bound reported is the largest popped.

    The idle-pebble rule, A* in parallel mode only. A pebble p of a round
    is idle if it is no finished sink and all its parents are in the round
    (a held sink is finished, so p is no sink and has a child). Let P be a
    least-cost pebbling and p idle in its round r, not the last. If round
    r + 1 places no child of p, it drops p, which the drop rule of
    `_children` already excludes, or keeps it. Then take p out of round r:
    round r + 1 now places p, which is legal, as p's parents are all in
    round r; no node placed in round r + 1 is a child of p, so none needed
    p in round r; and what round r places or keeps reads only round r - 1.
    The result is legal, finishes the same sinks in the same rounds, and
    costs one less (if round r is left empty, it can go: round r + 1 then
    holds only sources, all placed anew). So every round of P after a state
    that is no goal places a child of each of that state's idle pebbles,
    under any horizon, as the rounds do not grow, and under any cost cap,
    as the cost falls. `_children` skips every new set that breaks the
    rule. The dead-end cut follows: a child that is no goal and holds an
    idle pebble with no placeable child has no round that keeps the rule,
    so no least-cost pebbling passes through it, and A* never stores it.
    In sequential mode the rule is false, since round r + 1 would place two
    nodes: on the edges (1, 3), (2, 3), (1, 4), the round that first holds
    both sources 1 and 2 places one of them while the other is idle in the
    round before, so it places no child of that one, and no sequential
    pebbling keeps the rule, though one costs 6.

    Why A* stays exact. Every least-cost pebbling (within the horizon and
    the cost cap) keeps the drop rule and the idle rule, or the exchanges
    above would make it cheaper, and one of fewest rounds has no empty
    round, so its states form a path in the graph whose edges are the
    rounds that keep both rules. On that subgraph each remaining cost is at
    least the full graph's, so every bound stays admissible, and each of
    its edges is an edge of the full graph, so every bound stays
    consistent. A* on the subgraph therefore pops first a goal at the
    subgraph's optimum, which is the full optimum, and every key it pops is
    at most that optimum: a proven lower bound, under any horizon or cost
    cap.

    exact_pcc_bounded runs the same search, dive included, on (state,
    round) pairs. No bound reads the round, and a horizon only removes
    pebblings, so all stay admissible; each step of a pair is a round of
    its state, so all stay consistent. A child is kept only if the longest
    chain in its closure fits the rounds left, which removes only states
    that cannot finish in time: each node of the closure is placed in a
    later round, each node of a chain after its predecessor. In sequential
    mode a round places at most one node, so the closure's nodes need
    distinct rounds, and a child is kept only if its closure has no more
    nodes than rounds left. Both cuts grow with the closure, so the family
    lemma below holds for them. The drop rule and the idle rule hold
    under any horizon. So the first goal popped is the bounded optimum, and
    every popped key is a proven lower bound on it.

    The family lemma. `_children` yields one family (base, free, ns, feed)
    per new set, whose children are base | sub for the subsets sub of free.
    known = closure & ~base is the closure of base | feed, which drops no
    feed pebble, so that child's g + h1 is F = gc + |base| + |feed| +
    |known|. Every child's closure holds known and each feed pebble it
    drops (an unpebbled node with a child in known), so its g + h1 is at
    least F + |sub - feed|: keeping a pebble outside feed adds 1 to the
    floor, and dropping a feed pebble keeps the floor at best but lowers
    g. So base | feed is the family's one child of least (g + h1, -g), and
    its closure, known, is the family's smallest.

    A greedy dive first walks from the empty state, always to the child of
    least (g + h1, -g), the first such in the generator's order. By the
    family lemma it reads only base | feed from each family: no other
    child of the family can beat it, and if its closure fails the horizon
    test, so does every larger one. So the dive reads one child per new set
    and keeps neither the idle rule nor the dead-end cut: it needs only
    some legal pebbling. Its cost is the incumbent that cuts children with
    g + h1 above it, and a dive that costs the start's bound is returned as
    proven without A*. Pruning (pure-discard elimination, a pebble dropped
    only in a round that places one of its children, the idle-pebble rule,
    the dead-end cut, incumbent cuts, and the h1 floor of `_children`,
    which counts a feed pebble whether it is kept or dropped, so a family
    whose F exceeds the incumbent is skipped whole, and A* keeps a subset
    only if its pebbles outside feed fit the slack left) never excludes an
    optimal plan. Placements are not limited to the closure: `_children`
    names a graph on which that rule loses the parallel optimum. The test
    suite checks the search against a plain least-cost enumeration on
    small graphs, checks the idle rule on exhaustive state graphs, and
    checks the search against an outside MILP solver on 12 to 20 nodes.

    Raises:
        TooLarge: n exceeds the built-in cap of 24 nodes.
        Exhausted: a state or time cap was hit first (dive steps count);
            it carries the proven interval [lower_bound, upper_bound].
        Infeasible: no pebbling costs at most cost_cap.
        ValueError: a bad mode.
    """
    return _cost_search(g, mode, limits, cost_cap, None)


def exact_pcc_bounded(
    g: Dag,
    t_max: int,
    mode: str = "parallel",
    limits: SearchLimits | None = None,
    cost_cap: int | None = None,
) -> SearchResult:
    """Minimum cumulative cost among pebblings with at most t_max rounds.

    exact_pcc's search, with each state tagged by the round that reaches
    it; exact_pcc's docstring shows why its answer is the bounded optimum.
    cost_cap bounds the search as in exact_pcc.

    Raises:
        Infeasible: nothing within t_max rounds costs at most cost_cap.
        TooLarge, ValueError: as exact_pcc, or a negative t_max.
        Exhausted: as exact_pcc.
    """
    return _cost_search(g, mode, limits, cost_cap, t_max)


def _cost_search(
    g: Dag,
    mode: str,
    limits: SearchLimits | None,
    cost_cap: int | None,
    t_max: int | None,
    idle_rule: bool = True,
) -> SearchResult:
    """exact_pcc, or with t_max set exact_pcc_bounded. idle_rule=False
    turns off the idle-pebble rule and the dead-end cut, so that the tests
    can compare the optima with and without them."""
    limits, deadline = _check_entry(g, mode, limits)
    if t_max is not None and t_max < 0:
        raise ValueError("t_max must be nonnegative")
    n, sink_mask = g.n, g.sink_mask
    parent_masks, parents_of, children_of = g.parent_masks, g.parents_of, g.children_of
    incumbent = None
    top = n * (n + 1) // 2 if t_max is None else n * t_max
    ub = top if cost_cap is None else min(cost_cap, top)
    sequential = mode == "sequential"
    idle = idle_rule and not sequential  # A* keeps to the idle-pebble rule in parallel mode
    start = closure = _future_need(parents_of, 0, sink_mask)
    bound = cache(partial(_seq_bound if sequential else _hold_bound, parent_masks))
    lower = bound(start)
    within = "" if t_max is None else f" within {t_max} rounds"
    # A child in round nr must fit the rounds its closure needs into the
    # `horizon - nr` rounds left: the longest chain of the closure, or in
    # sequential mode its size. A closure no larger than that fits at once.
    # Without a horizon nr stays 0 and every closure fits, as its size is at
    # most n. The rounds needed read the closure alone, like the bound, so
    # both are computed once per closure. A start bound above ub is a proof
    # that nothing fits the caps.
    rstep, horizon = (0, n) if t_max is None else (1, t_max)
    if sequential:
        needs = int.bit_count
    else:
        needs = cache(lambda closure: max(levels(parent_masks, n, closure)))
    if lower > ub or needs(start) > horizon:
        raise _infeasible(within, cost_cap)
    expanded = 0
    # A search node, a state in round r (0 without a horizon), is keyed by
    # mask | sat << n | r << 2n and reached by its link, key << ibits | i,
    # i the index in `trail` of its parent's expansion. Each expansion, the
    # dive's too, appends its own link to trail, so every witness is
    # replayed from trail alone; the start's link is 0.
    full, rshift = (1 << n) - 1, 2 * n
    kbits, ibits = rshift + horizon.bit_length(), (limits.max_states + 1).bit_length()
    lbits = kbits + ibits
    trail: list[int] = []

    try:
        mask = sat = gc = nr = link = 0
        while sat != sink_mask:
            expanded += 1
            _spend(expanded, limits, deadline)
            i = len(trail)
            trail.append(link)
            # h1 is consistent, so no child has f below the state's own
            # g + h1, and a goal child at that f has the largest g too
            floor = gc + closure.bit_count()
            nr += rstep
            left = horizon - nr
            step = None
            # each family's least (f, -g) child keeps its feed, and its
            # closure is known; no other child of the family can be taken
            for base, _, ns, feed in _children(g, mask, sat, gc, sequential, ub, deadline, closure):
                t_mask = base | feed
                ng = gc + t_mask.bit_count()
                child = closure & ~base
                f = ng + child.bit_count()
                if (step is None or (f, -ng) < step[:2]) and (f - ng <= left or needs(child) <= left):
                    step = (f, -ng, t_mask, ns, ng, child)
                    if f == ng == floor:
                        break  # no later child can beat it
            if step is None:
                break  # dead end under the bound or the horizon
            *_, mask, sat, gc, closure = step
            link = (mask | sat << n | nr << rshift) << ibits | i
        else:
            if gc == lower:  # the dive meets the lower bound: proven
                return SearchResult(gc, _witness(trail, link, n, mode, ibits), True, expanded)
            ub = incumbent = gc

        # A heap item is one int, ((f << hbits | h) << lbits | link) << n |
        # closure with h = f - g <= f <= ub: items sort as (f, -g, key) tuples
        # would and carry their pusher's closure.
        hbits = ub.bit_length()
        best: dict[int, int] = {0: 0}
        heap: list[int] = [(lower << hbits | lower) << lbits + n | start]
        best_get = best.get
        tried = 0  # subsets walked, for the clock
        while heap:
            item = heappop(heap)
            closure = item & full
            link = item >> n & (1 << lbits) - 1
            node = link >> ibits
            f, h = divmod(item >> lbits + n, 1 << hbits)
            gc = f - h
            if gc > best_get(node, gc):
                continue
            lower = max(lower, f)
            mask, sat = node & full, node >> n & full
            if sat == sink_mask:
                return SearchResult(gc, _witness(trail, link, n, mode, ibits), True, expanded)
            expanded += 1
            _spend(expanded, limits, deadline)
            i = len(trail) << n  # this expansion's index, in place in an item
            trail.append(link)
            nr = (node >> rshift) + rstep
            left, tag = horizon - nr, nr << rshift
            for base, free, ns, feed in _children(
                g, mask, sat, gc, sequential, ub, deadline, closure, idle=idle
            ):
                known = closure & ~base
                g0 = gc + base.bit_count()
                stag = ns << n | tag
                cut = idle and ns != sink_mask  # the dead-end cut applies
                # a kept subset holds at most slack free pebbles outside feed
                other = free ^ feed
                slack = ub - g0 - known.bit_count() - feed.bit_count()
                tight = other.bit_count() > slack
                sub = free + 1
                while sub:  # every subset of free, from free itself down to 0
                    sub = (sub - 1) & free
                    tried += 1
                    if not tried & 1023 and deadline is not None and time.monotonic() > deadline:
                        raise _Stop("time budget hit")
                    if tight and (sub & other).bit_count() > slack:
                        continue
                    t_mask = base | sub
                    ng = g0 + sub.bit_count()
                    nkey = t_mask | stag
                    if ng >= best_get(nkey, ng + 1):
                        continue
                    if cut:  # an idle pebble with no placeable child
                        r = ~children_of(~t_mask) & full
                        if r & t_mask & ~ns & ~parents_of(r & ~(t_mask | ns)):
                            continue
                    child = _child_closure(parents_of, closure, t_mask, feed) if feed & ~sub else known
                    size = child.bit_count()
                    if ng + size > ub or size > left and needs(child) > left:
                        continue  # cut by h1, which h never falls below, or by the horizon
                    h = bound(child)
                    if ng + h <= ub:
                        best[nkey] = ng
                        heappush(heap, ((ng + h << hbits | h) << kbits | nkey) << ibits + n | i | child)
    except _Stop as stop:
        raise Exhausted(
            f"{stop} at bound {lower}", expanded, lower, incumbent
        ) from None
    raise _infeasible(within, cost_cap)


def _sweep(g: Dag, mode: str, limits: SearchLimits | None):
    """The capped sweep behind exact_min_space and exact_min_st: for each
    space cap s = max(1, max in-degree)..n, one breadth-first search over
    the capped configuration graph yields (s, a fewest-rounds witness that
    never holds more than s pebbles or None, the states expanded so far).

    The sweep minimises rounds, not cost, so it forces nothing: a round
    places a new set of at most s nodes, from `_new_sets`, and retains as
    many pebbles as fit (more pebbles, same sinks done, never need more
    rounds).

    Every cap below the largest in-degree is infeasible, so none is swept:
    every node is placed, as it is a sink or an ancestor of one, and the
    round before a node is placed holds all its parents.

    A cap hit while cap c is swept raises Exhausted with the interval
    [c, ?]: every cap below c was ruled out above or swept completely, so
    for exact_min_space, which stops at the first witness, the least space
    is proven to lie there.
    """
    limits, deadline = _check_entry(g, mode, limits)
    n, children_of, sink_mask = g.n, g.children_of, g.sink_mask
    full = (1 << n) - 1
    sequential = mode == "sequential"
    # the queue holds links, as exact_pcc's trail does: state << ibits | i, i
    # the queue index of the state's parent, so i < expanded <= max_states
    ibits = (limits.max_states + 1).bit_length()
    expanded = 0
    for cap in range(max(1, g.max_indeg), n + 1):
        seen: set[int] = set()  # states, mask | sat << n, as in exact_pcc
        queue, witness = [0], None  # the queue grows while it is read
        tried = 0  # kept sets walked, for the clock
        try:
            for i, link in enumerate(queue):
                expanded += 1
                _spend(expanded, limits, deadline)
                state = link >> ibits
                mask, sat = state & full, state >> n
                rbits = [1 << (v - 1) for v in nodes_of(mask & ~sat)]
                ready = ~children_of(~mask) & full
                for new in _new_sets(ready & ~(mask | sat), sequential, cap):
                    ns = sat | (new & sink_mask)
                    for kept in combinations(rbits, min(cap - new.bit_count(), len(rbits))):
                        tried += 1
                        if not tried & 1023 and deadline is not None and time.monotonic() > deadline:
                            raise _Stop("time budget hit")
                        nstate = new | sum(kept) | ns << n
                        if nstate not in seen:  # the start is never a child
                            seen.add(nstate)
                            if ns == sink_mask:
                                witness = _witness(queue, nstate << ibits | i, n, mode, ibits)
                                break
                            queue.append(nstate << ibits | i)
                    if witness is not None:
                        break
                if witness is not None:
                    break
        except _Stop as stop:
            raise Exhausted(f"{stop} at space cap {cap}", expanded, cap) from None
        yield cap, witness, expanded


def exact_min_st(
    g: Dag, mode: str = "parallel", limits: SearchLimits | None = None
) -> SearchResult:
    """Minimum space-time product t * max-space over all legal pebblings.

    For each space cap s the capped breadth-first sweep yields the fewest
    rounds t(s); the best witness over s is exact. Let rounds be n in
    sequential mode and depth(g), counting nodes, in parallel mode. A
    pebbling whose peak space is sigma has st >= max(sigma * rounds, n):

    - every node is a sink or an ancestor of one, so it is placed at least
      once;
    - a sequential round places at most one node, so t >= n;
    - along a longest path each node is first placed in a later round than
      the one before it, so t >= depth;
    - a round holds at most sigma pebbles, so it places at most sigma
      nodes, and t >= ceil(n / sigma).

    So no cap s + 1 or above can beat a best product at or below
    max((s + 1) * rounds, n), and the sweep stops there.

    Raises:
        Exhausted: a state or time cap was hit while cap c was swept. Every
            cap below c was swept or is infeasible (see `_sweep`), so the
            optimum is proven to lie in
            [max(c * rounds, n), best], best the least product of a witness
            the sweep built (above that floor, or the sweep would have
            stopped before cap c), or in [max(c * rounds, n), ?] before any
            witness.
    """
    rounds = g.n if mode == "sequential" else depth(g)
    best: tuple[int, Pebbling] | None = None
    try:
        for s, witness, expanded in _sweep(g, mode, limits):
            if witness is not None:
                st = pebbling_cost(witness).st
                if best is None or st < best[0]:
                    best = (st, witness)
            if best is not None and max((s + 1) * rounds, g.n) >= best[0]:
                break
    except Exhausted as stop:  # its interval [c, ?] is min-space's
        floor = max(stop.lower_bound * rounds, g.n)
        message = str(stop).partition(";")[0]
        hi = None if best is None else best[0]
        raise Exhausted(message, stop.expanded, floor, hi) from None
    assert best is not None, "cap n is always feasible"
    return SearchResult(best[0], best[1], True, expanded)


def exact_min_space(
    g: Dag, mode: str = "parallel", limits: SearchLimits | None = None
) -> SearchResult:
    """Smallest s such that some legal pebbling never holds more than s pebbles.

    Raises:
        Exhausted: a state or time cap was hit while cap c was swept; no
            smaller cap fits a pebbling, so the optimum lies in [c, ?].
    """
    for s, witness, expanded in _sweep(g, mode, limits):
        if witness is not None:
            return SearchResult(s, witness, True, expanded)
    raise AssertionError("unreachable: cap n is always feasible")
