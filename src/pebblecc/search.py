"""Exact optimal-pebbling search over pebble configurations.

This is the brute-force oracle the rest of the package leans on: A* search
for minimum cumulative cost, a round-indexed variant for fixed-horizon
optima, and capped breadth-first sweeps for space-time and minimum-space
optima. All of them expand states through one successor generator. States
are (pebble bitmask, satisfied-sink bitmask) pairs, and every search stores
them packed into one int, mask | sat << n; every returned witness replays
the predecessor chain as literal rounds, so it can be revalidated
independently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, combinations, repeat

from .graph import Dag, TooLarge, levels, nodes_of
from .pebbling import Pebbling
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
    [lower_bound, upper_bound]; upper_bound is the incumbent (seed, dive
    cost or cheapest goal found), or None.
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
    """No legal pebbling exists within the stated limits (horizon or caps)."""


class _Stop(Exception):
    """A cap fired; each search turns it into Exhausted with its own counts."""


@dataclass(frozen=True)
class SearchLimits:
    """Caps for the exact searches.

    max_states caps the states taken off the frontier: expansions, and
    exact_pcc's lazy push-backs. upper_bound_seed must be achievable (the
    cost of some known legal pebbling); it seeds incumbent pruning without
    excluding the optimum.
    time_budget is in seconds of wall clock; 0.0 stops at the first check.
    A negative or NaN cap raises ValueError.
    """

    max_nodes: int = 24
    max_states: int = 2_000_000
    max_space: int | None = None
    upper_bound_seed: int | None = None
    time_budget: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_states", "max_space", "time_budget"):
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
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"mode must be parallel or sequential, got {mode!r}")
    if g.n > limits.max_nodes:
        raise TooLarge(
            f"graph has {g.n} nodes, above the configured cap {limits.max_nodes}"
        )
    if limits.time_budget is None:
        return limits, None
    return limits, time.monotonic() + limits.time_budget


def _spend(expanded: int, limits: SearchLimits, deadline: float | None) -> None:
    """Charge expansion number `expanded` against the state and time caps."""
    if expanded > limits.max_states:
        raise _Stop(f"state cap {limits.max_states} hit")
    if deadline is not None and time.monotonic() > deadline:
        raise _Stop("time budget hit")


def _future_need(parent_masks: tuple[int, ...], pebbles: int, need: int) -> int:
    """Backward closure of `need` through unpebbled nodes.

    Every node in the closure must occupy at least one future round, so its
    popcount lower-bounds the remaining cumulative cost. The walk visits only
    the closure's own nodes, highest id first; ids are topological, so every
    node is settled before its parents and visited once.
    """
    closure = todo = need
    unpebbled = ~pebbles
    while todo:
        v = todo.bit_length()
        add = parent_masks[v] & unpebbled
        closure |= add
        todo = (todo ^ 1 << (v - 1)) | add
    return closure


def _child_closure(parent_masks: tuple[int, ...], closure: int, t_mask: int, feed: int) -> int:
    """The closure of child t_mask, from its parent's closure and the `feed`
    that `_children` yields with it.

    No closure path runs through a placed node, so closure & ~t_mask is
    closed but for the paths through dropped pebbles that feed it (seeds);
    only their walk is new, and it stops at the nodes already known.
    """
    known = closure & ~t_mask
    seeds = feed & ~t_mask
    if not seeds:
        return known
    return known | _future_need(parent_masks, t_mask | known, seeds)


def _hold_bound(parent_masks: tuple[int, ...], mask: int, closure: int) -> int:
    """h2 = |U| + |A| + |B|, a lower bound on the remaining cumulative cost
    of a state holding `mask`, whose `_future_need` closure is U.

    A holds each v in U with a child c in U whose other parent u, also in
    U, descends from v through nodes of U: v is first placed before u, and
    is pebbled again in the round before c, so it fills two future rounds.
    (Through a pebbled node the descent proves nothing: u could be placed
    in v's first round.) B is mask & late, late the OR of the parents of
    every c in U that has a parent in U: such a c is not placeable next
    round, so each pebble feeding it fills one more round. A lies in U and
    B in mask, so the terms count distinct pebble-rounds. One pass over U
    from low ids to high keeps, for each node of U, its ancestors within U;
    ids are topological, so a node's parents are settled first.
    """
    anc: dict[int, int] = {}
    twice = late = 0
    todo = closure
    while todo:
        low = todo & -todo
        todo ^= low
        parents = parent_masks[low.bit_length()]
        inner = parents & closure
        if inner:
            late |= parents
            up = 0
            rest = inner
            while rest:
                p = rest & -rest
                rest ^= p
                up |= anc.get(p, 0)
            twice |= inner & up
            anc[low] = inner | up
    return closure.bit_count() + twice.bit_count() + (mask & late).bit_count()


def _placeable(g: Dag, mask: int) -> int:
    parent_masks = g.parent_masks
    out = 0
    for v in range(1, g.n + 1):
        bit = 1 << (v - 1)
        if not mask & bit and parent_masks[v] & ~mask == 0:
            out |= bit
    return out


def _submasks(mask: int):
    """Every subset of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _children(
    g, mask, sat, gc, sequential, space_cap, ub, deadline, closure=None, widest=False,
):
    """Successors of state (mask, sat), reached at cost gc, as (t_mask, ns, feed).

    A round places a nonempty set of placeable nodes (one in sequential mode)
    and retains a subset of the pebbles, at most space_cap in all; finished
    sinks are never re-placed or held. A pebble is dropped only in a round
    that places one of its children. If a round drops a non-sink pebble and
    places none of its children, taking that pebble out of the round before
    keeps the pebbling legal and costs one less (and a round left with no
    placement can go too), so every min-cost pebbling follows the rule,
    under any horizon, space cap or cost cap. The pebbles that feed no node
    of the new set are therefore forced: always kept, with only subsets of
    the rest enumerated.

    The cost searches pass ub and the state's closure, `_future_need` of
    its unfinished sinks. A placed node has all its parents pebbled, so no
    closure path runs through a new set: known = closure & ~new is the
    closure of (mask | new), with no walk. A new set whose floor
    gc + |new| + |known| exceeds ub is skipped, and the retained set is cut
    to the slack. feed holds the free pebbles with a child in known; those
    a child drops are the only new starts of its closure, which
    `_child_closure` completes when a caller reads it. widest=True serves
    the capped sweep, which minimises rounds, not cost: it takes no ub or
    closure, forces nothing and retains as many pebbles as fit (more
    pebbles, same sinks done, never need more rounds); its feed is 0. Sets
    are enumerated lazily, and the clock is read every 1024 sets tried so
    that one expansion cannot overrun the deadline.
    """
    avail = _placeable(g, mask) & ~sat
    sink_mask = g.sink_mask
    retainable = mask & ~sat
    rbits = [1 << (v - 1) for v in nodes_of(retainable)]
    # each retainable pebble with its children, and with those in the closure
    rkids = [(b, g.child_masks[b.bit_length()]) for b in rbits]
    ckids = [(b, kids & closure) for b, kids in rkids if kids & closure] if closure else []
    feed = 0
    tried = 0
    probe = avail
    while probe:
        if sequential:
            new = probe & -probe
            probe ^= new
        else:
            new = probe
            probe = (probe - 1) & avail
        tried += 1
        if not tried & 1023 and deadline is not None and time.monotonic() > deadline:
            raise _Stop("time budget hit")
        nsize = new.bit_count()
        rcap = space_cap - nsize
        if widest:
            free, forced, fbits = retainable, 0, rbits
        else:
            fbits = [b for b, kids in rkids if kids & new]
            free = sum(fbits)
            forced = retainable ^ free
            known = closure & ~new
            rcap = min(rcap, ub - gc - nsize - known.bit_count())
        rcap -= forced.bit_count()
        if rcap < 0:
            continue
        if ckids:
            feed = sum(b for b, kids in ckids if kids & known) & free
        ns = sat | (new & sink_mask)
        base = new | forced
        if rcap >= len(fbits):
            subs = (free,) if widest else _submasks(free)
        else:
            sizes = range(rcap, rcap + 1) if widest else range(rcap + 1)
            subs = map(sum, chain.from_iterable(map(combinations, repeat(fbits), sizes)))
        for sub in subs:
            tried += 1
            if not tried & 1023 and deadline is not None and time.monotonic() > deadline:
                raise _Stop("time budget hit")
            yield base | sub, ns, feed


def _witness(pred, goal: int, n: int, mode: str) -> Pebbling:
    """Replay the chain of packed keys (mask | sat << n, with any tag above
    bit 2n) back to the start, 0."""
    full = (1 << n) - 1
    rounds = []
    cur = goal
    while cur:
        rounds.append(nodes_of(cur & full))
        cur = pred[cur]
    rounds.reverse()
    return Pebbling(rounds=tuple(rounds), mode=mode)


def exact_pcc(
    g: Dag,
    mode: str = "parallel",
    limits: SearchLimits | None = None,
) -> SearchResult:
    """Minimum cumulative cost over all legal pebblings, with witness.

    A* on the configuration graph, keyed by (g + h, -g). Two lower bounds on
    the cost still to pay serve as h, and both are consistent: a round that
    places the set N and keeps R out of the state's pebbles pays |N| + |R|,
    and each term of the state's bound is paid by a distinct pebble of the
    round or carried into a distinct term of the child's bound.

    - h1 = |U|, U the `_future_need` closure: a node of U is placed in this
      round and pays for itself, or stays in the child's closure U'.
    - h2 = |U| + |A| + |B|, from `_hold_bound`. The U terms go as for h1.
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

    Children are pushed with h1, inherited from their parent's closure at
    little cost. In parallel mode a state gets h2 the first time it is
    popped (Lazy A*, Tolpin, Beja, Shimony, Felner and Karpas, IJCAI 2013):
    if h2 > h1 it goes back on the heap, flagged, at key g + h2, or is
    dropped if that key is above the incumbent, instead of being expanded.
    Sequential states keep h1: each has few children, so h2 costs more time
    than the expansions it saves. Every key is g plus an admissible bound,
    so the first goal popped is optimal and every popped key is a proven
    lower bound; keys no longer pop in rising order, so the bound reported
    is the largest popped.

    A greedy dive first walks from the empty state, always to the child of
    least (g + h1, -g); its cost is the incumbent that cuts children with
    g + h1 above it, and a dive that costs h2(start) is returned as proven
    without A*. Pruning (pure-discard elimination, a pebble dropped only in
    a round that places one of its children, incumbent cuts) never excludes
    an optimal plan; the test suite checks the search against a plain
    least-cost enumeration on small graphs.

    Raises:
        TooLarge: n exceeds limits.max_nodes.
        Exhausted: a state or time cap was hit first (dive steps and lazy
            push-backs count); it carries the proven interval
            [lower_bound, upper_bound].
        Infeasible: no pebbling within limits (only possible when max_space
            is set or upper_bound_seed was not actually achievable).
    """
    limits, deadline = _check_entry(g, mode, limits)
    n = g.n
    parent_masks, sink_mask = g.parent_masks, g.sink_mask
    space_cap = limits.max_space if limits.max_space is not None else n
    incumbent = limits.upper_bound_seed
    ub = n * (n + 1) // 2 if incumbent is None else min(incumbent, n * (n + 1) // 2)
    sequential = mode == "sequential"
    start = closure = _future_need(parent_masks, 0, sink_mask)
    lower = _hold_bound(parent_masks, 0, closure)
    expanded = pushed = 0

    try:
        mask = sat = gc = 0
        dive: list[int] = []
        while sat != sink_mask:
            expanded += 1
            _spend(expanded, limits, deadline)
            # h1 is consistent, so no child has f below the state's own
            # g + h1, and a goal child at that f has the largest g too
            floor = gc + closure.bit_count()
            step = None
            for t_mask, ns, feed in _children(
                g, mask, sat, gc, sequential, space_cap, ub, deadline, closure
            ):
                ng = gc + t_mask.bit_count()
                child = _child_closure(parent_masks, closure, t_mask, feed)
                f = ng + child.bit_count()
                if f <= ub and (step is None or (f, -ng) < step[:2]):
                    step = (f, -ng, t_mask, ns, ng, child)
                    if f == ng == floor:
                        break  # no later child can beat it
            if step is None:
                break  # dead end under the space cap or the bound
            *_, mask, sat, gc, closure = step
            dive.append(mask)
        else:
            if gc == lower:  # the dive meets the lower bound: proven
                rounds = tuple(map(nodes_of, dive))
                return SearchResult(gc, Pebbling(rounds, mode), True, expanded)
            ub = incumbent = gc

        # States are keyed by one int, mask | sat << n, and the bit above
        # them, `lazy`, flags a key whose h is already h2 (lazy is 0 in
        # sequential mode, which keeps h1). Heap items are ints too,
        # ((f << hbits | h) << kbits | key) << n | closure with h = f - g
        # <= 2n, so they sort as (f, -g, key) tuples would, and a popped
        # state comes with the closure its pusher already computed.
        full = (1 << n) - 1
        states = (1 << 2 * n) - 1
        lazy = 0 if sequential else 1 << 2 * n
        kbits, hbits = 2 * n + 1, (2 * n).bit_length()
        best: dict[int, int] = {0: 0}
        pred: dict[int, int] = {}
        heap: list[int] = [((lower << hbits | lower) << kbits | lazy) << n | start]
        best_get = best.get
        while heap:
            item = heappop(heap)
            closure = item & full
            key = item >> n
            state = key & states
            f, h = divmod(key >> kbits, 1 << hbits)
            gc = f - h
            if gc > best_get(state, gc):
                continue
            lower = max(lower, f)
            mask, sat = state & full, state >> n
            if sat == sink_mask:
                return SearchResult(gc, _witness(pred, state, n, mode), True, expanded)

            if lazy and not key & lazy:
                h2 = _hold_bound(parent_masks, mask, closure)
                if h2 > h:
                    pushed += 1
                    _spend(expanded + pushed, limits, deadline)
                    f = gc + h2
                    if f <= ub:
                        heappush(heap, ((f << hbits | h2) << kbits | lazy | state) << n | closure)
                    continue
            expanded += 1
            _spend(expanded + pushed, limits, deadline)
            for t_mask, ns, feed in _children(
                g, mask, sat, gc, sequential, space_cap, ub, deadline, closure
            ):
                ng = gc + t_mask.bit_count()
                nstate = t_mask | ns << n
                if ng < best_get(nstate, ng + 1):
                    child = _child_closure(parent_masks, closure, t_mask, feed)
                    f = ng + child.bit_count()
                    if f <= ub:
                        best[nstate] = ng
                        pred[nstate] = state
                        heappush(heap, ((f << hbits | f - ng) << kbits | nstate) << n | child)
    except _Stop as stop:
        raise Exhausted(
            f"{stop} at bound {lower}", expanded, lower, incumbent
        ) from None
    raise Infeasible(
        "no legal pebbling within the given limits (space cap or a seed "
        "upper bound below the true optimum)"
    )


def exact_pcc_bounded(
    g: Dag,
    t_max: int,
    mode: str = "parallel",
    limits: SearchLimits | None = None,
    cost_cap: int | None = None,
) -> SearchResult:
    """Minimum cumulative cost among pebblings with at most t_max rounds.

    Round-indexed dynamic program; layer r holds the states first reached
    at their least cost in round r. One `best` map spans all rounds: an
    arrival is skipped if its state was already reached at no greater cost,
    in this round or an earlier one, since that arrival holds the same
    pebbles with at least as many rounds left. A child whose remaining
    dependency chain cannot fit in the rounds left is stored at cost 0, so
    the cut is remembered: rounds left only fall. Partial costs above
    cost_cap are cut when one is given. Each goal found becomes the
    incumbent, so later children must beat it; a state whose floor g + h2
    (`_hold_bound`, consistent, see exact_pcc) is above it counts as
    expanded but generates no children; and a goal that costs h2(start)
    ends the search. Rounds follow the successor generator's drop rule,
    which every min-cost pebbling keeps.

    Raises:
        Infeasible: nothing completes within t_max rounds (and under
            cost_cap, if set).
        TooLarge: as exact_pcc.
        Exhausted: a state or time cap was hit first; it carries the
            proven interval [h2(start), cheapest goal found or None].
    """
    limits, deadline = _check_entry(g, mode, limits)
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    n = g.n
    parent_masks, sink_mask = g.parent_masks, g.sink_mask
    space_cap = limits.max_space if limits.max_space is not None else n
    ub = cost_cap if cost_cap is not None else n * t_max
    sequential = mode == "sequential"

    closure = _future_need(parent_masks, 0, sink_mask)
    h0 = _hold_bound(parent_masks, 0, closure)
    # States are keyed mask | sat << n, as in exact_pcc. A layer maps each
    # to gc << n | closure, the closure `_child_closure` computed when the
    # state was stored; pred tags a key with its round, state | r << 2n, so
    # that _witness replays the chain back to round 0's empty state, key 0.
    full = (1 << n) - 1
    # the longest dependency chain in the closure floors the rounds left
    fits = max(levels(parent_masks, n, closure)) <= t_max
    cur: dict[int, int] = {0: closure} if fits else {}
    best: dict[int, int] = {0: 0}
    pred: dict[int, int] = {}
    goal: tuple[int, int] | None = None  # (cost, round-tagged key)
    expanded = 0
    try:
        for r in range(1, t_max + 1):
            if not cur:
                break
            nxt: dict[int, int] = {}
            rounds_left = t_max - r
            tag, ptag = r << 2 * n, (r - 1) << 2 * n
            for state, entry in cur.items():
                mask, sat = state & full, state >> n
                if sat == sink_mask or ub < h0:
                    continue  # done, or the incumbent meets h2(start)
                expanded += 1
                _spend(expanded, limits, deadline)
                gc, closure = entry >> n, entry & full
                h1 = closure.bit_count()
                # h2 <= 2 h1 + |mask|, so it can cut only a state this close to ub
                if gc + h1 > ub or (
                    gc + 2 * h1 + mask.bit_count() > ub
                    and gc + _hold_bound(parent_masks, mask, closure) > ub
                ):
                    continue  # h2 is consistent: every child's floor is above ub too
                for t_mask, ns, feed in _children(
                    g, mask, sat, gc, sequential, space_cap, ub, deadline, closure
                ):
                    ng = gc + t_mask.bit_count()
                    nstate = t_mask | ns << n
                    if best.get(nstate, ng + 1) <= ng:
                        continue
                    # a goal's closure is empty, so it always fits
                    child = _child_closure(parent_masks, closure, t_mask, feed)
                    if max(levels(parent_masks, n, child)) > rounds_left:
                        best[nstate] = 0  # rounds left only fall
                        continue
                    # _children keeps the ub it started with, so a goal it
                    # yields after a cheaper one is no new incumbent
                    if ns == sink_mask and (goal is None or ng < goal[0]):
                        goal = (ng, nstate | tag)
                        ub = ng - 1
                    best[nstate] = ng
                    nxt[nstate] = ng << n | child
                    pred[nstate | tag] = state | ptag
            cur = nxt
    except _Stop as stop:
        raise Exhausted(
            f"{stop} in round {r}", expanded, h0, goal and goal[0]
        ) from None
    if goal is None:
        cap_note = f" under cost cap {cost_cap}" if cost_cap is not None else ""
        raise Infeasible(f"no legal pebbling within {t_max} rounds{cap_note}")
    return SearchResult(goal[0], _witness(pred, goal[1], n, mode), True, expanded)


def _min_rounds_capped(
    g: Dag,
    cap: int,
    mode: str,
    limits: SearchLimits,
    deadline: float | None,
    expanded_so_far: int,
) -> tuple[Pebbling, int] | tuple[None, int]:
    """Fewest rounds to satisfy all sinks using at most cap pebbles at once.

    Plain breadth-first search over the capped configuration graph; returns
    (witness, expanded) or (None, expanded) when the cap is infeasible.
    """
    n = g.n
    full = (1 << n) - 1
    sink_mask = g.sink_mask
    sequential = mode == "sequential"
    pred: dict[int, int] = {}  # keyed by mask | sat << n, as in exact_pcc
    frontier = [0]
    expanded = expanded_so_far
    try:
        while frontier:
            nfront = []
            for state in frontier:
                expanded += 1
                _spend(expanded, limits, deadline)
                for t_mask, ns, _ in _children(
                    g, state & full, state >> n, 0, sequential, cap, None, deadline,
                    widest=True,
                ):
                    nstate = t_mask | ns << n
                    if nstate not in pred:  # the start is never a child
                        pred[nstate] = state
                        if ns == sink_mask:
                            return _witness(pred, nstate, n, mode), expanded
                        nfront.append(nstate)
            frontier = nfront
    except _Stop as stop:
        raise Exhausted(f"{stop} at space cap {cap}", expanded) from None
    return None, expanded


def exact_min_st(
    g: Dag, mode: str = "parallel", limits: SearchLimits | None = None
) -> SearchResult:
    """Minimum space-time product t * max-space over all legal pebblings.

    For each space cap s the capped breadth-first sweep yields the fewest
    rounds t(s); the best witness over s is exact. Caps at or above the
    current best product cannot improve it (t >= 1), so the sweep stops there.
    """
    limits, deadline = _check_entry(g, mode, limits)
    expanded = 0
    best: tuple[int, Pebbling] | None = None
    for s in range(1, g.n + 1):
        if best is not None and s >= best[0]:
            break
        witness, expanded = _min_rounds_capped(g, s, mode, limits, deadline, expanded)
        if witness is None:
            continue
        st = pebbling_cost(witness).st
        if best is None or st < best[0]:
            best = (st, witness)
    assert best is not None, "cap n is always feasible"
    return SearchResult(best[0], best[1], True, expanded)


def exact_min_space(
    g: Dag, mode: str = "parallel", limits: SearchLimits | None = None
) -> SearchResult:
    """Smallest s such that some legal pebbling never holds more than s pebbles."""
    limits, deadline = _check_entry(g, mode, limits)
    expanded = 0
    for s in range(1, g.n + 1):
        witness, expanded = _min_rounds_capped(g, s, mode, limits, deadline, expanded)
        if witness is not None:
            return SearchResult(s, witness, True, expanded)
    raise AssertionError("unreachable: cap n is always feasible")
