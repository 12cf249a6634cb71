import inspect
import random
import time
from heapq import heappop, heappush

import pytest

from pebblecc import search
from pebblecc.graph import (
    TooLarge,
    build_dag,
    chain,
    complete,
    depth,
    layered_random,
    mask_of,
    pyramid,
)
from pebblecc.pebbling import Pebbling, cost, validate
from pebblecc.reductions import counterexample_dag
from pebblecc.search import (
    Exhausted,
    Infeasible,
    SearchLimits,
    SearchResult,
    exact_min_space,
    exact_min_st,
    exact_pcc,
    exact_pcc_bounded,
)

BIG = SearchLimits(max_states=50_000_000)


def assert_sound(g, result, mode="parallel"):
    assert validate(g, result.witness).legal
    assert result.witness.mode == mode
    assert cost(result.witness).cc == result.optimum
    assert result.proven


def test_pcc_small_values():
    assert exact_pcc(chain(5)).optimum == 5
    assert exact_pcc(chain(5), mode="sequential").optimum == 5
    assert exact_pcc(pyramid(2)).optimum == 3
    assert exact_pcc(pyramid(2), mode="sequential").optimum == 4
    assert exact_pcc(pyramid(3)).optimum == 6
    assert exact_pcc(complete(4)).optimum == 7


def test_dive_at_the_lower_bound_is_proven():
    """A dive that costs h(start) is optimal, so A* never starts."""
    for g, opt, expanded in ((build_dag(12, []), 12, 1), (chain(6), 6, 6), (pyramid(3), 6, 3)):
        r = exact_pcc(g)
        assert (r.optimum, r.expanded_states) == (opt, expanded)
        assert_sound(g, r)


def test_dive_stops_at_a_goal_on_the_state_floor(monkeypatch):
    """With a consistent h no child beats a goal at f = g + h(state), so the
    dive takes it without scanning the rest: on 14 isolated nodes the first
    new set places all of them, and the other 16,382 are never evaluated."""
    real = search._children
    yields = 0

    def counted(*args, **kwargs):
        nonlocal yields
        for child in real(*args, **kwargs):
            yields += 1
            yield child

    monkeypatch.setattr(search, "_children", counted)
    r = exact_pcc(build_dag(14, []))
    assert (r.optimum, r.expanded_states) == (14, 1)
    assert yields <= 1


def test_pcc_witnesses_sound():
    for g in (chain(4), pyramid(3), complete(4), layered_random(8, seed=2)):
        for mode in ("parallel", "sequential"):
            assert_sound(g, exact_pcc(g, mode=mode), mode)


def _bit_tables(g):
    """The sink mask and each node's parent mask (index v - 1), built from
    g.sinks and g.parent_sets only."""
    sinks = sum(1 << (s - 1) for s in g.sinks)
    parents = [sum(1 << (u - 1) for u in g.parent_sets[v]) for v in range(1, g.n + 1)]
    return sinks, parents


def _pool(parents, held):
    """The nodes a round may hold after `held`: those pebbles plus every
    node whose parents are all held."""
    pool = held
    for v, ps in enumerate(parents):
        if ps & held == ps:
            pool |= 1 << v
    return pool


def _least_cost_reference(g, mode="parallel", max_space=None):
    """Least-cost pebbling by plain Dijkstra over (pebbles, sinks done) states.

    Every legal round within max_space is a transition: any nonempty subset
    of the held pebbles plus the nodes whose parents are all held, at most
    one new node in sequential mode. No heuristic, dive, drop rule,
    dominance or packed keys: it shares nothing with exact_pcc but the
    graph's parent sets. The witness replays the chain of rounds; no
    reachable goal raises Infeasible.
    """
    space = g.n if max_space is None else max_space
    sinks, parents = _bit_tables(g)
    start = (0, 0)
    dist = {start: 0}
    pred = {}
    heap = [(0, start)]
    while heap:
        c, state = heappop(heap)
        if c > dist[state]:
            continue
        held, done = state
        if done == sinks:
            rounds = []
            while state != start:
                rounds.append(tuple(v + 1 for v in range(g.n) if state[0] >> v & 1))
                state = pred[state]
            return SearchResult(c, Pebbling(tuple(reversed(rounds)), mode), True, len(dist))
        pool = _pool(parents, held)
        peb = pool
        while peb:  # every nonempty subset of pool
            if peb.bit_count() <= space and not (
                mode == "sequential" and (peb & ~held).bit_count() > 1
            ):
                nxt = (peb, done | (peb & sinks))
                cost_r = c + peb.bit_count()
                if cost_r < dist.get(nxt, cost_r + 1):
                    dist[nxt] = cost_r
                    pred[nxt] = state
                    heappush(heap, (cost_r, nxt))
            peb = (peb - 1) & pool
    raise Infeasible("no goal reachable")


def test_pruned_search_matches_complete_enumeration():
    """The pruning rules (pure-discard elimination, the drop rule, incumbent
    cuts) are exactness-preserving: checked against the test-side enumerator."""
    graphs = [
        chain(4),
        pyramid(2),
        pyramid(3),
        complete(4),
        build_dag(4, [(1, 2), (1, 3)]),  # three sinks
        layered_random(6, seed=0),
        layered_random(6, seed=3),
        layered_random(7, seed=11),
    ]
    for g in graphs:
        for mode in ("parallel", "sequential"):
            fast = exact_pcc(g, mode=mode)
            slow = _least_cost_reference(g, mode)
            assert fast.optimum == slow.optimum, (g, mode)
            assert_sound(g, fast, mode)
            assert_sound(g, slow, mode)


def _random_corpus(count, seed=0):
    rng = random.Random(seed)
    return [layered_random(rng.randint(3, 9), rng.randrange(1 << 30)) for _ in range(count)]


def test_astar_matches_complete_enumeration_on_random_graphs():
    """A* with the greedy-dive incumbent against the plain least-cost search,
    which uses neither the heuristic nor the dive; a cost cap at the
    optimum returns it, and one below raises Infeasible."""
    for g in _random_corpus(200):
        for mode in ("parallel", "sequential"):
            fast = exact_pcc(g, mode=mode)
            slow = _least_cost_reference(g, mode)
            assert fast.optimum == slow.optimum, (g.edges, mode)
            assert_sound(g, fast, mode)
            capped = exact_pcc(g, mode, cost_cap=slow.optimum)
            assert capped.optimum == slow.optimum, (g.edges, mode)
            assert_sound(g, capped, mode)
            with pytest.raises(Infeasible):
                exact_pcc(g, mode, cost_cap=slow.optimum - 1)


def test_bounded_at_the_optimum_matches_astar():
    """With t_max = optimum the horizon cannot lose the optimal pebbling:
    each useful round costs at least 1."""
    for g in _random_corpus(40):
        opt = exact_pcc(g).optimum
        r = exact_pcc_bounded(g, t_max=opt)
        assert r.optimum == opt, g.edges
        assert_sound(g, r)


def test_a_horizon_that_cannot_bind_changes_nothing():
    """An optimal pebbling has no empty round and costs at most n(n+1)/2, so
    with that many rounds the bounded search returns exact_pcc's optimum."""
    for g in _random_corpus(200, seed=3):
        for mode in ("parallel", "sequential"):
            r = exact_pcc_bounded(g, g.n * (g.n + 1) // 2, mode)
            assert r.optimum == exact_pcc(g, mode).optimum, (g.edges, mode)
            assert_sound(g, r, mode)


def _layered_reference(g, horizon, mode, max_space):
    """Least goal cost by each round count, from a plain layered enumeration.

    Layer r maps each (pebbles, sinks done) state reached in exactly r
    rounds to its least cost. Every legal round within max_space is tried:
    any subset of the held pebbles plus the nodes whose parents are all
    held, at most one new node in sequential mode. No closure cut, no rounds
    cut, no dominance. Entry r of the result is the cheapest pebbling with
    at most r rounds, or None.
    """
    space = g.n if max_space is None else max_space
    sinks, parents = _bit_tables(g)
    layer = {(0, 0): 0}
    by_rounds = [None]
    for _ in range(horizon):
        nxt = {}
        for (held, done), c in layer.items():
            pool = _pool(parents, held)
            peb = pool
            while True:  # every subset of pool, the empty round included
                cost_r = c + peb.bit_count()
                if peb.bit_count() <= space and not (
                    mode == "sequential" and (peb & ~held).bit_count() > 1
                ):
                    state = (peb, done | (peb & sinks))
                    if cost_r < nxt.get(state, cost_r + 1):
                        nxt[state] = cost_r
                if not peb:
                    break
                peb = (peb - 1) & pool
        layer = nxt
        goals = [c for (_, done), c in layer.items() if done == sinks]
        costs = [x for x in (by_rounds[-1], min(goals, default=None)) if x is not None]
        by_rounds.append(min(costs, default=None))
    return by_rounds


def _forward_corpus(count, seed):
    rng = random.Random(seed)
    graphs = [pyramid(2), pyramid(3), chain(4)]
    for _ in range(count):
        n = rng.randint(4, 7)
        p = rng.choice((0.25, 0.4, 0.6))
        edges = [(u, v) for v in range(2, n + 1) for u in range(1, v) if rng.random() < p]
        graphs.append(build_dag(n, edges))
    return graphs


def test_bounded_matches_layered_enumeration():
    """The bounded search's cuts (closure floor, rounds needed, drop rule,
    dive incumbent) against an enumerator that shares none of them, over
    horizons, cost caps and modes."""
    cases = 0
    for g in _forward_corpus(60, seed=5):
        for mode in ("parallel", "sequential"):
            ref = _layered_reference(g, g.n + 2, mode, None)
            opt = ref[-1]
            caps = (None,) if opt is None else (None, opt, opt + 2)
            for t_max in range(depth(g, "nodes"), g.n + 3):
                for cap in caps:
                    want = ref[t_max]
                    if want is not None and cap is not None and want > cap:
                        want = None
                    try:
                        r = exact_pcc_bounded(g, t_max, mode, cost_cap=cap)
                    except Infeasible:
                        r = None
                    cases += 1
                    key = (g.n, g.edges, mode, t_max, cap)
                    assert (None if r is None else r.optimum) == want, key
                    if r is not None:
                        assert_sound(g, r, mode)
                        assert r.witness.t <= t_max, key
    assert cases == 1890


def test_every_capped_interval_holds_the_optimum():
    """Both cost searches, stopped by every state cap from 0 up to the first
    that lets them prove, report an interval that holds the optimum of the
    plain enumerators; the horizon is one round above the depth in parallel
    mode, and n, the fewest rounds a sequential pebbling can take."""
    intervals = closed = 0
    for g in _random_corpus(30, seed=2):
        for mode in ("parallel", "sequential"):
            t_max = g.n if mode == "sequential" else depth(g, "nodes") + 1
            searches = (
                (lambda limits: exact_pcc(g, mode, limits), _least_cost_reference(g, mode)),
                (
                    lambda limits: exact_pcc_bounded(g, t_max, mode, limits),
                    _layered_reference(g, t_max, mode, None)[t_max],
                ),
            )
            for run, ref in searches:
                opt = getattr(ref, "optimum", ref)
                for cap in range(10_000):
                    try:
                        r = run(SearchLimits(max_states=cap))
                    except Exhausted as exc:
                        key = (g.edges, mode, cap)
                        assert exc.lower_bound <= opt, key
                        assert exc.upper_bound is None or opt <= exc.upper_bound, key
                        intervals += 1
                        closed += exc.upper_bound is not None
                        continue
                    assert r.optimum == opt, (g.edges, mode)
                    break
    assert (intervals, closed) == (1321, 593)


def test_sequential_horizon_cuts_by_closure_size():
    """A sequential round places one node, so a state needs as many rounds
    as its closure has nodes. On the 22-node chain whose nodes all feed
    node 23, 23 rounds place each node once, in label order, and round i
    < 23 holds 1..i, as node 23 needs all of them: the optimum is 253 + 1.
    Reading only the longest chain, the search made 513,372 expansions."""
    g = build_dag(23, [(i, i + 1) for i in range(1, 22)] + [(i, 23) for i in range(1, 23)])
    r = exact_pcc_bounded(g, 23, "sequential")
    assert r.optimum == 254
    assert r.witness.t == 23
    assert r.expanded_states <= 100
    assert_sound(g, r, "sequential")


def _unfed_drops(g, pebbling):
    """Every (round index, node) where a non-sink pebble of the previous
    round is dropped and no child of it is placed in this round.

    Reads only the witness's rounds and g.parent_sets, none of the search's
    tables.
    """
    children = {v: set() for v in range(1, g.n + 1)}
    for w in range(1, g.n + 1):
        for u in g.parent_sets[w]:
            children[u].add(w)
    out = []
    held = set()
    for i, rnd in enumerate(pebbling.rounds):
        now = set(rnd)
        placed = now - held
        out += [(i, v) for v in sorted(held - now) if children[v] and not children[v] & placed]
        held = now
    return out


def test_witnesses_drop_only_pebbles_that_feed_the_next_round():
    """Every witness of exact_pcc and exact_pcc_bounded drops a non-sink
    pebble only in a round that places one of its children; a pebbling that
    breaks this rule costs more than the same one without the idle pebble."""
    # holding node 1 through round 2 feeds nothing placed in round 3
    assert _unfed_drops(chain(3), Pebbling(((1,), (1, 2), (2, 3)), "parallel")) == [(2, 1)]
    witnesses = 0
    for mode in ("parallel", "sequential"):
        for g in _random_corpus(200):
            r = exact_pcc(g, mode=mode)
            assert _unfed_drops(g, r.witness) == [], (g.edges, mode)
            witnesses += 1
        for g in _forward_corpus(60, seed=5):
            for t_max in range(depth(g, "nodes"), g.n + 3):
                try:
                    r = exact_pcc_bounded(g, t_max, mode)
                except Infeasible:
                    continue
                key = (g.edges, mode, t_max)
                assert _unfed_drops(g, r.witness) == [], key
                witnesses += 1
    assert witnesses == 904


def _closure_by_bfs(g, pebbles, done):
    """Every node a pebbling must still place: the sinks not in `done` and,
    walking g.edges backwards, each ancestor reached through nodes not in
    `pebbles`. Reads only g.n and g.edges."""
    parents = {v: [] for v in range(1, g.n + 1)}
    for u, v in g.edges:
        parents[v].append(u)
    sources = {u for u, _ in g.edges}
    queue = [v for v in range(1, g.n + 1) if v not in sources and not done >> (v - 1) & 1]
    seen = set(queue)
    while queue:
        for u in parents[queue.pop()]:
            if u not in seen and not pebbles >> (u - 1) & 1:
                seen.add(u)
                queue.append(u)
    return sum(1 << (v - 1) for v in seen)


def test_inherited_closures_match_a_backward_bfs(monkeypatch):
    """Each child's closure is its parent's less the new set, plus a walk
    from the dropped pebbles that feed it. Checked, for every child of
    every family the generator yields inside exact_pcc and
    exact_pcc_bounded (base | sub for each subset sub of free), against a
    plain backward BFS over the edge list: the state's closure, the floor
    identity closure(mask | new) == closure & ~new, and the completed child
    closure. The family lemma holds too: base | feed is the one child of
    least (cost + closure, -cost)."""
    real = search._children
    counts = {"states": 0, "children": 0, "seeded": 0}

    def checked(*args, **kwargs):
        a = inspect.signature(real).bind(*args, **kwargs).arguments
        g, mask, sat, closure = a["g"], a["mask"], a["sat"], a["closure"]
        assert closure == _closure_by_bfs(g, mask, sat), (g.edges, mask, sat)
        counts["states"] += 1
        for base, free, ns, feed in real(*args, **kwargs):
            new = base & ~mask
            assert closure & ~new == _closure_by_bfs(g, mask | new, ns), (g.edges, mask, sat, new)
            keys = []
            for sub in range(free + 1):
                if sub & ~free:
                    continue
                t_mask = base | sub
                child = search._child_closure(g.parents_of, closure, t_mask, feed)
                assert child == _closure_by_bfs(g, t_mask, ns), (g.edges, mask, sat, t_mask)
                keys.append((t_mask.bit_count() + child.bit_count(), -t_mask.bit_count(), sub))
                counts["children"] += 1
                counts["seeded"] += feed & ~t_mask != 0
            keys.sort()
            unique = len(keys) == 1 or keys[1][:2] > keys[0][:2]
            assert keys[0][2] == feed and unique, (g.edges, mask, sat, new)
            yield base, free, ns, feed

    monkeypatch.setattr(search, "_children", checked)
    rng = random.Random(10)
    for _ in range(12):
        n = rng.randint(3, 10)
        p = rng.choice((0.2, 0.35, 0.5))
        g = build_dag(n, [(u, v) for v in range(2, n + 1) for u in range(1, v) if rng.random() < p])
        for mode in ("parallel", "sequential"):
            exact_pcc(g, mode)
            exact_pcc_bounded(g, g.n + 1, mode)
    assert counts["children"] > counts["seeded"] > 0, counts


def _state_graph(g, mode="parallel"):
    """Every (pebbles, sinks done) state reachable from the empty state by
    legal rounds, each mapped to its successors; goals are not expanded. A
    sequential round places exactly one node."""
    sinks, parents = _bit_tables(g)
    succ = {}
    todo = [(0, 0)]
    while todo:
        state = todo.pop()
        if state in succ:
            continue
        held, done = state
        succ[state] = []
        if done == sinks:
            continue
        pool = _pool(parents, held)
        peb = pool
        while peb:  # every nonempty subset of pool
            if mode == "parallel" or (peb & ~held).bit_count() == 1:
                succ[state].append((peb, done | (peb & sinks)))
            peb = (peb - 1) & pool
        todo += succ[state]
    return succ, sinks


def _remaining_costs(succ, sinks):
    """Least cost from each state to a goal: Dijkstra backwards from the goals."""
    back = {s: [] for s in succ}
    for s, ts in succ.items():
        for t in ts:
            back[t].append(s)
    rem = {s: 0 for s in succ if s[1] == sinks}
    heap = [(0, s) for s in rem]
    while heap:
        c, t = heappop(heap)
        if c > rem[t]:
            continue
        for s in back[t]:
            cs = c + t[0].bit_count()
            if cs < rem.get(s, cs + 1):
                rem[s] = cs
                heappush(heap, (cs, s))
    return rem


def _bound_corpus():
    """The DAGs the bound tests run on: v->w->u, v->c, u->c (see
    test_hold_bound_is_admissible_and_consistent), then 200 random ones."""
    rng = random.Random(12)
    graphs = [build_dag(4, [(1, 2), (2, 3), (1, 4), (3, 4)])]
    for _ in range(200):
        n = rng.randint(3, 7)
        p = rng.choice((0.3, 0.45, 0.6))
        edges = [(u, v) for v in range(2, n + 1) for u in range(1, v) if rng.random() < p]
        graphs.append(build_dag(n, edges))
    return graphs


def test_hold_bound_is_admissible_and_consistent():
    """h2 = `_hold_bound` on every state reachable from the empty state of
    small random DAGs, with the closure from a backward BFS: never above the
    exact remaining cost, and never above a round's cost plus the h2 of the
    state it leads to. The first graph is v->w->u, v->c, u->c: with w
    pebbled, v and u can both be placed next round and c the round after,
    so a descent through the pebbled w must not count v twice."""
    states = transitions = raised = 0
    for g in _bound_corpus():
        succ, sinks = _state_graph(g)
        rem = _remaining_costs(succ, sinks)
        h1 = {s: _closure_by_bfs(g, *s) for s in succ}
        h2 = {s: search._hold_bound(g.parent_masks, c) for s, c in h1.items()}
        for s, ts in succ.items():
            assert h1[s].bit_count() <= h2[s] <= rem[s], (g.edges, s)
            raised += h2[s] > h1[s].bit_count()
            for t in ts:
                assert h2[s] <= t[0].bit_count() + h2[t], (g.edges, s, t)
            transitions += len(ts)
        states += len(succ)
    assert (states, transitions, raised) == (23016, 619038, 6972)


def test_sequential_bound_is_admissible_and_consistent():
    """h_seq = `_seq_bound` on every state of the sequential state graphs
    of the same DAGs: never below h1 = |U|, never above the exact remaining
    cost, and never above a round's cost plus the h_seq of the state it
    leads to."""
    states = transitions = raised = 0
    for g in _bound_corpus():
        succ, sinks = _state_graph(g, "sequential")
        rem = _remaining_costs(succ, sinks)
        h1 = {s: _closure_by_bfs(g, *s) for s in succ}
        hs = {s: search._seq_bound(g.parent_masks, c) for s, c in h1.items()}
        pm, U = g.parent_masks, (1 << g.n) - 1  # the empty state's closure: every node
        assert search._hold_bound(pm, U) <= search._seq_bound(pm, U) == len(g.sources) + len(g.edges)
        for s, ts in succ.items():
            assert h1[s].bit_count() <= hs[s] <= rem[s], (g.edges, s)
            raised += hs[s] > h1[s].bit_count()
            for t in ts:
                assert hs[s] <= t[0].bit_count() + hs[t], (g.edges, s, t)
            transitions += len(ts)
        states += len(succ)
    assert (states, transitions, raised) == (23016, 259945, 7732)


# 1 -> 2 -> {3, 4}; {1, 3, 4} -> 5 -> 6; {3, 6} -> 7 and {4, 6} -> 8: the
# pebble on 2 can stand in for the two on 3 and 4 while 6 is built
CLOSURE_TRAP = build_dag(
    8, [(1, 2), (2, 3), (2, 4), (1, 5), (3, 5), (4, 5), (5, 6), (3, 7), (4, 8), (6, 7), (6, 8)]
)


def _closure_rounds(g, succ):
    """The transitions of `succ` that place only nodes of the source
    state's closure (from a backward BFS) and drop a non-sink pebble only in
    a round that places one of its children. Reads only g.n, g.edges and
    g.parent_sets."""
    _, parents = _bit_tables(g)
    children = [sum(1 << w for w in range(g.n) if parents[w] >> v & 1) for v in range(g.n)]
    kept = {}
    for s, ts in succ.items():
        closure = _closure_by_bfs(g, *s)
        kept[s] = []
        for t in ts:
            new, dropped = t[0] & ~s[0], s[0] & ~t[0]
            fed = all(
                not children[v] or children[v] & new
                for v in range(g.n)
                if dropped >> v & 1
            )
            if fed and not new & ~closure:
                kept[s].append(t)
    return kept


def _costs_by_rounds(succ, sinks, k_max):
    """Entry k maps each state to its least cost to a goal within k rounds
    (None if there is none)."""
    rem = {s: 0 if s[1] == sinks else None for s in succ}
    out = [rem]
    for _ in range(k_max):
        prev, rem = rem, {}
        for s, ts in succ.items():
            options = [t[0].bit_count() + prev[t] for t in ts if prev[t] is not None]
            rem[s] = 0 if s[1] == sinks else min(options, default=None)
        out.append(rem)
    return out


def _fewest_rounds(succ, sinks, cap):
    """Breadth-first distance from the empty state to a goal through states
    that hold at most cap pebbles, or None."""
    dist = {(0, 0): 0}
    queue = [(0, 0)]
    for s in queue:
        if s[1] == sinks:
            return dist[s]
        for t in succ[s]:
            if t[0].bit_count() <= cap and t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return None


def test_placing_only_closure_nodes_loses_the_parallel_optimum():
    """Placing only nodes of the closure U (the unfinished sinks and their
    ancestors through unpebbled nodes), even with the drop rule, loses the
    parallel optimum of CLOSURE_TRAP: 12 becomes 13. The optimum's round 4
    places 2 while U = {5, 6, 7, 8}; round 4 drops 3 and 4 to place 5, and
    2 rebuilds both for 7 and 8. Holding 3 and 4 instead, or 1 for a later
    2, costs one more. The search places nodes outside U, and its witness
    shows it. Checked on the exhaustive state graphs with the test-side
    enumerators, for least cost, least cost within k rounds and fewest
    rounds under each space cap: the rule moves only the parallel costs."""
    g = CLOSURE_TRAP
    r = exact_pcc(g)
    assert (r.optimum, _least_cost_reference(g).optimum) == (12, 12)
    assert r.witness.rounds == ((1,), (2,), (1, 3, 4), (2, 5), (3, 4, 6), (7, 8))
    assert _closure_by_bfs(g, mask_of((1, 3, 4)), 0) == mask_of((5, 6, 7, 8))
    seen = {}
    for mode in ("parallel", "sequential"):
        succ, sinks = _state_graph(g, mode)
        kept = _closure_rounds(g, succ)
        full_rounds = _costs_by_rounds(succ, sinks, g.n + 1)
        kept_rounds = _costs_by_rounds(kept, sinks, g.n + 1)
        start = (0, 0)
        seen[mode] = (
            len(succ),
            sum(map(len, succ.values())),
            sum(map(len, kept.values())),
            _remaining_costs(succ, sinks)[start],
            _remaining_costs(kept, sinks).get(start),
            [k for k in range(g.n + 2) if full_rounds[k][start] != kept_rounds[k][start]],
            [
                c
                for c in range(1, g.n + 1)
                if _fewest_rounds(succ, sinks, c) != _fewest_rounds(kept, sinks, c)
            ],
        )
    assert seen == {
        "parallel": (510, 22204, 2338, 12, 13, [6, 7, 8, 9], []),
        "sequential": (510, 9979, 1383, 19, 19, [], []),
    }


def _idle_rounds(g, succ):
    """The transitions of `succ` that place a child of every idle pebble of
    the source state: a held pebble that is no finished sink and has all its
    parents held. Reads only g.n and g.parent_sets."""
    _, parents = _bit_tables(g)
    children = [sum(1 << w for w in range(g.n) if parents[w] >> v & 1) for v in range(g.n)]
    kept = {}
    for (held, done), ts in succ.items():
        idle = [v for v in range(g.n) if (held & ~done) >> v & 1 and parents[v] & ~held == 0]
        kept[held, done] = [t for t in ts if all(children[v] & t[0] & ~held for v in idle)]
    return kept


def _trap_gadget(m, p):
    """CLOSURE_TRAP's shape with m children under the hub, at the end of a
    chain of p nodes: 1 -> ... -> p -> hub -> c1..cm; {p, c1..cm} -> join
    -> x; {ci, x} -> sink i. _trap_gadget(2, 1) is CLOSURE_TRAP."""
    hub = p + 1
    kids = list(range(hub + 1, hub + m + 1))
    join, x = hub + m + 1, hub + m + 2
    edges = [(i, i + 1) for i in range(1, hub)] + [(hub, c) for c in kids] + [(p, join), (join, x)]
    edges += [(c, join) for c in kids]
    edges += [e for i, c in enumerate(kids, x + 1) for e in ((c, i), (x, i))]
    return build_dag(x + m, edges)


# the trap family with 2, 3 or 4 children under the hub, up to 14 nodes;
# on each, placing only closure nodes loses one unit of the parallel optimum
TRAP_GADGETS = [_trap_gadget(m, p) for m in (2, 3, 4) for p in range(1, 12 - 2 * m) if (m, p) != (2, 1)]


def test_idle_pebble_rule_keeps_every_parallel_optimum():
    """A pebble of round r that is no finished sink and has all its parents
    in round r is idle: a round after it that places none of its children
    and keeps it can take it over from round r, for one less. So keeping
    only the rounds that place a child of every idle pebble keeps the least
    cost and the least cost within k rounds, k up to the depth + 2: checked
    on the exhaustive parallel state graphs of all 1,099 DAGs of up to 5
    nodes and of CLOSURE_TRAP with the test-side enumerators. On the trap
    gadgets of 9-14 nodes, whose state graphs are too large to list, the
    search with and without the rule (and its dead-end cut) agrees,
    unbounded and at each horizon from the depth to n + 1. In sequential
    mode the rule is false: on (1, 3), (2, 3), (1, 4) the round that first
    holds both sources places one of them while the other is idle, so no
    pebbling is left where 6 was."""
    corpus = []
    for n in range(1, 6):
        pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
        for bits in range(1 << len(pairs)):
            corpus.append(build_dag(n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
    assert len(corpus) == 1099
    start = (0, 0)
    states = transitions = kept_transitions = 0
    for g in corpus + [CLOSURE_TRAP]:
        succ, sinks = _state_graph(g)
        kept = _idle_rounds(g, succ)
        full_rounds = _costs_by_rounds(succ, sinks, depth(g) + 2)
        kept_rounds = _costs_by_rounds(kept, sinks, depth(g) + 2)
        assert [c[start] for c in full_rounds] == [c[start] for c in kept_rounds], g.edges
        assert _remaining_costs(succ, sinks)[start] == _remaining_costs(kept, sinks)[start], g.edges
        states += len(succ)
        transitions += sum(map(len, succ.values()))
        kept_transitions += sum(map(len, kept.values()))
    assert (states, transitions, kept_transitions) == (65888, 716345, 341910)
    assert _trap_gadget(2, 1) == CLOSURE_TRAP
    assert [g.n for g in TRAP_GADGETS] == [9, 10, 11, 12, 13, 14, 10, 11, 12, 13, 14, 12, 13, 14]
    for g in TRAP_GADGETS:
        for t_max in [None, *range(depth(g), g.n + 2)]:
            ruled = search._cost_search(g, "parallel", None, None, t_max)
            plain = search._cost_search(g, "parallel", None, None, t_max, idle_rule=False)
            assert ruled.optimum == plain.optimum, (g.edges, t_max)
            assert_sound(g, ruled)
    g = build_dag(4, [(1, 3), (2, 3), (1, 4)])
    succ, sinks = _state_graph(g, "sequential")
    kept = _idle_rounds(g, succ)
    assert (_remaining_costs(succ, sinks)[start], _remaining_costs(kept, sinks).get(start)) == (6, None)
    assert exact_pcc(g, "sequential").optimum == 6


def _hold_bound_by_mask(parent_masks, mask, closure):
    """h2 without its chain term, in the form that reads the state's
    pebbles: B is mask & late."""
    anc = {}
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


def _weight_tiers(parent_masks):
    """(w, nodes) pairs, heaviest first: the nodes v with max(1, |parents(v)|) = w."""
    tiers = {}
    for v in range(1, len(parent_masks)):
        w = max(1, parent_masks[v].bit_count())
        tiers[w] = tiers.get(w, 0) | 1 << (v - 1)
    return sorted(tiers.items(), reverse=True)


def _seq_bound_by_mask(parent_masks, tiers, mask, closure):
    """h_seq in the form that tests placeability against the pebbles, by
    weight tiers from `_weight_tiers`, heaviest first."""
    if not closure:
        return 0
    total, top = 1, 0
    for w, nodes in tiers:
        mine = closure & nodes
        if mine:
            total += w * mine.bit_count()
            while mine and not top:
                low = mine & -mine
                mine ^= low
                if not parent_masks[low.bit_length()] & ~mask:
                    top = w
    return total - top


def _chain_bound(g, closure):
    """1 + the heaviest path v1 -> ... -> vk inside the closure U, each vj
    but the first weighing |parents(vj)|, and 0 when U is empty. Reads only
    g.parent_sets."""
    inside = [v for v in range(1, g.n + 1) if closure >> (v - 1) & 1]
    weight = {}
    for v in inside:
        heavier = [weight[u] for u in g.parent_sets[v] if u in weight]
        weight[v] = max(heavier) + len(g.parent_sets[v]) if heavier else 0
    return 1 + max(weight.values()) if weight else 0


def test_bounds_read_only_the_closure():
    """A parent of a node of U is pebbled or in U, so a node of U is
    placeable exactly when it has no parent in U, and mask & late is
    late & ~U. So the closure-only bounds equal the mask-reading forms on
    every state of both state graphs of the corpus, h2 once its chain term
    is put back."""
    states = 0
    for g in _bound_corpus():
        pm = g.parent_masks
        tiers = _weight_tiers(pm)
        for mode in ("parallel", "sequential"):
            for mask, done in _state_graph(g, mode)[0]:
                c = _closure_by_bfs(g, mask, done)
                key = (g.edges, mode, mask, done)
                old = max(_hold_bound_by_mask(pm, mask, c), _chain_bound(g, c))
                assert search._hold_bound(pm, c) == old, key
                assert search._seq_bound(pm, c) == _seq_bound_by_mask(pm, tiers, mask, c), key
                states += 1
    assert states == 2 * 23016


def test_chain_term_is_admissible_and_consistent():
    """h2 with its chain term on the parallel state graphs of
    layered_random(n, s), n 6 to 8 and s 1 to 5, whose long paths are
    where the chain term lifts h2: never above the exact remaining cost,
    never above a round's cost plus the h2 of the state it leads to, and
    never below the h2 without it. A* with it matches the plain least-cost
    search in both modes."""
    states = transitions = raised = 0
    for n in range(6, 9):
        for seed in range(1, 6):
            g = layered_random(n, seed)
            succ, sinks = _state_graph(g)
            rem = _remaining_costs(succ, sinks)
            closures = {s: _closure_by_bfs(g, *s) for s in succ}
            h2 = {s: search._hold_bound(g.parent_masks, c) for s, c in closures.items()}
            for s, ts in succ.items():
                old = _hold_bound_by_mask(g.parent_masks, s[0], closures[s])
                assert old <= h2[s] <= rem[s], (g.edges, s)
                raised += h2[s] > old
                for t in ts:
                    assert h2[s] <= t[0].bit_count() + h2[t], (g.edges, s, t)
                transitions += len(ts)
            states += len(succ)
            for mode in ("parallel", "sequential"):
                fast = exact_pcc(g, mode)
                assert fast.optimum == _least_cost_reference(g, mode).optimum, (g.edges, mode)
                assert_sound(g, fast, mode)
    assert (states, transitions, raised) == (2240, 61098, 130)


def test_sequential_bound_fits_the_heap_item():
    """h_seq can pass 2n: on complete(9) it is 37 at the empty state, the
    optimum, so the dive proves it. Without the edge 1 -> 3 the optimum is
    still 37, but the dive's 9 rounds do not prove it, and A* pops heap
    items whose h field holds 37, above the 31 that 2n's bit width holds."""
    sparser = build_dag(9, [e for e in complete(9).edges if e != (1, 3)])
    for g, opt in ((complete(8), 29), (complete(9), 37), (complete(10), 46), (sparser, 37)):
        r = exact_pcc(g, "sequential")
        assert r.optimum == opt, g.edges
        assert_sound(g, r, "sequential")
        if g.n <= 9:
            assert _least_cost_reference(g, "sequential").optimum == opt, g.edges
    assert r.expanded_states > sparser.n  # the dive alone expands 9 states


def test_min_space_and_min_st_match_the_enumerators():
    """The capped sweep retains as many pebbles as fit; the test-side
    enumerators, which keep every retained subset, agree. Some pebbling
    fits in min-space pebbles and none in one fewer, and no pebbling with
    at most s pebbles a round finishes in fewer than min-st / s rounds."""
    for g in _random_corpus(25, seed=1):
        space = exact_min_space(g).optimum
        _least_cost_reference(g, max_space=space)
        with pytest.raises(Infeasible):
            _least_cost_reference(g, max_space=space - 1)
        r = exact_min_st(g)
        st = r.optimum
        assert validate(g, r.witness).legal and cost(r.witness).st == st, g.edges
        for s in range(1, g.n + 1):
            t = (st - 1) // s
            if t > 0:
                assert _layered_reference(g, t, "parallel", s)[-1] is None, (g.edges, s)


def test_multi_sink_graph():
    g = build_dag(4, [(1, 2), (1, 3)])
    assert exact_pcc(g).optimum == 4


def test_counterexample_pcc_is_27():
    g = counterexample_dag()
    capped = exact_pcc(g, cost_cap=27)
    assert capped.optimum == 27
    assert_sound(g, capped)
    # the cap only prunes; the uncapped run proves the same value
    assert exact_pcc(g, limits=BIG).optimum == 27
    with pytest.raises(Infeasible, match="^no legal pebbling under cost cap 26$"):
        exact_pcc(g, cost_cap=26)


def test_counterexample_16_rounds_needs_28():
    g = counterexample_dag()
    with pytest.raises(Infeasible):
        exact_pcc_bounded(g, t_max=16, cost_cap=27, limits=BIG)
    r = exact_pcc_bounded(g, t_max=16, cost_cap=28, limits=BIG)
    assert r.optimum == 28
    assert r.witness.t <= 16
    assert_sound(g, r)


CE16_PREFIX = ((1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,))

# The bounded jobs of perfbench's search-rounds workload: (graph, t_max,
# cost_cap) and either (optimum, expanded_states, witness rounds) or the
# Infeasible message.
BOUNDED_JOBS = [
    ("ce16", 16, 27, "no legal pebbling within 16 rounds under cost cap 27"),
    ("ce16", 17, 27, "no legal pebbling within 17 rounds under cost cap 27"),
    ("ce16", 18, 27, (27, 92, CE16_PREFIX + (
        (1, 9), (2, 10), (3, 11), (4, 12), (5, 13), (6, 14), (7, 14), (8, 14), (9, 15), (16,),
    ))),
    ("ce16", 16, 30, (28, 96, CE16_PREFIX + (
        (1, 8, 9), (2, 8, 10), (3, 8, 11), (4, 8, 12), (5, 8, 13), (8, 14), (9, 15), (16,),
    ))),
    ("pyr4", 7, None, (10, 4, ((1, 2, 3, 4), (5, 6, 7), (8, 9), (10,)))),
    ("lr14-1", 14, 40, (33, 92, (
        (1,), (1, 2), (2, 3), (1, 4), (4, 5), (4, 6), (4, 7), (4, 7, 8), (1, 4, 7, 9),
        (2, 4, 7, 10), (7, 8, 11), (1, 7, 12), (7, 13), (14,),
    ))),
]


@pytest.mark.parametrize("name, t_max, cost_cap, expected", BOUNDED_JOBS)
def test_bounded_jobs_are_pinned(name, t_max, cost_cap, expected):
    g = {"ce16": counterexample_dag(), "pyr4": pyramid(4), "lr14-1": layered_random(14, 1)}[name]
    if isinstance(expected, str):
        with pytest.raises(Infeasible) as info:
            exact_pcc_bounded(g, t_max, cost_cap=cost_cap)
        assert str(info.value) == expected
        return
    r = exact_pcc_bounded(g, t_max, cost_cap=cost_cap)
    assert (r.optimum, r.expanded_states, r.witness.rounds) == expected
    assert_sound(g, r)


def test_bounded_small_cases():
    assert exact_pcc_bounded(chain(3), t_max=3).optimum == 3
    with pytest.raises(Infeasible):
        exact_pcc_bounded(chain(3), t_max=2)
    with pytest.raises(Infeasible):
        exact_pcc_bounded(pyramid(2), t_max=1)
    assert exact_pcc_bounded(pyramid(2), t_max=2).optimum == 3


def test_bounded_nonincreasing_and_converges():
    g = layered_random(7, seed=4)
    unbounded = exact_pcc(g).optimum
    d = depth(g, "nodes")
    prev = None
    for t in range(d, g.n + 1):
        val = exact_pcc_bounded(g, t_max=t).optimum
        if prev is not None:
            assert val <= prev
        prev = val
    assert prev == unbounded


def test_bounded_respects_horizon():
    r = exact_pcc_bounded(pyramid(3), t_max=4)
    assert r.witness.t <= 4
    assert_sound(pyramid(3), r)


def test_min_st_chains():
    for n in range(1, 9):
        r = exact_min_st(chain(n))
        assert r.optimum == n
        assert validate(chain(n), r.witness).legal


def test_min_st_pyramid2():
    r = exact_min_st(pyramid(2))
    assert r.optimum == 4
    c = cost(r.witness)
    assert c.t * c.max_space == 4
    assert validate(pyramid(2), r.witness).legal


def test_min_st_single_node():
    assert exact_min_st(chain(1)).optimum == 1


def test_min_space_values():
    assert exact_min_space(chain(7)).optimum == 1
    assert exact_min_space(pyramid(2)).optimum == 2
    assert exact_min_space(pyramid(3)).optimum == 3


# (name, graph) -> mode -> (min-space optimum, its expanded_states, min-st
# optimum, its expanded_states)
SWEEP_PINS = {
    "chain4": (chain(4), {"parallel": (1, 4, 4, 4), "sequential": (1, 4, 4, 4)}),
    "chain6": (chain(6), {"parallel": (1, 6, 6, 6), "sequential": (1, 6, 6, 6)}),
    "chain8": (chain(8), {"parallel": (1, 8, 8, 8), "sequential": (1, 8, 8, 8)}),
    "chain10": (chain(10), {"parallel": (1, 10, 10, 10), "sequential": (1, 10, 10, 10)}),
    "pyr3": (pyramid(3), {"parallel": (3, 22, 9, 22), "sequential": (3, 28, 18, 28)}),
    "pyr4": (pyramid(4), {"parallel": (4, 160, 16, 160), "sequential": (4, 228, 40, 228)}),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sweep_work_is_pinned(name):
    """The capped sweep's optima and expansions. The sweep starts at the
    largest in-degree, and min-st stops before cap s + 1 once
    max((s + 1) * rounds, n) reaches its best product, rounds being n in
    sequential mode and the depth in parallel mode. On chain(n) the best is
    n after cap 1 and the floor of cap 2 is 2n, so only cap 1 is swept; on
    the pyramids min-st stops after the min-space cap, at the floor of the
    next cap (pyramid(4), parallel: 16 <= max(5 * 4, 10))."""
    g, pins = SWEEP_PINS[name]
    for mode, expected in pins.items():
        space, st = exact_min_space(g, mode), exact_min_st(g, mode)
        got = (space.optimum, space.expanded_states, st.optimum, st.expanded_states)
        assert got == expected, mode
        assert validate(g, space.witness).legal and validate(g, st.witness).legal


def test_sweep_bounds_keep_every_optimum():
    """Both ends of the sweep's bounds, on graphs shallower than they are
    wide (layered_random has depth n): min-st equals the least witness st
    over every cap the sweep yields, read with no early stop, and the
    enumerator finds no pebbling in fewer pebbles than the largest
    in-degree, the cap the sweep starts at."""
    rng = random.Random(25)
    corpus = [pyramid(k) for k in (2, 3, 4)] + [complete(k) for k in range(2, 7)]
    corpus += [build_dag(n, []) for n in range(1, 7)] + [CLOSURE_TRAP]
    for _ in range(200):
        n, p = rng.randint(1, 9), rng.random()
        pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
        corpus.append(build_dag(n, [e for e in pairs if rng.random() < p]))
    for g in corpus:
        for mode in ("parallel", "sequential"):
            sweep = search._sweep(g, mode, None)
            full = min(cost(w).st for _, w, _ in sweep if w is not None)
            assert exact_min_st(g, mode).optimum == full, (g.n, g.edges, mode)
            if g.max_indeg >= 2:
                with pytest.raises(Infeasible):
                    _least_cost_reference(g, mode, max_space=g.max_indeg - 1)


def test_sweep_exhausted_carries_proven_bounds():
    """A cap hit while cap c is swept proves that no smaller cap fits a
    better pebbling: min-space lies in [c, ?], and min-st in
    [max(c * rounds, n), best], best the st of a witness the sweep built."""
    # pyramid(4): caps 2 and 3 fit no pebbling (23 and 106 states expanded
    # by their ends), cap 4 does; in parallel mode rounds is the depth, 4
    g = pyramid(4)
    with pytest.raises(Exhausted) as info:
        exact_min_space(g, limits=SearchLimits(max_states=50))
    assert (info.value.lower_bound, info.value.upper_bound) == (3, None)
    assert str(info.value) == "state cap 50 hit at space cap 3; optimum in [3, ?]"
    assert exact_min_space(g).optimum == 4
    with pytest.raises(Exhausted) as info:
        exact_min_st(g, limits=SearchLimits(max_states=50))
    assert (info.value.lower_bound, info.value.upper_bound) == (12, None)
    assert exact_min_st(g).optimum == 16
    # layered_random(7, 102), sequential (rounds = n = 7): cap 2 builds a
    # pebbling of st 22 in 17 expansions, and cap 3 one of st 21, the optimum
    g = layered_random(7, 102)
    cap, witness, expanded = next(search._sweep(g, "sequential", None))
    assert (cap, cost(witness).st, expanded) == (2, 22, 17)
    with pytest.raises(Exhausted) as info:
        exact_min_st(g, "sequential", SearchLimits(max_states=20))
    assert (info.value.lower_bound, info.value.upper_bound) == (21, 22)
    assert str(info.value) == "state cap 20 hit at space cap 3; optimum in [21, 22]"
    with pytest.raises(Exhausted) as info:
        exact_min_st(g, "sequential", SearchLimits(max_states=5))
    assert (info.value.lower_bound, info.value.upper_bound) == (14, None)
    assert exact_min_st(g, "sequential").optimum == 21


def test_min_space_witness_is_tight():
    for g in (chain(5), pyramid(2), pyramid(3), complete(4)):
        r = exact_min_space(g)
        assert validate(g, r.witness).legal
        # a slacker witness would have succeeded at a smaller cap
        assert cost(r.witness).max_space == r.optimum


def test_oracle_sandwich_and_mode_monotonicity():
    for seed in range(6):
        g = layered_random(8, seed=30 + seed)
        par = exact_pcc(g).optimum
        seq = exact_pcc(g, mode="sequential").optimum
        st_seq = exact_min_st(g, mode="sequential").optimum
        assert depth(g, "nodes") <= par <= g.n * (g.n + 1) // 2
        assert par <= seq <= st_seq


def test_determinism():
    g = layered_random(9, seed=77)
    a = exact_pcc(g)
    b = exact_pcc(g)
    assert a.witness == b.witness
    assert a.expanded_states == b.expanded_states


def test_node_cap(monkeypatch):
    with pytest.raises(TooLarge):
        exact_pcc(chain(25))
    monkeypatch.setattr(search, "_MAX_NODES", 32)
    assert exact_pcc(chain(25)).optimum == 25


def test_state_cap_exhausts():
    with pytest.raises(Exhausted) as info:
        exact_pcc(counterexample_dag(), limits=SearchLimits(max_states=3))
    assert info.value.expanded == 4


def test_exhausted_carries_proven_bounds():
    with pytest.raises(Exhausted) as info:
        exact_pcc(counterexample_dag(), limits=SearchLimits(max_states=50))
    exc = info.value
    assert 16 <= exc.lower_bound <= 27 <= exc.upper_bound
    assert f"optimum in [{exc.lower_bound}, {exc.upper_bound}]" in str(exc)
    # stopped during the dive: the bound is h2(start), and a cost cap is no
    # incumbent, since no pebbling of that cost was built
    with pytest.raises(Exhausted) as info:
        exact_pcc(counterexample_dag(), limits=SearchLimits(max_states=3), cost_cap=30)
    assert (info.value.lower_bound, info.value.upper_bound) == (23, None)


def test_bounded_exhausted_carries_proven_bounds():
    # layered_random(14, 1) at t_max = 14: h2(start) is 26, the optimum 33;
    # by 50 states the dive has built a pebbling of cost 47 and A* has
    # popped a key of 30, and 3 states stop it inside the dive
    g = layered_random(14, 1)
    with pytest.raises(Exhausted) as info:
        exact_pcc_bounded(g, t_max=14, limits=SearchLimits(max_states=50))
    exc = info.value
    assert (exc.lower_bound, exc.upper_bound) == (30, 47)
    assert str(exc) == "state cap 50 hit at bound 30; optimum in [30, 47]"
    with pytest.raises(Exhausted) as info:
        exact_pcc_bounded(g, t_max=14, limits=SearchLimits(max_states=3))
    assert (info.value.lower_bound, info.value.upper_bound) == (26, None)
    assert exact_pcc_bounded(g, t_max=14).optimum == 33


def test_time_budget_exhausts():
    with pytest.raises(Exhausted):
        exact_pcc(
            counterexample_dag(),
            limits=SearchLimits(time_budget=0.0, max_states=50_000_000),
        )


def test_time_budget_holds_inside_one_expansion():
    """22 sources feed one sink, so the empty state has 2^22 - 1 new sets.
    The cost search stops in its new-set loop, and the capped sweeps, which
    start at cap 22, in their kept-set loop; without those clock reads the
    first expansion takes seconds."""
    g = build_dag(23, [(v, 23) for v in range(1, 23)])
    for search_fn in (exact_pcc, exact_min_space, exact_min_st):
        start = time.monotonic()
        with pytest.raises(Exhausted, match="time budget hit") as info:
            search_fn(g, limits=SearchLimits(time_budget=0.05))
        assert time.monotonic() - start < 1.0
        assert info.value.expanded == 1


def test_time_budget_holds_inside_one_subset_walk():
    """A* stops inside the subsets of one family. Node 1 feeds c_i and d_i
    and each c_i feeds d_i (i = 1..10), two more sources z feed only the
    sink 24, and all 23 other nodes feed the sink. The optimum, 36, places
    1, then the c's, then the d's and z's, holding everything, then the
    sink. The dive places the z's at once and costs 40, so A* runs: its
    fourth pop holds all 23 parents of the sink, and the family that places
    the sink has 2^23 subsets, which take about a second to walk. Without
    the clock read in that walk the search returns the optimum instead."""
    c, d, t = range(2, 12), range(12, 22), 24
    edges = [(1, v) for v in (*c, *d)] + list(zip(c, d)) + [(v, t) for v in range(1, t)]
    g = build_dag(t, edges)
    start = time.monotonic()
    with pytest.raises(Exhausted, match="time budget hit"):
        exact_pcc(g, limits=SearchLimits(time_budget=0.05))
    assert time.monotonic() - start < 1.0


def test_complete_enumeration_respects_space_cap():
    with pytest.raises(Infeasible):
        _least_cost_reference(pyramid(2), max_space=1)


def test_unachievable_seed_is_infeasible():
    # a cost cap below the optimum prunes everything rather than returning
    # a wrong value
    with pytest.raises(Infeasible):
        exact_pcc(pyramid(2), cost_cap=2)


def test_negative_limits_rejected():
    for field in ("max_states", "time_budget"):
        with pytest.raises(ValueError, match=field):
            SearchLimits(**{field: -1})
    with pytest.raises(ValueError, match="time_budget"):
        SearchLimits(time_budget=float("nan"))  # would never expire
    # a float cap would fail mid-search, and True would cap at 1 state
    for value in (1e6, True):
        with pytest.raises(TypeError, match="max_states"):
            SearchLimits(max_states=value)
    assert SearchLimits(time_budget=0.0).time_budget == 0.0


def test_every_limit_binds_every_search(monkeypatch):
    g = chain(2)
    searches = (
        exact_pcc,
        lambda g, limits: exact_pcc_bounded(g, 2, limits=limits),
        exact_min_st,
        exact_min_space,
    )
    for run in searches:
        with monkeypatch.context() as m, pytest.raises(TooLarge):
            m.setattr(search, "_MAX_NODES", 1)
            run(g, limits=SearchLimits())
        for limits in (SearchLimits(max_states=0), SearchLimits(time_budget=0.0)):
            with pytest.raises(Exhausted):
                run(g, limits=limits)


def test_bad_mode():
    with pytest.raises(ValueError):
        exact_pcc(chain(3), mode="fast")
