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
    which uses neither the heuristic nor the dive."""
    for g in _random_corpus(200):
        for mode in ("parallel", "sequential"):
            fast = exact_pcc(g, mode=mode)
            slow = _least_cost_reference(g, mode)
            assert fast.optimum == slow.optimum, (g.edges, mode)
            assert_sound(g, fast, mode)


def test_bounded_at_the_optimum_matches_astar():
    """With t_max = optimum the round DP cannot lose the optimal pebbling
    (each useful round costs at least 1), and it keeps no heap."""
    for g in _random_corpus(40):
        opt = exact_pcc(g).optimum
        r = exact_pcc_bounded(g, t_max=opt)
        assert r.optimum == opt, g.edges
        assert_sound(g, r)


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
    """The round DP's cuts (closure floor, rounds needed, cross-round
    dominance, remembered depth cuts, incumbent) against an enumerator that
    shares none of them, over horizons, cost caps, space caps and modes."""
    cases = 0
    for g in _forward_corpus(60, seed=5):
        for mode in ("parallel", "sequential"):
            for max_space in (None, 2, 3):
                ref = _layered_reference(g, g.n + 2, mode, max_space)
                opt = ref[-1]
                caps = (None,) if opt is None else (None, opt, opt + 2)
                limits = SearchLimits(max_space=max_space)
                for t_max in range(depth(g, "nodes"), g.n + 3):
                    for cap in caps:
                        want = ref[t_max]
                        if want is not None and cap is not None and want > cap:
                            want = None
                        try:
                            r = exact_pcc_bounded(g, t_max, mode, limits, cost_cap=cap)
                        except Infeasible:
                            r = None
                        cases += 1
                        key = (g.n, g.edges, mode, max_space, t_max, cap)
                        assert (None if r is None else r.optimum) == want, key
                        if r is not None:
                            assert_sound(g, r, mode)
                            assert r.witness.t <= t_max, key
                            assert max_space is None or cost(r.witness).max_space <= max_space
    assert cases == 4802


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
    for max_space in (None, 2, 3):
        limits = SearchLimits(max_space=max_space)
        for mode in ("parallel", "sequential"):
            for g in _random_corpus(200):
                try:
                    r = exact_pcc(g, mode=mode, limits=limits)
                except Infeasible:
                    continue
                assert _unfed_drops(g, r.witness) == [], (g.edges, mode, max_space)
                witnesses += 1
            for g in _forward_corpus(60, seed=5):
                for t_max in range(depth(g, "nodes"), g.n + 3):
                    try:
                        r = exact_pcc_bounded(g, t_max, mode, limits)
                    except Infeasible:
                        continue
                    key = (g.edges, mode, max_space, t_max)
                    assert _unfed_drops(g, r.witness) == [], key
                    witnesses += 1
    assert witnesses == 2273


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
    from the dropped pebbles that feed it. Checked, for every child the
    generator yields inside exact_pcc and exact_pcc_bounded, against a plain
    backward BFS over the edge list: the state's closure, the floor identity
    closure(mask | new) == closure & ~new, and the completed child closure."""
    real = search._children
    counts = {"states": 0, "children": 0, "seeded": 0}

    def checked(*args, **kwargs):
        a = inspect.signature(real).bind(*args, **kwargs).arguments
        g, mask, sat, closure = a["g"], a["mask"], a["sat"], a["closure"]
        assert closure == _closure_by_bfs(g, mask, sat), (g.edges, mask, sat)
        counts["states"] += 1
        for t_mask, ns, feed in real(*args, **kwargs):
            key = (g.edges, mask, sat, t_mask)
            new = t_mask & ~mask
            assert closure & ~new == _closure_by_bfs(g, mask | new, ns), key
            child = search._child_closure(g.parent_masks, closure, t_mask, feed)
            assert child == _closure_by_bfs(g, t_mask, ns), key
            counts["children"] += 1
            counts["seeded"] += feed & ~t_mask != 0
            yield t_mask, ns, feed

    monkeypatch.setattr(search, "_children", checked)
    rng = random.Random(10)
    for _ in range(12):
        n = rng.randint(3, 10)
        p = rng.choice((0.2, 0.35, 0.5))
        g = build_dag(n, [(u, v) for v in range(2, n + 1) for u in range(1, v) if rng.random() < p])
        for max_space in (None, 2, 3):
            limits = SearchLimits(max_space=max_space)
            for mode in ("parallel", "sequential"):
                for run in (
                    lambda: exact_pcc(g, mode, limits),
                    lambda: exact_pcc_bounded(g, g.n + 1, mode, limits),
                ):
                    try:
                        run()
                    except Infeasible:
                        pass
    assert counts["children"] > counts["seeded"] > 0, counts


def _state_graph(g):
    """Every (pebbles, sinks done) state reachable from the empty state by
    legal rounds, each mapped to its successors; goals are not expanded."""
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


def test_hold_bound_is_admissible_and_consistent():
    """h2 = `_hold_bound` on every state reachable from the empty state of
    small random DAGs, with the closure from a backward BFS: never above the
    exact remaining cost, and never above a round's cost plus the h2 of the
    state it leads to. The first graph is v->w->u, v->c, u->c: with w
    pebbled, v and u can both be placed next round and c the round after,
    so a descent through the pebbled w must not count v twice."""
    rng = random.Random(12)
    graphs = [build_dag(4, [(1, 2), (2, 3), (1, 4), (3, 4)])]
    for _ in range(200):
        n = rng.randint(3, 7)
        p = rng.choice((0.3, 0.45, 0.6))
        edges = [(u, v) for v in range(2, n + 1) for u in range(1, v) if rng.random() < p]
        graphs.append(build_dag(n, edges))
    states = transitions = raised = 0
    for g in graphs:
        succ, sinks = _state_graph(g)
        rem = _remaining_costs(succ, sinks)
        h1 = {s: _closure_by_bfs(g, *s) for s in succ}
        h2 = {s: search._hold_bound(g.parent_masks, s[0], c) for s, c in h1.items()}
        for s, ts in succ.items():
            assert h1[s].bit_count() <= h2[s] <= rem[s], (g.edges, s)
            raised += h2[s] > h1[s].bit_count()
            for t in ts:
                assert h2[s] <= t[0].bit_count() + h2[t], (g.edges, s, t)
            transitions += len(ts)
        states += len(succ)
    assert (states, transitions, raised) == (23016, 619038, 6972)


def test_min_space_and_min_st_match_the_round_dp():
    """The capped sweep retains as many pebbles as fit; the round DP under
    the same space cap keeps every retained subset."""
    for g in _random_corpus(25, seed=1):
        space = exact_min_space(g).optimum
        if space > 1:
            with pytest.raises(Infeasible):
                exact_pcc_bounded(g, g.n * g.n, limits=SearchLimits(max_space=space - 1))
        best_st = g.n * g.n
        for s in range(space, g.n + 1):
            for t in range(1, g.n * g.n + 1):
                try:
                    exact_pcc_bounded(g, t, limits=SearchLimits(max_space=s))
                except Infeasible:
                    continue
                best_st = min(best_st, s * t)
                break
        assert exact_min_st(g).optimum == best_st, g.edges


def test_multi_sink_graph():
    g = build_dag(4, [(1, 2), (1, 3)])
    assert exact_pcc(g).optimum == 4


def test_counterexample_pcc_is_27():
    g = counterexample_dag()
    seeded = exact_pcc(g, limits=SearchLimits(upper_bound_seed=27))
    assert seeded.optimum == 27
    assert_sound(g, seeded)
    # the seed is only a prune hint; the unseeded run proves the same value
    assert exact_pcc(g, limits=BIG).optimum == 27


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
    ("ce16", 18, 27, (27, 516, CE16_PREFIX + (
        (1, 9), (2, 10), (3, 11), (4, 12), (5, 13), (6, 14), (7, 14), (8, 14), (9, 15), (16,),
    ))),
    ("ce16", 16, 30, (28, 866, CE16_PREFIX + (
        (1, 8, 9), (2, 8, 10), (3, 8, 11), (4, 8, 12), (5, 8, 13), (8, 14), (9, 15), (16,),
    ))),
    ("pyr4", 7, None, (10, 376, ((1, 2, 3, 4), (5, 6, 7), (8, 9), (10,)))),
    ("lr14-1", 14, 40, (33, 1388, (
        (1,), (1, 2), (2, 3), (1, 4), (4, 5), (4, 6), (4, 7), (4, 7, 8), (1, 4, 7, 9),
        (2, 7, 8, 10), (7, 8, 11), (1, 7, 12), (7, 13), (14,),
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


def test_node_cap():
    with pytest.raises(TooLarge):
        exact_pcc(chain(25))
    assert exact_pcc(chain(25), limits=SearchLimits(max_nodes=32)).optimum == 25


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
    # stopped during the dive: the bound is h2(start) and the seed the incumbent
    with pytest.raises(Exhausted) as info:
        exact_pcc(
            counterexample_dag(),
            limits=SearchLimits(max_states=3, upper_bound_seed=30),
        )
    assert (info.value.lower_bound, info.value.upper_bound) == (23, 30)


def test_bounded_exhausted_carries_proven_bounds():
    # pyramid(4) at t_max = 7: h(start) is 10, the optimum 10; the proof
    # takes 376 expansions, and by 250 the DP holds a goal of cost 12
    with pytest.raises(Exhausted) as info:
        exact_pcc_bounded(pyramid(4), t_max=7, limits=SearchLimits(max_states=250))
    exc = info.value
    assert (exc.lower_bound, exc.upper_bound) == (10, 12)
    assert str(exc).endswith("optimum in [10, 12]")
    with pytest.raises(Exhausted) as info:
        exact_pcc_bounded(pyramid(4), t_max=7, limits=SearchLimits(max_states=10))
    assert (info.value.lower_bound, info.value.upper_bound) == (10, None)
    assert exact_pcc_bounded(pyramid(4), t_max=7).optimum == 10


def test_time_budget_exhausts():
    with pytest.raises(Exhausted):
        exact_pcc(
            counterexample_dag(),
            limits=SearchLimits(time_budget=0.0, max_states=50_000_000),
        )


def test_time_budget_holds_inside_one_expansion():
    # the empty state of an 18-node edgeless graph has 2^18 - 1 children
    start = time.monotonic()
    try:
        exact_pcc(build_dag(18, []), limits=SearchLimits(time_budget=0.2))
    except Exhausted:
        pass
    assert time.monotonic() - start < 1.0


def test_space_limit_infeasible():
    with pytest.raises(Infeasible):
        exact_pcc(pyramid(2), limits=SearchLimits(max_space=1))
    capped = exact_pcc(pyramid(2), limits=SearchLimits(max_space=2))
    assert capped.optimum == 3


def test_complete_enumeration_respects_space_cap():
    with pytest.raises(Infeasible):
        _least_cost_reference(pyramid(2), max_space=1)


def test_space_capped_search_matches_complete_enumeration():
    rng = random.Random(31)
    for _ in range(30):
        g = layered_random(rng.randint(3, 8), rng.randrange(1 << 30))
        limits = SearchLimits(max_space=rng.randint(1, 3))
        outcomes = []
        for complete in (False, True):
            try:
                if complete:
                    r = _least_cost_reference(g, max_space=limits.max_space)
                else:
                    r = exact_pcc(g, limits=limits)
            except Infeasible:
                outcomes.append(None)
                continue
            assert_sound(g, r)
            assert cost(r.witness).max_space <= limits.max_space
            outcomes.append(r.optimum)
        assert outcomes[0] == outcomes[1], (g.edges, limits.max_space)


def test_unachievable_seed_is_infeasible():
    # the seed contract requires an achievable bound; lying below the
    # optimum prunes everything rather than returning a wrong value
    with pytest.raises(Infeasible):
        exact_pcc(pyramid(2), limits=SearchLimits(upper_bound_seed=2))


def test_negative_limits_rejected():
    for field in ("max_nodes", "max_states", "max_space", "time_budget"):
        with pytest.raises(ValueError, match=field):
            SearchLimits(**{field: -1})
    with pytest.raises(ValueError, match="time_budget"):
        SearchLimits(time_budget=float("nan"))  # would never expire
    assert SearchLimits(time_budget=0.0).time_budget == 0.0


def test_bad_mode():
    with pytest.raises(ValueError):
        exact_pcc(chain(3), mode="fast")
