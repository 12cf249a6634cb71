import hashlib
import random
from itertools import combinations

import pytest

from pebblecc import depth_reduce
from pebblecc.depth_reduce import (
    greedy_reduce,
    is_reducible,
    min_reducing_set,
    verify_set,
)
from pebblecc.graph import (
    OutOfRange,
    TooLarge,
    build_dag,
    chain,
    complete,
    depth,
    layered_random,
    pyramid,
)
from pebblecc.reductions import vc_to_reducible


def edge_list_depth(g, removed, convention):
    """Longest path of g - removed, read straight off the edge list.

    Independent of the package's depth DP: edges are relaxed in order of
    their head, which is topological because every edge goes label-forward.
    """
    f = {v: 1 for v in range(1, g.n + 1) if v not in removed}
    for u, v in sorted(g.edges, key=lambda e: (e[1], e[0])):
        if u in f and v in f:
            f[v] = max(f[v], f[u] + 1)
    nodes = max(f.values(), default=0)
    return max(nodes - 1, 0) if convention == "edges" else nodes


def brute_min(g, d, convention):
    """Exhaustive minimum removal-set size; the independent oracle."""
    nodes = range(1, g.n + 1)
    for size in range(0, g.n + 1):
        for s in combinations(nodes, size):
            if edge_list_depth(g, set(s), convention) <= d:
                return size
    raise AssertionError


def min_vertex_cover(n, edges):
    for size in range(n + 1):
        for s in combinations(range(1, n + 1), size):
            if all(a in s or b in s for a, b in edges):
                return size
    raise AssertionError


def test_chain5_middle_node():
    r = is_reducible(chain(5), e=1, d=2, convention="nodes")
    assert r.reducible
    assert r.witness_set == frozenset({3})
    assert r.residual_depth == 2
    assert r.convention == "nodes"


def test_zero_budget_mirrors_depth():
    assert is_reducible(chain(3), e=0, d=3, convention="nodes").reducible
    r = is_reducible(chain(3), e=0, d=2, convention="nodes")
    assert not r.reducible
    assert r.witness_set is None
    assert r.residual_depth == 3


def test_full_budget_always_reducible():
    for g in (chain(4), pyramid(3), complete(3)):
        r = is_reducible(g, e=g.n, d=0, convention="nodes")
        assert r.reducible
        assert r.witness_set == frozenset(range(1, g.n + 1))
        assert r.residual_depth == 0


def test_min_reducing_set_chain9():
    e_min, s = min_reducing_set(chain(9), d=2, convention="nodes")
    assert e_min == 3
    assert verify_set(chain(9), s, 2, "nodes")


def test_min_reducing_set_complete4():
    e_min, s = min_reducing_set(complete(4), d=1, convention="nodes")
    assert e_min == 3
    assert verify_set(complete(4), s, 1, "nodes")


def test_min_reducing_set_trivial():
    assert min_reducing_set(chain(6), d=6, convention="nodes") == (0, frozenset())


def test_edge_convention():
    # depth <= 1 edge means components of at most two path nodes
    r = is_reducible(chain(5), e=1, d=1, convention="edges")
    assert r.reducible and r.witness_set == frozenset({3})
    # breaking every edge of a 5-chain takes two removals
    assert min_reducing_set(chain(5), d=0, convention="edges")[0] == 2
    assert min_reducing_set(chain(9), d=1, convention="edges")[0] == 3


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        is_reducible(chain(3), e=1, d=1, convention="vertices")
    # a negative depth bound is rejected, not searched for ever
    with pytest.raises(ValueError):
        min_reducing_set(chain(3), d=-1, convention="nodes")


def test_exact_matches_brute_force():
    graphs = [chain(7), pyramid(3), complete(5)] + [
        layered_random(8, seed=s) for s in range(6)
    ]
    for g in graphs:
        for convention in ("nodes", "edges"):
            for d in range(1, g.n + 1):
                expect = brute_min(g, d, convention)
                e_min, s = min_reducing_set(g, d, convention)
                assert e_min == expect
                assert verify_set(g, s, d, convention)
                # the decision agrees on both sides of the threshold
                assert is_reducible(g, e_min, d, convention).reducible
                if e_min > 0:
                    assert not is_reducible(g, e_min - 1, d, convention).reducible


def test_vc_gadgets_match_brute_force():
    # every vc_to_reducible gadget on at most 4 vertices, at the docstring's
    # two thresholds per convention: 75 edge sets, 300 cases
    cases = 0
    for v in range(1, 5):
        pairs = list(combinations(range(1, v + 1), 2))
        for r in range(len(pairs) + 1):
            for es in combinations(pairs, r):
                cover = min_vertex_cover(v, es)
                for convention, ds in (("nodes", (v, v + 1)), ("edges", (v + 1, v + 2))):
                    g, _ = vc_to_reducible(v, es, convention)
                    for d in ds:
                        e_min, s = min_reducing_set(g, d, convention)
                        assert e_min == len(s) == brute_min(g, d, convention) == cover
                        assert edge_list_depth(g, s, convention) <= d
                        r_at = is_reducible(g, e_min, d, convention)
                        assert r_at.reducible and r_at.witness_set == s
                        assert r_at.residual_depth == edge_list_depth(g, s, convention)
                        if e_min > 0:
                            assert not is_reducible(g, e_min - 1, d, convention).reducible
                        cases += 1
    assert cases == 300


def test_monotonicity():
    for seed in range(4):
        g = layered_random(9, seed=seed)
        for d in (1, 2, 3):
            e_min, _ = min_reducing_set(g, d, "nodes")
            assert is_reducible(g, e_min + 1, d, "nodes").reducible
            assert is_reducible(g, e_min, d + 1, "nodes").reducible


def test_greedy_reduce_examples():
    # all five nodes tie on path count; centrality steers the cut to the middle
    s = greedy_reduce(chain(5), d=2, convention="nodes")
    assert s == frozenset({3})
    assert verify_set(chain(5), s, 2, "nodes")
    assert greedy_reduce(chain(4), d=4, convention="nodes") == frozenset()
    assert greedy_reduce(chain(3), d=0, convention="nodes") == frozenset({1, 2, 3})
    with pytest.raises(ValueError, match="nonnegative"):
        greedy_reduce(chain(3), d=-1, convention="nodes")


def test_greedy_sandwich():
    for seed in range(8):
        g = layered_random(10, seed=100 + seed)
        for d in (1, 2, 3):
            s = greedy_reduce(g, d, "nodes")
            assert verify_set(g, s, d, "nodes")
            e_min, _ = min_reducing_set(g, d, "nodes")
            assert e_min <= len(s)


def test_greedy_prefers_busiest_node():
    # every maximum path of a pyramid runs through its apex region; on the
    # 3-level pyramid the unique top node carries all of them
    s = greedy_reduce(pyramid(3), d=2, convention="nodes")
    assert 6 in s


def test_verify_set_examples():
    assert verify_set(chain(5), {3}, 2, "nodes")
    assert not verify_set(chain(5), set(), 2, "nodes")
    assert verify_set(chain(5), {1, 2, 3, 4, 5}, 0, "nodes")
    with pytest.raises(OutOfRange):
        verify_set(chain(5), {99}, 2, "nodes")


def test_witness_residual_depth_is_recomputed():
    g = layered_random(12, seed=9)
    r = is_reducible(g, e=3, d=3, convention="nodes")
    if r.reducible:
        assert r.residual_depth == depth(g, "nodes", excluding=r.witness_set)
        assert r.residual_depth <= 3


def test_visit_cap_raises(monkeypatch):
    monkeypatch.setattr(depth_reduce, "_MAX_VISITS", 5)
    with pytest.raises(TooLarge):
        min_reducing_set(complete(8), d=1, convention="nodes")


def _visits(g, d, convention, monkeypatch):
    """The exact search-node count of min_reducing_set: the smallest
    _MAX_VISITS at which it does not raise, found by bisection."""

    def fits(cap):
        monkeypatch.setattr(depth_reduce, "_MAX_VISITS", cap)
        try:
            min_reducing_set(g, d, convention)
        except TooLarge:
            return False
        return True

    hi = 1
    while not fits(hi):
        hi *= 2
    lo = hi // 2  # fits(lo) is False, or lo is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    monkeypatch.undo()
    return hi


def depth_reduce_digests(graphs, ds, monkeypatch, visit_every=4):
    """Two sha256 digests, for each graph, convention and d in ds: one over
    the outputs (min_reducing_set, is_reducible at e = 0, 1, 2 and k - 1,
    greedy_reduce), and one over the exact visit count of every
    visit_every-th graph."""
    outputs, visits = [], []
    for i, g in enumerate(graphs):
        for convention in ("nodes", "edges"):
            for d in ds:
                k, s = min_reducing_set(g, d, convention)
                outputs.append(f"{i} {convention} {d}: {k} {sorted(s)}")
                for e in sorted({0, 1, 2, k - 1} - {-1}):
                    r = is_reducible(g, e, d, convention)
                    w = None if r.witness_set is None else sorted(r.witness_set)
                    outputs.append(f" e{e} {r.reducible} {w} {r.residual_depth}")
                outputs.append(f" greedy {sorted(greedy_reduce(g, d, convention))}\n")
                if i % visit_every == 0:
                    count = _visits(g, d, convention, monkeypatch)
                    visits.append(f"{i} {convention} {d}: {count}\n")
    return tuple(hashlib.sha256("".join(p).encode()).hexdigest() for p in (outputs, visits))


def vc_gadgets(max_v):
    """Every vc_to_reducible gadget on at most max_v vertices, both conventions."""
    out = []
    for v in range(1, max_v + 1):
        pairs = list(combinations(range(1, v + 1), 2))
        for r in range(len(pairs) + 1):
            for es in combinations(pairs, r):
                for convention in ("nodes", "edges"):
                    out.append(vc_to_reducible(v, es, convention)[0])
    return out


def seeded_dags(count, max_n, seed):
    """count random DAGs of 2..max_n nodes, each edge u < v drawn with a
    per-graph probability."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        edges = [(u, v) for v in range(2, n + 1) for u in range(1, v) if rng.random() < p]
        out.append(build_dag(n, edges))
    return out


def test_outputs_and_visit_counts_are_pinned(monkeypatch):
    """Witnesses, decisions and greedy sets, and apart from them the exact
    visit counts, on 64 graphs at d = 0..4 in both conventions."""
    graphs = vc_gadgets(3) + [chain(9), pyramid(4)] + seeded_dags(40, 12, seed=30)
    assert len(graphs) == 64
    outputs, visits = depth_reduce_digests(graphs, range(5), monkeypatch)
    assert outputs == "417f3aa1c9a58a7a610a5327fed90da467ff9eac97ae7c926928bc81603c311c"
    assert visits == "163da0306657988bbaf00eb39215eee2c13e0c74461f1e562aeeacf2a98120a3"


def test_single_cuts_match_brute_force():
    """The single-cut mask against a recount from the edge list for each
    node of keep, on random DAGs with random kept sets and on every vc
    gadget up to 4 vertices, at every allowed from 0 to depth + 1. At
    allowed = 0 only a one-node keep has a cut."""
    rng = random.Random(31)
    cases = 0
    for g in seeded_dags(80, 12, seed=31) + vc_gadgets(4):
        for keep in ((1 << g.n) - 1, rng.getrandbits(g.n), 1 << rng.randrange(g.n)):
            kept = [v for v in range(1, g.n + 1) if keep >> (v - 1) & 1]
            removed = set(range(1, g.n + 1)) - set(kept)
            top = edge_list_depth(g, removed, "nodes")
            for allowed in range(top + 2):
                cuts = depth_reduce._single_cuts(g, keep, allowed)
                if top <= allowed:
                    assert cuts is None
                    continue
                expect = sum(
                    1 << (w - 1)
                    for w in kept
                    if edge_list_depth(g, removed | {w}, "nodes") <= allowed
                )
                assert cuts == expect, (g.edges, keep, allowed)
                if allowed == 0:
                    assert bool(cuts) == (len(kept) == 1)
                cases += 1
    assert cases > 1000
