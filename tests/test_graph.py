import random

import networkx as nx
import pytest

from pebblecc import reductions
from pebblecc.b2lc import B2lcInstance
from pebblecc.depth_reduce import greedy_reduce, is_reducible, min_reducing_set, verify_set
from pebblecc.graph import (
    BackwardEdge,
    OutOfRange,
    build_dag,
    chain,
    complete,
    dag_from_json,
    dag_to_json,
    depth,
    layered_random,
    mask_of,
    nodes_of,
    pyramid,
)
from pebblecc.reductions import counterexample_dag, vc_to_reducible


def test_mask_codec_round_trips():
    assert (mask_of(()), nodes_of(0)) == (0, ())
    assert (mask_of((1, 3, 4)), nodes_of(0b1101)) == (0b1101, (1, 3, 4))
    rng = random.Random(5)
    for _ in range(200):
        nodes = tuple(sorted(rng.sample(range(1, 40), rng.randint(0, 10))))
        assert nodes_of(mask_of(nodes)) == nodes
    g = counterexample_dag()
    assert nodes_of(g.sink_mask) == g.sinks


def test_build_chain_of_three():
    g = build_dag(3, [(1, 2), (2, 3)])
    assert g.n == 3
    assert g.edges == ((1, 2), (2, 3))
    assert g.sources == (1,)
    assert g.sinks == (3,)


def test_build_rejects_backward_edge():
    with pytest.raises(BackwardEdge):
        build_dag(2, [(2, 1)])
    with pytest.raises(BackwardEdge):
        build_dag(2, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        build_dag(2, [(1, 3)])
    with pytest.raises(OutOfRange):
        build_dag(2, [(0, 2)])
    for v in (0, 3):
        with pytest.raises(OutOfRange):
            chain(2).parents(v)


def test_build_dedupes_edges():
    g = build_dag(3, [(1, 2), (1, 2), (2, 3)])
    assert g.edges == ((1, 2), (2, 3))


def test_counterexample_dag_has_22_edges():
    g = counterexample_dag()
    assert g.n == 16
    assert len(g.edges) == 22
    # 15 chain edges, 5 skip-9 edges, 2 skip-7 edges
    assert g.parents(10) == {9, 1}
    assert g.parents(15) == {14, 8}
    assert g.sinks == (16,)


def test_depth_conventions_on_chain():
    g = chain(5)
    assert depth(g, "nodes") == 5
    assert depth(g, "edges") == 4


def test_depth_counterexample_is_16():
    assert depth(counterexample_dag(), "nodes") == 16


def test_depth_excluding():
    g = chain(5)
    assert depth(g, "nodes", excluding={3}) == 2
    assert depth(g, "nodes", excluding={1, 2, 3, 4, 5}) == 0
    assert depth(g, "edges", excluding={1, 2, 3, 4, 5}) == 0


def test_depth_rejects_unknown_convention():
    # every reader of a length convention checks it by one rule, with one message
    g = chain(2)
    readers = (
        lambda c: depth(g, c),
        lambda c: is_reducible(g, 1, 1, c),
        lambda c: min_reducing_set(g, 1, c),
        lambda c: greedy_reduce(g, 1, c),
        lambda c: verify_set(g, {1}, 1, c),
        lambda c: vc_to_reducible(2, [(1, 2)], c),
    )
    for read in readers:
        with pytest.raises(ValueError, match="unknown length convention 'hops'"):
            read("hops")


def test_generators_small():
    assert chain(3).edges == ((1, 2), (2, 3))
    assert chain(1).n == 1 and chain(1).edges == ()
    p2 = pyramid(2)
    assert p2.n == 3 and len(p2.edges) == 2
    assert p2.sinks == (3,) and len(p2.parents(3)) == 2
    p3 = pyramid(3)
    assert p3.n == 6 and len(p3.edges) == 6
    assert complete(4).edges == tuple(
        (u, v) for u in range(1, 5) for v in range(u + 1, 5)
    )


@pytest.mark.parametrize(
    "make", [chain, pyramid, complete, lambda n: layered_random(n, 0)],
    ids=["chain", "pyramid", "complete", "layered_random"],
)
@pytest.mark.parametrize("size", [0, -1])
def test_generators_reject_size_below_one(make, size):
    with pytest.raises(ValueError, match=">= 1"):
        make(size)


def test_pyramid_shape_properties():
    for k in range(1, 8):
        g = pyramid(k)
        assert g.n == k * (k + 1) // 2
        assert len(g.sinks) == 1
        assert len(g.sources) == k
        assert depth(g, "nodes") == k


def test_layered_random_deterministic():
    a = layered_random(20, seed=7)
    b = layered_random(20, seed=7)
    assert a == b
    assert layered_random(20, seed=8) != a
    # spine always present, indegree at most 2
    for i in range(2, 21):
        assert i - 1 in a.parents(i)
        assert len(a.parents(i)) <= 2


def test_json_export_round_trip():
    g = chain(2)
    assert dag_to_json(g) == '{"n": 2, "edges": [[1, 2]]}'
    assert dag_from_json(dag_to_json(g)) == g


def test_json_round_trip_random_layered():
    for seed in range(100):
        g = layered_random(random.Random(seed).randint(1, 40), seed=seed)
        assert dag_from_json(dag_to_json(g)) == g


def test_topological_labels_everywhere():
    graphs = [chain(6), pyramid(4), complete(5), counterexample_dag()]
    graphs += [layered_random(15, seed=s) for s in range(5)]
    for g in graphs:
        assert all(u < v for u, v in g.edges)
        assert depth(g, "nodes") == depth(g, "edges") + 1


def test_depth_matches_networkx():
    # independent oracle: networkx longest path counts edges
    for seed in range(30):
        g = layered_random(1 + seed, seed=seed)
        h = nx.DiGraph()
        h.add_nodes_from(range(1, g.n + 1))
        h.add_edges_from(g.edges)
        assert depth(g, "edges") == nx.dag_longest_path_length(h)
        # the bit tables mirror the sets, bit v-1 for node v
        for v in range(1, g.n + 1):
            assert g.parent_masks[v] == sum(1 << (u - 1) for u in g.parent_sets[v])
        assert g.parent_masks[0] == 0
        assert g.sink_mask == sum(1 << (s - 1) for s in g.sinks)
        # depth of an induced subgraph; ids outside [1, n] are ignored
        rng = random.Random(seed)
        for _ in range(5):
            s = {v for v in range(-1, g.n + 3) if rng.random() < 0.3}
            sub = h.subgraph(set(h) - s)
            expect = nx.dag_longest_path_length(sub) + 1 if len(sub) else 0
            assert depth(g, "nodes", excluding=s) == expect
            assert depth(g, "edges", excluding=s) == max(expect - 1, 0)
            # parents_of and children_of OR the sets over a mask's nodes;
            # a complemented mask reads as the nodes outside it
            mask = rng.getrandbits(g.n)
            held = set(nodes_of(mask))
            for m, inside in ((mask, held), (~mask, set(range(1, g.n + 1)) - held)):
                assert g.parents_of(m) == mask_of(set().union(*(g.parent_sets[v] for v in inside)))
                assert g.children_of(m) == mask_of(set().union(*(g.child_sets[v] for v in inside)))
            # the nodes whose parents all lie in mask
            ready = ~g.children_of(~mask) & (1 << g.n) - 1
            assert nodes_of(ready) == tuple(v for v in range(1, g.n + 1) if g.parent_sets[v] <= held)


def test_depth_is_linear_in_the_graph():
    """depth reads parent_sets: on a long chain it builds no bit table,
    whose masks would hold n^2 / 2 bits."""
    g = chain(200_000)
    assert depth(g, "nodes") == 200_000
    assert depth(g, "edges", excluding={100_000}) == 99_999
    assert "parent_masks" not in vars(g)


# ---------------------------------------------------------------------------
# Reference construction: build_dag and the Dag tables as they stood when
# build_dag checked both ends of each edge in turn, then sorted a set, and
# each table was filled one set.add per edge. They are the oracle for the
# one check per edge and the sort in input order.


def _reference_build_dag(n, edges):
    """The sorted edge tuple of the Dag, or the exception the old build_dag
    raised."""
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    seen = set()
    for u, v in edges:
        for x in (u, v):
            if not 1 <= x <= n:
                raise OutOfRange(x, n)
        if u >= v:
            raise BackwardEdge(u, v)
        seen.add((u, v))
    return tuple(sorted(seen))


def _reference_tables(n, edges):
    """(parent_sets, child_sets, sinks, sources) of the Dag (n, edges)."""
    ps = [set() for _ in range(n + 1)]
    cs = [set() for _ in range(n + 1)]
    for u, v in edges:
        ps[v].add(u)
        cs[u].add(v)
    sinks = tuple(v for v in range(1, n + 1) if not cs[v])
    sources = tuple(v for v in range(1, n + 1) if not ps[v])
    return tuple(map(frozenset, ps)), tuple(map(frozenset, cs)), sinks, sources


def _edge_corpus(count, seed):
    """(n, edges) cases: forward edges with duplicates, in shuffled order,
    some as lists; every third case also has bad edges (an endpoint out of
    range, a backward edge or a loop) at random places, and a few n < 1."""
    rng = random.Random(seed)
    cases = [(0, []), (-2, [(1, 2)]), (1, []), (1, [(1, 1)]), (3, [(2, 1), (0, 4)])]
    for i in range(count):
        n = rng.randint(1, 30)
        pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v) if rng.random() < 0.3]
        edges = pairs + rng.choices(pairs, k=len(pairs) // 3) if pairs else []
        rng.shuffle(edges)
        edges = [list(e) if rng.random() < 0.2 else e for e in edges]
        if i % 3 == 0:
            for _ in range(rng.randint(1, 3)):
                u, v = rng.randint(1, n), rng.randint(1, n)
                bad = rng.choice([(0, v), (u, n + 1), (-u, n + 5), (v, u), (u, u), (n + 2, 0)])
                edges.insert(rng.randint(0, len(edges)), bad)
        cases.append((n, edges))
    return cases


def _assert_build_matches_reference(n, edges):
    try:
        want = _reference_build_dag(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build_dag(n, edges)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc)), (n, edges)
        return None
    g = build_dag(n, edges)
    assert (g.n, g.edges) == (n, want), (n, edges)
    assert (g.parent_sets, g.child_sets, g.sinks, g.sources) == _reference_tables(n, edges)
    return g


def test_build_matches_reference_on_seeded_edge_lists():
    cases = _edge_corpus(300, seed=11)
    built = sum(_assert_build_matches_reference(n, edges) is not None for n, edges in cases)
    assert 0 < built < len(cases)
    # edges may be any iterable of pairs, a generator too
    g = build_dag(4, ((u, u + 1) for u in (3, 1, 2, 1)))
    assert g.edges == ((1, 2), (2, 3), (3, 4))


def test_build_matches_reference_on_the_default_tau_gadget(monkeypatch):
    """The 27,649 edges, in the order ReductionLayout emits them, shuffled
    and reversed, with a bad edge near the end."""
    emitted = []

    def capture(n, edges):
        emitted.append((n, list(edges)))
        return build_dag(n, emitted[-1][1])

    monkeypatch.setattr(reductions, "build_dag", capture)
    inst = B2lcInstance(n_vars=4, m=2, equations=((1, 2, 2), (2, 1, 3), (3, 3, 4), (4, 1, 1)))
    layout = reductions.b2lc_to_graph(inst)
    [(n, edges)] = emitted
    assert (n, len(edges)) == (6406, 27_649)
    shuffled = edges[:]
    random.Random(3).shuffle(shuffled)
    for order in (edges, shuffled, edges[::-1]):
        assert _assert_build_matches_reference(n, order) == layout.graph
    _assert_build_matches_reference(n, edges[:-5] + [(n, n + 1)] + edges[-5:] + [(2, 1)])
