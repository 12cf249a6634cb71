import random

import networkx as nx
import pytest

from pebblecc.graph import (
    BackwardEdge,
    OutOfRange,
    build_dag,
    chain,
    complete,
    dag_from_json,
    dag_to_json,
    depth,
    generate,
    layered_random,
    mask_of,
    nodes_of,
    pyramid,
)
from pebblecc.reductions import counterexample_dag


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
    with pytest.raises(ValueError):
        depth(chain(2), "hops")


def test_generators_small():
    assert chain(3).edges == ((1, 2), (2, 3))
    assert chain(1).n == 1 and chain(1).edges == ()
    p2 = pyramid(2)
    assert p2.n == 3 and len(p2.edges) == 2
    assert p2.sinks == (3,) and p2.indeg(3) == 2
    p3 = pyramid(3)
    assert p3.n == 6 and len(p3.edges) == 6
    assert complete(4).edges == tuple(
        (u, v) for u in range(1, 5) for v in range(u + 1, 5)
    )


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
        assert a.indeg(i) <= 2


def test_generate_dispatch():
    assert generate("chain", 4) == chain(4)
    with pytest.raises(ValueError):
        generate("torus", 4)


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
