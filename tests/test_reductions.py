import json
import random

import pytest

from pebblecc.b2lc import B2lcInstance, ThreePartitionInstance, solve_3partition, solve_b2lc
from pebblecc.graph import build_dag, chain, depth, pyramid
from pebblecc.reductions import (
    AmbiguousSink,
    DegenerateEquation,
    NotDivisibleWarning,
    ReductionLayout,
    amplifier_chain_length,
    append_chain,
    b2lc_to_graph,
    counterexample_dag,
    default_tau,
    layout_to_json,
    reduce_indegree,
    threepartition_to_b2lc,
    vc_to_reducible,
)


def verify_layout(layout: ReductionLayout) -> None:
    """Re-verify every structural invariant of a gadget layout from scratch."""
    inst, g, tau, c = layout.instance, layout.graph, layout.tau, layout.c
    n, m, k = inst.n_vars, inst.m, inst.k
    offsets = [ci for _, ci, _ in inst.equations]
    assert c == sum(offsets)
    expected_nodes = tau * n * c + sum(c - ci for ci in offsets) + n * c * m + 1
    assert g.n == expected_nodes
    assert sorted(layout.label_map.values()) == list(range(1, g.n + 1))

    for i in range(1, n + 1):
        for j in range(1, tau + 1):
            assert g.parents(layout.var_chain(i, j, 1)) == frozenset()
            for z in range(2, c + 1):
                assert g.parents(layout.var_chain(i, j, z)) == {
                    layout.var_chain(i, j, z - 1)
                }
    for i in range(1, k + 1):
        alpha, ci, beta = inst.equations[i - 1]
        for a in range(1, c - ci + 1):
            want = {layout.var_chain(alpha, l, a) for l in range(1, tau + 1)}
            want |= {layout.var_chain(beta, l, a + ci) for l in range(1, tau + 1)}
            if a > 1:
                want.add(layout.eq_chain(i, a - 1))
            assert g.parents(layout.eq_chain(i, a)) == want
    for i in range(1, n + 1):
        for p in range(1, c * m + 1):
            p_local = (p - 1) % c + 1
            want = {layout.var_chain(i, j, p_local) for j in range(1, tau + 1)}
            if p > 1:
                want.add(layout.path_node(i, p - 1))
            assert g.parents(layout.path_node(i, p)) == want
    want_sink = {layout.eq_chain(i, c - offsets[i - 1]) for i in range(1, k + 1)}
    want_sink |= {layout.path_node(i, c * m) for i in range(1, n + 1)}
    assert g.parents(layout.sink_id) == want_sink
    assert g.sinks == (layout.sink_id,)


def test_threepartition_reduction_n1():
    inst = threepartition_to_b2lc(ThreePartitionInstance(elements=(1, 2, 3), n=1))
    assert inst.n_vars == 4
    assert inst.m == 1
    assert inst.equations == ((1, 1, 2), (2, 2, 3), (3, 3, 4), (1, 6, 4))


def test_threepartition_reduction_n2_shape():
    inst = threepartition_to_b2lc(
        ThreePartitionInstance(elements=(1, 1, 1, 1, 1, 1), n=2)
    )
    assert inst.n_vars == 7
    assert inst.m == 2
    assert inst.k == 14  # 3n^2 + n
    # first closing equation ties x_1 + T/n to the last variable
    assert inst.equations[12] == (1, 3, 7)
    assert inst.equations[13] == (1, 3, 7)
    # spacer row is all zero offsets
    assert inst.equations[6:12] == tuple((i, 0, i + 1) for i in range(1, 7))


def test_threepartition_reduction_sorts_elements():
    inst = threepartition_to_b2lc(ThreePartitionInstance(elements=(3, 1, 2), n=1))
    assert inst.equations[:3] == ((1, 1, 2), (2, 2, 3), (3, 3, 4))


def test_threepartition_reduction_equation_count():
    for n in (1, 2, 3):
        elems = tuple([2] * (3 * n))
        inst = threepartition_to_b2lc(ThreePartitionInstance(elements=elems, n=n))
        assert inst.k == 3 * n * n + n
        assert inst.n_vars == 3 * n + 1


def test_threepartition_reduction_not_divisible_scales():
    p = ThreePartitionInstance(elements=(1, 1, 1, 1, 1, 2), n=2)  # T = 7
    with pytest.warns(NotDivisibleWarning):
        inst = threepartition_to_b2lc(p)
    # every constant got scaled by n = 2, keeping T'/n integral
    assert inst.equations[:6] == tuple(
        (i, c, i + 1) for i, c in zip(range(1, 7), (2, 2, 2, 2, 2, 4))
    )
    assert inst.equations[12] == (1, 7, 7)


def test_worked_gadget_node_count():
    inst = B2lcInstance(n_vars=2, m=2, equations=((1, 1, 2), (1, 2, 2)))
    layout = b2lc_to_graph(inst, tau=2)
    assert layout.c == 3
    assert layout.graph.n == 28
    verify_layout(layout)
    assert default_tau(inst) == 50
    assert b2lc_to_graph(inst).tau == 50


def test_equation_chain_parent_rule():
    # equation 1 reads x_3 + 2 = x_1, so its first node hangs off position 1
    # of variable 3's chains and position 3 of variable 1's chains
    inst = B2lcInstance(n_vars=3, m=2, equations=((3, 2, 1), (1, 1, 2)))
    layout = b2lc_to_graph(inst, tau=2)
    want = {layout.var_chain(3, l, 1) for l in (1, 2)}
    want |= {layout.var_chain(1, l, 3) for l in (1, 2)}
    assert layout.graph.parents(layout.eq_chain(1, 1)) == want
    verify_layout(layout)


def test_gadget_invariants_small_family():
    rng = random.Random(5)
    for _ in range(15):
        n_vars = rng.randint(2, 3)
        k = rng.randint(2, 4)
        eqs = []
        for _ in range(k):
            a, b = rng.sample(range(1, n_vars + 1), 2)
            eqs.append((a, rng.randint(0, 2), b))
        if sum(c for _, c, _ in eqs) < 1:
            continue
        if any(c >= sum(x for _, x, _ in eqs) for _, c, _ in eqs):
            continue
        inst = B2lcInstance(n_vars=n_vars, m=rng.randint(1, 2), equations=tuple(eqs))
        verify_layout(b2lc_to_graph(inst, tau=rng.randint(1, 3)))


def test_gadget_rejects_degenerate_equation():
    inst = B2lcInstance(n_vars=2, m=1, equations=((1, 3, 2), (2, 0, 1)))
    with pytest.raises(DegenerateEquation):
        b2lc_to_graph(inst)
    zero = B2lcInstance(n_vars=2, m=1, equations=((1, 0, 2),))
    with pytest.raises(ValueError):
        b2lc_to_graph(zero)


def test_lemma_bound_value():
    inst = B2lcInstance(n_vars=2, m=2, equations=((1, 1, 2), (1, 2, 2)))
    layout = b2lc_to_graph(inst, tau=50)
    assert layout.pebbling_cost_bound() == 649  # 600 + 24 + 24 + 1


def test_layout_json_labels():
    inst = B2lcInstance(n_vars=2, m=1, equations=((1, 1, 2), (2, 2, 1)))
    layout = b2lc_to_graph(inst, tau=1)
    data = json.loads(layout_to_json(layout))
    assert data["labels"]["sink"] == layout.graph.n
    assert data["tau"] == 1
    assert data["graph"]["n"] == layout.graph.n
    assert data["labels"]["C/1/1/1"] == 1


def test_reduction_agreement_breaks_without_promise():
    # classic failure mode: the covering image is satisfiable even though the
    # 3-partition answer is no, because the promise bounds are violated
    p = ThreePartitionInstance(elements=(1, 1, 2, 4, 4, 4), n=2)
    assert not p.promise_satisfied
    assert not solve_3partition(p)[0]
    assert solve_b2lc(threepartition_to_b2lc(p))[0]


def test_reduction_agreement_on_promise_instances():
    # spot checks ahead of the exhaustive acceptance run
    for elems, n in [
        ((1, 1, 1), 1),
        ((2, 2, 3), 1),
        ((1, 1, 1, 1, 1, 1), 2),
        ((2, 2, 2, 2, 2, 3), 2),
        ((3, 3, 3, 3, 4, 4), 2),
    ]:
        p = ThreePartitionInstance(elements=elems, n=n)
        assert p.promise_satisfied
        want = solve_3partition(p)[0]
        with pytest.warns(NotDivisibleWarning) if p.total % n else _nullcontext():
            inst = threepartition_to_b2lc(p)
        assert solve_b2lc(inst)[0] == want


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def test_vc_single_edge():
    dag, originals = vc_to_reducible(2, [(1, 2)])
    # vertex 1: in-chain of 1, no out-chain; vertex 2: no in-chain, out-chain of 1
    assert dag.n == 4
    assert originals == {2, 3}
    assert dag.edges == ((1, 2), (2, 3), (3, 4))
    # the edge path is longer than the bare 2-node vertex path
    assert depth(dag, "nodes") == 4


def test_vc_k3():
    dag, originals = vc_to_reducible(3, [(1, 2), (2, 3), (1, 3)])
    assert dag.n == 9
    assert len(originals) == 3
    ids = sorted(originals)
    forward = {(ids[0], ids[1]), (ids[1], ids[2]), (ids[0], ids[2])}
    assert forward <= set(dag.edges)


def test_vc_empty_graph_two_vertices():
    dag, originals = vc_to_reducible(2, [])
    assert dag.n == 4
    assert set(dag.edges) == {(1, 2), (3, 4)}
    assert depth(dag, "nodes") == 2


def test_vc_edges_convention_adds_one_node_per_chain():
    nodes_dag, _ = vc_to_reducible(3, [(1, 2)], convention="nodes")
    edges_dag, _ = vc_to_reducible(3, [(1, 2)], convention="edges")
    assert edges_dag.n == nodes_dag.n + 2 * 3
    with pytest.raises(ValueError):
        vc_to_reducible(2, [(1, 2)], convention="hops")
    with pytest.raises(ValueError):
        vc_to_reducible(2, [(1, 1)])


def test_reduce_indegree_four_parents():
    g = build_dag(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
    out = reduce_indegree(g, delta=2)
    assert out.n == 7  # two internal merge nodes added
    assert out.max_indeg <= 2


def test_reduce_indegree_identity_when_within_bound():
    g = pyramid(3)
    assert reduce_indegree(g, delta=2) is g
    with pytest.raises(ValueError):
        reduce_indegree(g, delta=1)


def test_reduce_indegree_added_node_count_matches_ceiling():
    for p, delta in [(4, 2), (5, 2), (7, 3), (10, 3), (6, 5)]:
        g = build_dag(p + 1, [(i, p + 1) for i in range(1, p + 1)])
        out = reduce_indegree(g, delta=delta)
        added = -(-(p - 1) // (delta - 1)) - 1
        assert out.n == p + 1 + added
        assert out.max_indeg <= delta


def _reachable(g, src):
    seen = {src}
    stack = [src]
    while stack:
        v = stack.pop()
        for w in g.child_sets[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_reduce_indegree_preserves_reachability():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 12)
        edges = []
        for v in range(2, n + 1):
            for u in rng.sample(range(1, v), min(v - 1, rng.randint(1, 5))):
                edges.append((u, v))
        g = build_dag(n, edges)
        out, mapping = reduce_indegree(g, delta=2, with_map=True)
        assert out.max_indeg <= 2
        original_images = {mapping[v] for v in range(1, n + 1)}
        for src in range(1, n + 1):
            orig = _reachable(g, src)
            img = _reachable(out, mapping[src])
            assert {mapping[v] for v in orig} == img & original_images


def test_append_chain():
    assert append_chain(chain(2), 3) == chain(5)
    g = append_chain(pyramid(2), 1)
    assert g.n == 4
    assert g.sinks == (4,)
    with pytest.raises(AmbiguousSink):
        append_chain(build_dag(2, []), 1)
    with pytest.raises(ValueError):
        append_chain(chain(2), 0)


def test_amplifier_chain_length():
    assert amplifier_chain_length(1) == 446
    assert amplifier_chain_length(2) == 2604
    assert amplifier_chain_length(10) == 301100


def test_counterexample_edges_exact():
    g = counterexample_dag()
    want = {(i, i + 1) for i in range(1, 16)}
    want |= {(i, i + 9) for i in range(1, 6)}
    want |= {(8, 15), (9, 16)}
    assert set(g.edges) == want
