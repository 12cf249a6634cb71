import hashlib
import json
import random
import warnings
from itertools import combinations, combinations_with_replacement

import pytest

from pebblecc.b2lc import (
    B2lcInstance,
    B2lcWitness,
    ThreePartitionInstance,
    solve_3partition,
    solve_b2lc,
)
from pebblecc.graph import build_dag, chain, depth, pyramid
from pebblecc.pebbling import Pebbling, pebbling_to_json, random_legal_pebbling
from pebblecc.reductions import (
    AmbiguousSink,
    DegenerateEquation,
    InvalidWitness,
    NotDivisibleWarning,
    ReductionLayout,
    default_tau,
    amplifier_chain_length,
    append_chain,
    b2lc_to_graph,
    counterexample_dag,
    layout_to_json,
    reduce_indegree,
    reduction_pebbling,
    sync_normalize,
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


# ---------------------------------------------------------------------------
# Reference constructions: the gadget builders as they stood when node ids
# came from a counter and a string-keyed label map. They are the oracle for
# the closed-form ids of ReductionLayout and vc_to_reducible.


def _reference_b2lc_to_graph(inst, tau=None):
    """(graph, tau, c, label_map) of the covering gadget, one string per node."""
    offsets = [c_i for _, c_i, _ in inst.equations]
    c = sum(offsets)
    if c < 1:
        raise ValueError("the offsets sum to 0; the gadget needs c >= 1")
    for idx, c_i in enumerate(offsets):
        if c_i >= c:
            raise DegenerateEquation(idx)
    if tau is None:
        tau = default_tau(inst)
    if tau < 1:
        raise ValueError(f"need tau >= 1, got {tau}")

    n, m, k = inst.n_vars, inst.m, inst.k
    label_map = {}
    nid = 0

    def fresh(coord):
        nonlocal nid
        nid += 1
        label_map[coord] = nid
        return nid

    edges = []
    for i in range(1, n + 1):
        for j in range(1, tau + 1):
            prev = None
            for z in range(1, c + 1):
                cur = fresh(f"C/{i}/{j}/{z}")
                if prev is not None:
                    edges.append((prev, cur))
                prev = cur
    for i in range(1, k + 1):
        alpha, c_i, beta = inst.equations[i - 1]
        prev = None
        for a in range(1, c - c_i + 1):
            cur = fresh(f"E/{i}/{a}")
            if prev is not None:
                edges.append((prev, cur))
            for l in range(1, tau + 1):
                edges.append((label_map[f"C/{alpha}/{l}/{a}"], cur))
                edges.append((label_map[f"C/{beta}/{l}/{a + c_i}"], cur))
            prev = cur
    for i in range(1, n + 1):
        prev = None
        for p in range(1, c * m + 1):
            cur = fresh(f"M/{i}/{p}")
            if prev is not None:
                edges.append((prev, cur))
            p_local = (p - 1) % c + 1
            for j in range(1, tau + 1):
                edges.append((label_map[f"C/{i}/{j}/{p_local}"], cur))
            prev = cur
    sink = fresh("sink")
    for i in range(1, k + 1):
        edges.append((label_map[f"E/{i}/{c - offsets[i - 1]}"], sink))
    for i in range(1, n + 1):
        edges.append((label_map[f"M/{i}/{c * m}"], sink))

    expected = tau * n * c + sum(c - c_i for c_i in offsets) + n * c * m + 1
    assert nid == expected, f"node count {nid} != formula {expected}"
    return build_dag(nid, edges), tau, c, label_map


def _reference_sync_normalize(label_map, n_vars, tau, c, p):
    """sync_normalize over the string label map, with its reverse dict."""
    copies = range(1, tau + 1)
    where = {
        label_map[f"C/{i}/{j}/{z}"]: (i, j, z)
        for i in range(1, n_vars + 1)
        for j in copies
        for z in range(1, c + 1)
    }
    load = {}
    for rnd in p.rounds:
        for v in rnd:
            if v in where:
                i, j, _ = where[v]
                load[i, j] = load.get((i, j), 0) + 1
    best = {i: min(copies, key=lambda j: load.get((i, j), 0)) for i in range(1, n_vars + 1)}
    new_rounds = []
    for rnd in p.rounds:
        kept = [v for v in rnd if v not in where]
        for v in rnd:
            if v in where:
                i, j, z = where[v]
                if j == best[i]:
                    kept.extend(label_map[f"C/{i}/{k}/{z}"] for k in copies)
        new_rounds.append(tuple(kept))
    return Pebbling(rounds=tuple(new_rounds), mode=p.mode)


def _reference_vc_to_reducible(n, edges, convention="nodes"):
    if convention not in ("nodes", "edges"):
        raise ValueError(f"unknown length convention {convention!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    undirected = set()
    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise ValueError(f"bad undirected edge ({a}, {b})")
        undirected.add((min(a, b), max(a, b)))

    extra = 1 if convention == "edges" else 0
    out_edges = []
    vertex_id = {}
    nid = 0
    for i in range(1, n + 1):
        in_len = (n - i) + extra
        prev = None
        for _ in range(in_len):
            nid += 1
            if prev is not None:
                out_edges.append((prev, nid))
            prev = nid
        nid += 1
        vertex_id[i] = nid
        if prev is not None:
            out_edges.append((prev, nid))
        prev = nid
        out_len = (i - 1) + extra
        for _ in range(out_len):
            nid += 1
            out_edges.append((prev, nid))
            prev = nid
    for a, b in sorted(undirected):
        out_edges.append((vertex_id[a], vertex_id[b]))
    return build_dag(nid, out_edges), frozenset(vertex_id.values())


def _assert_layout_matches_reference(inst, tau, pebblings):
    layout = b2lc_to_graph(inst, tau)
    graph, ref_tau, c, label_map = _reference_b2lc_to_graph(inst, tau)
    assert (layout.graph, layout.tau, layout.c) == (graph, ref_tau, c)
    assert list(layout.label_map.items()) == list(label_map.items())
    assert layout.sink_id == label_map["sink"]
    for p in pebblings(layout.graph):
        want = _reference_sync_normalize(label_map, inst.n_vars, ref_tau, c, p)
        assert sync_normalize(layout, p) == want
    return layout


def _random_rounds(g, seed, t=3):
    """t rounds of random node ids: sync_normalize is a pure id transform, so
    the pebbling it reads need not be legal."""
    rng = random.Random(seed)
    return Pebbling(rounds=tuple(
        tuple(v for v in range(1, g.n + 1) if rng.random() < 0.3) for _ in range(t)
    ))


def test_gadget_matches_reference_on_reduction_chain_instances():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        insts = [
            threepartition_to_b2lc(ThreePartitionInstance(elements=elems, n=n))
            for n in (1, 2)
            for elems in combinations_with_replacement(range(1, 5), 3 * n)
        ]
    assert len(insts) == 104
    seed = 0
    for inst in insts:
        for tau in (1, 2, 3):
            _assert_layout_matches_reference(
                inst, tau, lambda g: [_random_rounds(g, seed % 20)]
            )
            seed += 1


def test_sync_matches_reference_on_random_legal_pebblings():
    for inst in (
        B2lcInstance(n_vars=3, m=1, equations=((1, 1, 2), (2, 2, 3))),
        B2lcInstance(n_vars=2, m=1, equations=((1, 1, 2), (2, 1, 1))),
        B2lcInstance(n_vars=2, m=2, equations=((1, 2, 2), (1, 1, 2))),
    ):
        for tau in (1, 2, 3):
            _assert_layout_matches_reference(
                inst, tau, lambda g: [random_legal_pebbling(g, seed=s) for s in range(20)]
            )


def test_default_tau_gadget_matches_reference():
    # 4 variables, budget 2, offsets summing to 7: default tau 226, 6,406 nodes
    inst = B2lcInstance(n_vars=4, m=2, equations=((1, 2, 2), (2, 1, 3), (3, 3, 4), (4, 1, 1)))
    layout = _assert_layout_matches_reference(
        inst, None, lambda g: [_random_rounds(g, s) for s in range(2)]
    )
    assert (layout.tau, layout.graph.n) == (226, 6406)


def test_vc_gadget_matches_reference_on_every_small_graph():
    for v in range(1, 6):
        pairs = list(combinations(range(1, v + 1), 2))
        for r in range(len(pairs) + 1):
            for es in combinations(pairs, r):
                for convention in ("nodes", "edges"):
                    got = vc_to_reducible(v, es, convention)
                    assert got == _reference_vc_to_reducible(v, es, convention)


def test_gadget_errors_match_reference():
    for build, reference, args in [
        *((b2lc_to_graph, _reference_b2lc_to_graph, a) for a in [
            (B2lcInstance(n_vars=2, m=1, equations=((1, 0, 2),)), None),
            (B2lcInstance(n_vars=2, m=1, equations=((1, 3, 2), (2, 0, 1))), 2),
            (B2lcInstance(n_vars=2, m=1, equations=((1, 1, 2), (2, 1, 1))), 0),
        ]),
        *((vc_to_reducible, _reference_vc_to_reducible, a) for a in [
            (0, []), (2, [(1, 1)]), (2, [(1, 3)]), (2, [], "hops"),
        ]),
    ]:
        with pytest.raises(ValueError) as got:
            build(*args)
        with pytest.raises(ValueError) as want:
            reference(*args)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_reduction_pebbling_outputs_are_pinned():
    """One digest of the schedules, or InvalidWitness messages, that
    reduction_pebbling gives on the reduction-chain yes-instances (every
    3-partition ladder over 1..4 with n <= 2 that solve_b2lc covers) at
    tau = 1 and 2. Each instance runs its solver witness and four planted
    ones: every claimed row moved to the next, claimed rows out of range
    (0 and m + 1 in turn), row y shifted up by y, and all-zero rows, which
    cover no equation of a ladder."""
    record = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (1, 2):
            for elems in combinations_with_replacement(range(1, 5), 3 * n):
                inst = threepartition_to_b2lc(ThreePartitionInstance(elements=elems, n=n))
                covered, w = solve_b2lc(inst)
                if not covered:
                    continue
                m = inst.m
                planted = [
                    w,
                    B2lcWitness(tuple(y % m + 1 for y in w.group_of), w.values),
                    B2lcWitness(tuple((0, m + 1)[i % 2] for i in range(inst.k)), w.values),
                    B2lcWitness(w.group_of, tuple(
                        tuple(x + y for x in row) for y, row in enumerate(w.values, start=1)
                    )),
                    B2lcWitness(w.group_of, ((0,) * inst.n_vars,) * m),
                ]
                for tau in (1, 2):
                    layout = b2lc_to_graph(inst, tau=tau)
                    for pw in planted:
                        try:
                            record.append(pebbling_to_json(reduction_pebbling(layout, pw)))
                        except InvalidWitness as exc:
                            record.append(f"InvalidWitness: {exc}")
    assert len(record) == 590
    assert sum(r.startswith("InvalidWitness") for r in record) == 118
    digest = hashlib.sha256("\n".join(record).encode()).hexdigest()
    assert digest == "b1d3069c8f21baef6c1edf2fc9abf997a54fe50d45de3f48dc3dad96ecb25234"
