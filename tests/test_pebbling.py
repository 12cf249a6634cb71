import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pebblecc import acceptance, b2lc, cli, depth_reduce, graph, lp, pebbling, reductions, search
from pebblecc.b2lc import B2lcInstance, B2lcWitness, check_witness, solve_b2lc
from pebblecc.graph import OutOfRange, build_dag, chain, layered_random, pyramid
from pebblecc.pebbling import (
    Pebbling,
    cost,
    pebbling_from_json,
    pebbling_to_json,
    random_legal_pebbling,
    trivial_pebbling,
    validate,
)
from pebblecc.reductions import (
    InvalidWitness,
    b2lc_to_graph,
    claim_c1_pebbling,
    counterexample_dag,
    reduction_pebbling,
    sync_normalize,
)


def test_rounds_are_normalized():
    p = Pebbling(rounds=((3, 1, 3), (2,)))
    assert p.rounds == ((1, 3), (2,))
    assert p.t == 2


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        Pebbling(rounds=((1,),), mode="concurrent")


def test_trivial_pebbling_legal_and_costed():
    for g in (chain(5), pyramid(3), counterexample_dag()):
        p = trivial_pebbling(g)
        assert validate(g, p).legal
        assert cost(p).cc == g.n * (g.n + 1) // 2


def test_cost_report():
    r = cost(Pebbling(rounds=((1,), (1, 2), (2,))))
    assert (r.cc, r.st, r.t, r.max_space) == (4, 6, 3, 2)
    empty = cost(Pebbling(rounds=()))
    assert (empty.cc, empty.st, empty.t, empty.max_space) == (0, 0, 0, 0)


def test_missing_parent_reported():
    v = validate(chain(3), Pebbling(rounds=((2,),)))
    assert not v.legal
    assert v.first_violation == (1, 2, "missing_parent")


def test_missing_parent_beats_sequential_bound():
    # both new nodes are scanned for parents before the placement count
    g = build_dag(3, [(1, 3), (2, 3)])
    v = validate(g, Pebbling(rounds=((1, 3),), mode="sequential"))
    assert v.first_violation == (1, 3, "missing_parent")


def test_sequential_bound_reported():
    g = build_dag(3, [(1, 3), (2, 3)])
    v = validate(g, Pebbling(rounds=((1, 2),), mode="sequential"))
    assert v.first_violation == (1, 2, "sequential_bound")
    # the same rounds are fine in parallel mode, apart from the sink
    v2 = validate(g, Pebbling(rounds=((1, 2), (3,))))
    assert v2.legal


def test_unpebbled_sink_reported():
    v = validate(chain(3), Pebbling(rounds=((1,), (2,))))
    assert v.first_violation == (2, 3, "sink_unpebbled")


def test_node_out_of_range_is_an_error():
    with pytest.raises(OutOfRange):
        validate(chain(3), Pebbling(rounds=((4,),)))


def test_repebbling_after_drop_is_legal():
    g = chain(3)
    p = Pebbling(rounds=((1,), (2,), (1, 2), (1, 3)))
    assert validate(g, p).legal


def test_claim_c1_pebbling():
    g = counterexample_dag()
    p = claim_c1_pebbling()
    assert validate(g, p).legal
    r = cost(p)
    assert r.cc == 27
    assert r.t == 18
    assert r.max_space == 2
    assert r.st == 36


TINY = B2lcInstance(n_vars=3, m=1, equations=((1, 1, 2), (2, 2, 3)))


def test_reduction_pebbling_single_assignment():
    layout = b2lc_to_graph(TINY, tau=2)
    w = B2lcWitness(group_of=(1, 1), values=((0, 1, 3),))
    p = reduction_pebbling(layout, w)
    assert validate(layout.graph, p).legal
    assert cost(p).cc <= layout.pebbling_cost_bound()


def test_reduction_pebbling_accepts_shifted_values():
    # values get re-canonicalized, so a uniformly shifted row works too
    layout = b2lc_to_graph(TINY, tau=2)
    w = B2lcWitness(group_of=(1, 1), values=((5, 6, 8),))
    p = reduction_pebbling(layout, w)
    assert validate(layout.graph, p).legal


def test_reduction_pebbling_two_passes_with_gap():
    # rows ordered so the second pass must wait for the first's frontier
    inst = B2lcInstance(n_vars=2, m=2, equations=((1, 2, 2), (1, 1, 2)))
    layout = b2lc_to_graph(inst, tau=2)
    w = B2lcWitness(group_of=(1, 2), values=((0, 2), (0, 1)))
    p = reduction_pebbling(layout, w)
    assert validate(layout.graph, p).legal
    assert cost(p).cc <= layout.pebbling_cost_bound()


def test_reduction_pebbling_repairs_grouping():
    inst = B2lcInstance(n_vars=2, m=2, equations=((1, 2, 2), (1, 1, 2)))
    layout = b2lc_to_graph(inst, tau=2)
    # equation 1 is claimed to live in row 2, which does not satisfy it
    w = B2lcWitness(group_of=(2, 2), values=((0, 2), (0, 1)))
    p = reduction_pebbling(layout, w)
    assert validate(layout.graph, p).legal


def test_reduction_pebbling_rejects_uncovered_equation():
    layout = b2lc_to_graph(TINY, tau=2)
    with pytest.raises(InvalidWitness):
        reduction_pebbling(layout, B2lcWitness(group_of=(1, 1), values=((0, 0, 0),)))


def test_reduction_pebbling_rejects_wrong_shape():
    layout = b2lc_to_graph(TINY, tau=2)
    with pytest.raises(InvalidWitness):
        reduction_pebbling(layout, B2lcWitness(group_of=(1,), values=((0, 1, 3),)))


def test_reduction_pebbling_rejects_wrong_row_length():
    layout = b2lc_to_graph(TINY, tau=1)
    for row in ((0, 1), (0, 1, 3, 99)):  # short, and long with a stray value
        with pytest.raises(InvalidWitness, match="lengths"):
            reduction_pebbling(layout, B2lcWitness(group_of=(1, 1), values=(row,)))


def test_reduction_pebbling_random_instances():
    """Solver witnesses drive legal schedules across a random family."""
    rng = random.Random(20210)
    for _ in range(12):
        n_vars = rng.randint(2, 3)
        m = rng.randint(1, 2)
        rows = [
            tuple(rng.randint(0, 3) for _ in range(n_vars)) for _ in range(m)
        ]
        eqs = []
        want = rng.randint(2, 4)
        for _attempt in range(200):
            if len(eqs) == want:
                break
            row = rows[rng.randrange(m)]
            alpha, beta = rng.sample(range(1, n_vars + 1), 2)
            if row[alpha - 1] < row[beta - 1]:
                eqs.append((alpha, row[beta - 1] - row[alpha - 1], beta))
        if len(eqs) < 2:
            continue  # constant rows admit no positive offsets; skip
        inst = B2lcInstance(n_vars=n_vars, m=m, equations=tuple(eqs))
        found, w = solve_b2lc(inst)
        assert found and check_witness(inst, w)
        layout = b2lc_to_graph(inst, tau=2)
        p = reduction_pebbling(layout, w)
        assert validate(layout.graph, p).legal
        assert cost(p).cc <= layout.pebbling_cost_bound()


def test_reduction_pebbling_is_already_synchronized():
    layout = b2lc_to_graph(TINY, tau=3)
    w = B2lcWitness(group_of=(1, 1), values=((0, 1, 3),))
    p = reduction_pebbling(layout, w)
    assert sync_normalize(layout, p) == p


def test_sync_drops_orphan_copies_only():
    layout = b2lc_to_graph(TINY, tau=2)
    a1 = layout.var_chain(1, 1, 1)
    a2 = layout.var_chain(1, 2, 1)
    m1 = layout.path_node(1, 1)
    p = Pebbling(rounds=((a1,), (a1, a2, m1)))
    q = sync_normalize(layout, p)
    assert q.rounds == ((), tuple(sorted((a1, a2, m1))))


def test_sync_never_increases_cost_and_is_idempotent():
    inst = B2lcInstance(n_vars=2, m=1, equations=((1, 1, 2), (2, 1, 1)))
    layout = b2lc_to_graph(inst, tau=2)
    for seed in range(40):
        p = random_legal_pebbling(layout.graph, seed=seed)
        q = sync_normalize(layout, p)
        assert cost(q).cc <= cost(p).cc
        assert sync_normalize(layout, q) == q


def test_sync_can_break_legality():
    """The lag-by-one schedule that the old drop rule made illegal.

    Walk copy 1 of a length-2 variable chain one step ahead of copy 2: every
    placement has its parent, but each intermediate round holds exactly one
    copy of each sibling pair. Dropping such unpaired copies emptied the
    middle round and orphaned the next round's pebbles; writing the cheapest
    copy's schedule onto both copies instead keeps every placement supported.
    """
    inst = B2lcInstance(n_vars=2, m=1, equations=((1, 1, 2), (2, 1, 1)))
    layout = b2lc_to_graph(inst, tau=2)
    a1 = layout.var_chain(1, 1, 1)
    a2 = layout.var_chain(1, 1, 2)
    b1 = layout.var_chain(1, 2, 1)
    b2 = layout.var_chain(1, 2, 2)
    p = Pebbling(rounds=((a1, b1), (a2, b1), (a2, b2)))
    # every placement is supported; only the sink check fails
    assert validate(layout.graph, p).first_violation[2] == "sink_unpebbled"
    q = sync_normalize(layout, p)
    assert q.rounds[1] == tuple(sorted((a2, b2)))
    assert validate(layout.graph, q).first_violation[2] == "sink_unpebbled"


def test_random_legal_pebbling_is_legal_and_deterministic():
    graphs = [chain(6), pyramid(4), counterexample_dag(), layered_random(12, seed=5)]
    for g in graphs:
        for seed in (0, 1, 7):
            for mode in ("parallel", "sequential"):
                p = random_legal_pebbling(g, seed=seed, mode=mode)
                assert validate(g, p).legal
                assert p == random_legal_pebbling(g, seed=seed, mode=mode)


def test_random_legal_pebbling_outputs_are_pinned():
    """One digest of seeded random pebblings in both modes, on small graphs
    and a 31-node gadget."""
    graphs = [
        chain(6), pyramid(4), counterexample_dag(), layered_random(12, seed=5),
        build_dag(4, [(1, 2), (1, 3)]), b2lc_to_graph(TINY, tau=2).graph,
    ]
    record = [
        pebbling_to_json(random_legal_pebbling(g, seed=seed, mode=mode))
        for g in graphs for mode in ("parallel", "sequential") for seed in range(10)
    ]
    digest = hashlib.sha256("\n".join(record).encode()).hexdigest()
    assert digest == "22c5c49d5b7e7498572accc77968de94981aefdf016b6d50b561e33ac49c892f"


def test_random_legal_pebbling_handles_isolated_sink():
    g = build_dag(4, [(1, 2), (1, 3)])
    p = random_legal_pebbling(g, seed=3)
    assert validate(g, p).legal


def test_json_round_trip():
    p = Pebbling(rounds=((1, 9), (2, 10), (16,)), mode="sequential")
    assert pebbling_from_json(pebbling_to_json(p)) == p
    raw = json.dumps({"rounds": [[3, 1], [2]]})
    assert pebbling_from_json(raw).rounds == ((1, 3), (2,))
    assert pebbling_from_json(raw).mode == "parallel"


def test_pebbling_imports_only_graph():
    """pebbling.py loads no gadget code; the old import path of
    reduction_pebbling resolves, on first use, to reductions' function."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import pebblecc.pebbling; "
        "print(sorted(m for m in sys.modules if m.startswith('pebblecc'))); "
        "from pebblecc.pebbling import reduction_pebbling; "
        "from pebblecc import reductions; "
        "print(reduction_pebbling is reductions.reduction_pebbling)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True
    )
    assert proc.stdout.splitlines() == [
        "['pebblecc', 'pebblecc.graph', 'pebblecc.pebbling']",
        "True",
    ], proc.stderr


def test_public_names_resolve():
    for mod in (acceptance, b2lc, cli, depth_reduce, graph, lp, pebbling, reductions, search):
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    moved = {"InvalidWitness", "claim_c1_pebbling", "reduction_pebbling", "sync_normalize"}
    assert not moved & set(pebbling.__all__)
    assert moved <= set(reductions.__all__)
    assert not hasattr(pebbling, "sync_normalize")
