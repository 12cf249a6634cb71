"""The pebbling and depth-reduction integer programs, solved by an outside
MILP solver, as oracles for the bounded search, the capped sweep and the
exact depth reduction on graphs too large for the test-side enumerators
(12 to 21 nodes).

It shares no pruning rule with the searches: HiGHS (through SciPy) solves
the model `build_pebbling_ip` or `build_reducible_ip` builds, read from its
stored columns, and the solution is checked in its own right, as a
pebbling or as a removal set. The package itself never imports SciPy;
without it these tests skip.
"""

import pytest

from pebblecc.b2lc import B2lcInstance
from pebblecc.depth_reduce import min_reducing_set, verify_set
from pebblecc.graph import layered_random, pyramid
from pebblecc.lp import build_pebbling_ip, build_reducible_ip
from pebblecc.pebbling import Pebbling, cost, validate
from pebblecc.reductions import b2lc_to_graph, counterexample_dag
from pebblecc.search import _sweep, exact_pcc_bounded

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_sparse = pytest.importorskip("scipy.sparse")


def _milp(m, extra_rows=()):
    """Solve the integer program m with HiGHS and return SciPy's result.
    Each of extra_rows is a (vars, coeffs, hi) row read as
    sum(coeffs[j] * x[vars[j]]) <= hi.

    Rows are read as stored, already scaled: row i is
    sum(row_coeffs[i][j] * x[row_vars[i][j]]) relations[i] rhs[i].
    """
    nv = len(m.names)
    cost_vec = [0] * nv
    for i, c in zip(m.obj_vars, m.obj_coeffs):
        cost_vec[i] += c
    inf = float("inf")
    row_vars = [*m.row_vars, *(r[0] for r in extra_rows)]
    row_coeffs = [*m.row_coeffs, *(r[1] for r in extra_rows)]
    lo = [-inf if rel == "<=" else b for rel, b in zip(m.relations, m.rhs)]
    hi = [inf if rel == ">=" else b for rel, b in zip(m.relations, m.rhs)]
    lo += [-inf] * len(extra_rows)
    hi += [r[2] for r in extra_rows]
    rows = [r for r, idx in enumerate(row_vars) for _ in idx]
    cols = [i for idx in row_vars for i in idx]
    vals = [c for coeffs in row_coeffs for c in coeffs]
    a = scipy_sparse.csr_array((vals, (rows, cols)), shape=(len(row_vars), nv))
    return scipy_optimize.milp(
        cost_vec,
        constraints=scipy_optimize.LinearConstraint(a, lo, hi),
        integrality=[1] * m.n_integral + [0] * (nv - m.n_integral),
        bounds=scipy_optimize.Bounds(m.lower, m.upper),
    )


def _solve_ip(g, horizon, space=None):
    """Solve build_pebbling_ip(g, horizon) with HiGHS; return the optimum
    and the pebbling its x variables spell, trailing empty rounds dropped,
    or None if the program is infeasible. With space set, each round t
    gets one more row, sum over v of x_v_t <= space.
    """
    m = build_pebbling_ip(g, horizon)
    extra = []
    if space is not None:  # x_v_t has index (v - 1)(horizon + 1) + t
        for t in range(1, horizon + 1):
            cols = [(v - 1) * (horizon + 1) + t for v in range(1, g.n + 1)]
            extra.append((cols, [1] * g.n, space))
    res = _milp(m, extra)
    if res.status == 2:
        return None
    assert res.success, res.message
    x = {name: round(value) for name, value in zip(m.names, res.x)}
    rounds = [
        tuple(v for v in range(1, g.n + 1) if x[f"x_{v}_{t}"]) for t in range(1, horizon + 1)
    ]
    while rounds and not rounds[-1]:
        rounds.pop()
    return round(res.fun), Pebbling(tuple(rounds), "parallel")


SYNC_GADGET = b2lc_to_graph(
    B2lcInstance(n_vars=2, m=1, equations=((1, 1, 2), (2, 1, 1))), tau=2
).graph
CORPUS = {"ce16": counterexample_dag(), "sync-gadget15": SYNC_GADGET}
CORPUS.update((f"lr{n}-1", layered_random(n, 1)) for n in (12, 14, 16, 18))
CORPUS["lr20-253228484"] = layered_random(20, 253228484)


@pytest.mark.parametrize("name", CORPUS)
def test_ip_optimum_matches_the_bounded_search(name):
    """The MILP optimum of the pebbling program with horizon n + 1 is the
    cost of a legal pebbling of at most n + 1 rounds, and equals
    exact_pcc_bounded(g, n + 1)."""
    g = CORPUS[name]
    horizon = g.n + 1
    optimum, pebbling = _solve_ip(g, horizon)
    assert validate(g, pebbling).legal, (name, pebbling.rounds)
    assert pebbling.t <= horizon
    assert cost(pebbling).cc == optimum
    assert exact_pcc_bounded(g, horizon).optimum == optimum, name


@pytest.mark.parametrize("name", ("lr12-1", "lr14-1", "ce16"))
def test_ip_rounds_match_the_capped_sweep(name):
    """At each space cap c from the largest in-degree to 2 above it, the
    sweep's fewest rounds t(c) are the fewest the MILP allows under the
    rows sum over v of x_v_t <= c: feasible at horizon t(c), with a legal
    pebbling that never holds more than c pebbles, and infeasible at
    t(c) - 1. A cap the sweep finds infeasible is not checked, as that
    would need an unbounded horizon. (Pyramids are left out: a 40-round
    infeasibility proof for pyramid(4) at cap 3 runs for minutes.)"""
    g = CORPUS[name]
    checked = 0
    for cap, witness, _ in _sweep(g, "parallel", None):
        if cap > g.max_indeg + 2:
            break
        if witness is None:
            continue
        rounds = witness.t
        solved = _solve_ip(g, rounds, cap)
        assert solved is not None, (name, cap, rounds)
        _, pebbling = solved
        assert validate(g, pebbling).legal, (name, cap, pebbling.rounds)
        assert max(map(len, pebbling.rounds)) <= cap
        assert _solve_ip(g, rounds - 1, cap) is None, (name, cap, rounds)
        checked += 1
    assert checked >= 2, name


@pytest.mark.parametrize(
    ("name", "d"),
    [(f"lr{n}-1", d) for n in (14, 16, 18) for d in (2, 4, 6)] + [("ce16", 3), ("pyramid6", 2)],
)
def test_reducible_ip_matches_min_reducing_set(name, d):
    """build_reducible_ip(g, d) caps the edge count of every surviving path
    at d, so its MILP optimum is the size min_reducing_set(g, d, "edges")
    finds, and the nodes its s variables remove leave depth at most d."""
    g = pyramid(6) if name == "pyramid6" else CORPUS[name]
    res = _milp(build_reducible_ip(g, d))
    assert res.success, res.message
    removed = {v for v in range(1, g.n + 1) if round(res.x[v - 1])}  # s_v has index v - 1
    assert len(removed) == round(res.fun)
    assert verify_set(g, removed, d, "edges"), (name, d, removed)
    assert min_reducing_set(g, d, "edges")[0] == round(res.fun), (name, d)
