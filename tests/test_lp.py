"""Model construction, fractional points, exact verification, and emission."""

import hashlib
from fractions import Fraction

import pytest

from pebblecc.graph import build_dag, chain, complete, layered_random, pyramid
from pebblecc.lp import (
    FeasibilityReport,
    IllegalPebbling,
    LpSolution,
    MissingVariable,
    build_pebbling_ip,
    build_reducible_ip,
    emit,
    fractional_pebbling_solution,
    fractional_reducible_solution,
    fractional_timed_solution,
    gap_report,
    pebbling_to_solution,
    relax,
    report_to_json,
    staircase_horizon,
    verify_solution,
)
from pebblecc.pebbling import Pebbling, trivial_pebbling
from pebblecc.reductions import claim_c1_pebbling, counterexample_dag
from pebblecc.search import SearchLimits


def staircase_objective(n: int) -> Fraction:
    """Independent tally of the staircase cost: n rounds of a 1/n trickle
    spread over 1..n nodes, then ceil(lg n) doubling rounds on all n."""
    if n == 1:
        return Fraction(1)
    ramp = (n - 1).bit_length()
    total = sum(Fraction(t, n) for t in range(1, n + 1))
    total += sum(n * min(Fraction(1), Fraction(2**j, n)) for j in range(1, ramp + 1))
    return total


# ---------------------------------------------------------------- building


def test_pebbling_ip_shape_chain2():
    m = build_pebbling_ip(chain(2), horizon=4)
    assert len(m.variables) == 10
    fixed = [v for v in m.variables if v.lower == v.upper == Fraction(0)]
    assert len(fixed) == 2
    assert {v.name for v in fixed} == {"x_1_0", "x_2_0"}
    assert sum(c.name.startswith("sink") for c in m.constraints) == 1
    assert sum(c.name.startswith("move") for c in m.constraints) == 4


def test_pebbling_ip_sources_move_freely():
    m = build_pebbling_ip(chain(1))
    assert [c.name for c in m.constraints] == ["sink_1"]
    assert len(m.variables) == 2  # default horizon n^2 = 1


def test_pebbling_ip_default_horizon():
    m = build_pebbling_ip(counterexample_dag())
    assert len(m.variables) == 16 * 257


def test_pebbling_ip_objective_counts_every_variable():
    m = build_pebbling_ip(pyramid(2), horizon=3)
    assert len(m.objective) == len(m.variables)
    assert all(c == Fraction(1) for _, c in m.objective)


def test_pebbling_ip_rejects_degenerate_horizon():
    with pytest.raises(ValueError):
        build_pebbling_ip(chain(2), horizon=0)


def test_reducible_ip_shape_chain3():
    m = build_reducible_ip(chain(3), 1)
    assert len(m.variables) == 12  # 3 selectors + 9 pair trackers
    assert len(m.constraints) == 6  # |V| * |E|
    names = {v.name for v in m.variables}
    assert "s_1" in names and "d_2_2" in names


def test_reducible_ip_edgeless_has_no_path_constraints():
    m = build_reducible_ip(build_dag(3, []), 2)
    assert m.constraints == ()


def test_reducible_ip_tracker_bounds():
    m = build_reducible_ip(chain(3), 2)
    trackers = [v for v in m.variables if v.name.startswith("d_")]
    assert all(v.lower == 0 and v.upper == 2 and not v.integral for v in trackers)


def test_model_numbers_are_integers():
    models = [build_pebbling_ip(g, horizon=6) for g in (chain(3), pyramid(3), complete(4))]
    models += [build_reducible_ip(pyramid(3), d) for d in (1, 2)]
    for m in models:
        assert all(type(v.lower) is int and type(v.upper) is int for v in m.variables)
        assert all(type(k) is int for _, k in m.objective)
        for c in m.constraints:
            assert type(c.rhs) is int and type(c.scale) is int and c.scale > 0
            assert all(type(k) is int for _, k in c.coeffs)


def test_relax_clears_integrality_keeps_bounds():
    m = build_pebbling_ip(chain(2), horizon=4)
    r = relax(m)
    assert not any(v.integral for v in r.variables)
    assert r.variables[0].lower == r.variables[0].upper == Fraction(0)
    assert r.constraints == m.constraints
    assert relax(r) == r


# ---------------------------------------------------------- staircase point


def test_staircase_objective_closed_form():
    for n in (2, 3, 4, 5, 8, 16, 33, 64):
        sol = fractional_pebbling_solution(chain(n))
        obj = sum(sol.values.values())
        assert obj == staircase_objective(n)
        assert obj <= 4 * n


def test_staircase_n4_value():
    sol = fractional_pebbling_solution(chain(4))
    assert sum(sol.values.values()) == Fraction(17, 2)


def test_staircase_single_node():
    sol = fractional_pebbling_solution(chain(1))
    assert sum(sol.values.values()) == 1
    assert sol.values["x_1_0"] == 0


def test_staircase_feasible_on_assorted_shapes():
    # The point only depends on n, so feasibility is the graph-specific part.
    for g in (chain(5), pyramid(3), complete(4), counterexample_dag()):
        h = g.n + (g.n - 1).bit_length()
        rep = verify_solution(
            relax(build_pebbling_ip(g, horizon=h)),
            fractional_pebbling_solution(g, horizon=h),
        )
        assert rep.feasible, (g.n, rep.violated[:3])


def test_staircase_feasible_on_random_layered():
    for seed in range(6):
        g = layered_random(9, seed=seed)
        rep = verify_solution(
            relax(build_pebbling_ip(g, horizon=13)),
            fractional_pebbling_solution(g, horizon=13),
        )
        assert rep.feasible


def test_staircase_rejects_short_horizon():
    with pytest.raises(ValueError):
        fractional_pebbling_solution(chain(8), horizon=10)  # needs 8 + 3
    for n in range(1, 20):
        h = staircase_horizon(n)
        assert h == n + (n - 1).bit_length()
        fractional_pebbling_solution(chain(n), horizon=h)
        with pytest.raises(ValueError):
            fractional_pebbling_solution(chain(n), horizon=h - 1)


# -------------------------------------------------------------- timed point


def test_timed_point_diagonal_and_decay():
    sol, rep = fractional_timed_solution(chain(4))
    assert rep.feasible and rep.objective == 6
    assert sol.values["x_1_1"] == 1 and sol.values["x_2_2"] == 1
    assert sol.values["x_1_2"] == Fraction(1, 2)
    assert sol.values["x_1_3"] == Fraction(1, 4)
    assert sol.values["x_1_4"] == Fraction(1, 4)  # 1/n floor takes over


def test_timed_point_direct_parent_hits_one():
    # A skip edge puts node 1 at distance 1 from node 3, so at t = 2 the
    # j = 1 term is 2^(-1-1+2) = 1: the parent keeps a whole pebble.
    g = build_dag(3, [(1, 2), (2, 3), (1, 3)])
    sol, rep = fractional_timed_solution(g)
    assert sol.values["x_1_2"] == 1
    assert rep.feasible


def test_timed_point_chain8_frozen():
    _, rep = fractional_timed_solution(chain(8))
    assert rep.feasible
    assert rep.objective == Fraction(115, 8)


def test_timed_point_objective_within_n_log_n_on_chains():
    for n in (2, 4, 8, 16, 32):
        _, rep = fractional_timed_solution(chain(n))
        assert rep.feasible
        assert rep.objective <= 4 * n * (n - 1).bit_length()


def test_timed_point_infeasible_graph_is_reported_not_raised():
    # The 16-node counterexample breaks the assignment; the report says so.
    sol, rep = fractional_timed_solution(counterexample_dag())
    assert not rep.feasible
    assert rep.violated[0] == ("move_7_12", Fraction(-1, 16))
    assert len(sol.values) == 16 * 17


# ---------------------------------------------------------- reducible point


def test_reducible_point_objective_and_feasibility():
    g = chain(6)
    for d in (1, 2, 3, 6):
        sol = fractional_reducible_solution(g, d)
        rep = verify_solution(relax(build_reducible_ip(g, d)), sol)
        assert rep.feasible
        assert rep.objective == Fraction(6, d)


def test_reducible_point_uniform_margin():
    # Every path constraint holds with margin exactly 1 + 2/d once all
    # trackers sit at zero.
    g = pyramid(2)
    d = 3
    m = relax(build_reducible_ip(g, d))
    vals = fractional_reducible_solution(g, d).values
    for c in m.constraints:
        lhs = sum(vals[name] * coeff for name, coeff in c.coeffs)
        assert lhs - c.rhs == 1 + Fraction(2, d)


def test_reducible_point_rejects_zero_d():
    with pytest.raises(ValueError):
        fractional_reducible_solution(chain(3), 0)


# ------------------------------------------------------------- embeddings


def test_trivial_pebbling_embeds_feasibly():
    g = chain(3)
    p = trivial_pebbling(g)
    sol = pebbling_to_solution(g, p, horizon=p.t)
    rep = verify_solution(build_pebbling_ip(g, horizon=p.t), sol)
    assert rep.feasible
    assert rep.objective == 6


def test_claim_c1_embeds_with_objective_27():
    g = counterexample_dag()
    p = claim_c1_pebbling()
    sol = pebbling_to_solution(g, p, horizon=p.t)
    rep = verify_solution(build_pebbling_ip(g, horizon=p.t), sol)
    assert rep.feasible
    assert rep.objective == 27


def test_illegal_pebbling_is_rejected():
    with pytest.raises(IllegalPebbling):
        pebbling_to_solution(chain(3), Pebbling(((3,),)))


def test_embedding_needs_room():
    p = trivial_pebbling(chain(3))
    with pytest.raises(ValueError):
        pebbling_to_solution(chain(3), p, horizon=2)


# ------------------------------------------------------------ verification


def test_verify_missing_variable():
    g = chain(2)
    m = build_pebbling_ip(g, horizon=4)
    vals = dict(pebbling_to_solution(g, trivial_pebbling(g), horizon=4).values)
    del vals["x_1_1"]
    with pytest.raises(MissingVariable):
        verify_solution(m, LpSolution(vals))


def test_verify_reports_bound_violation_with_slack():
    g = chain(2)
    m = build_pebbling_ip(g, horizon=4)
    vals = dict(pebbling_to_solution(g, trivial_pebbling(g), horizon=4).values)
    vals["x_1_1"] = Fraction(-1)
    rep = verify_solution(m, LpSolution(vals))
    assert not rep.feasible
    assert ("bound:x_1_1", Fraction(-1)) in rep.violated


def test_verify_flags_fractional_value_in_integer_model():
    g = chain(2)
    m = build_pebbling_ip(g, horizon=4)
    vals = dict(pebbling_to_solution(g, trivial_pebbling(g), horizon=4).values)
    vals["x_1_1"] = Fraction(1, 3)
    rep = verify_solution(m, LpSolution(vals))
    assert any(name == "integral:x_1_1" for name, _ in rep.violated)
    # the relaxation is happy with the same values
    assert not any(
        name.startswith("integral") for name, _ in verify_solution(relax(m), LpSolution(vals)).violated
    )


def test_verify_slack_is_in_source_units():
    # move_3_1 reads 2 x_3_2 - 2 x_3_1 - x_1_1 - x_2_1 <= 0 at scale 2; its
    # stored slack is -3/2, which is -3/4 for the unscaled inequality.
    m = relax(build_pebbling_ip(pyramid(2), horizon=2))
    row = next(c for c in m.constraints if c.name == "move_3_0")
    assert row.coeffs == (("x_3_1", 2), ("x_3_0", -2), ("x_1_0", -1), ("x_2_0", -1))
    assert (row.relation, row.rhs, row.scale) == ("<=", 0, 2)
    assert all(c.scale == 1 for c in m.constraints if not c.name.startswith("move"))
    vals = {v.name: 0 for v in m.variables}
    vals["x_3_2"] = 1
    vals["x_1_1"] = Fraction(1, 2)
    rep = verify_solution(m, LpSolution(vals))
    assert rep.violated == (("move_3_1", Fraction(-3, 4)),)
    assert type(rep.violated[0][1]) is Fraction
    assert rep.objective == Fraction(3, 2)


def test_report_json_round_trips_rationals():
    import json

    rep = FeasibilityReport(False, Fraction(7, 2), (("move_1_0", Fraction(-1, 3)),))
    data = json.loads(report_to_json(rep))
    assert data == {
        "feasible": False,
        "objective": "7/2",
        "violated": [["move_1_0", "-1/3"]],
    }


# ---------------------------------------------------------------- emission


def test_emit_is_deterministic():
    m = build_pebbling_ip(pyramid(2), horizon=3)
    assert emit(m) == emit(build_pebbling_ip(pyramid(2), horizon=3))


def test_emit_clears_denominators():
    txt = emit(build_pebbling_ip(pyramid(2), horizon=3))
    assert " move_3_0: 2 x_3_1 - 2 x_3_0 - x_1_0 - x_2_0 <= 0" in txt
    assert "/" not in txt.split("Bounds")[0]  # no fractions before Bounds


def test_emit_text_is_pinned():
    graphs = [chain(n) for n in range(1, 9)] + [pyramid(k) for k in range(2, 6)]
    graphs += [counterexample_dag()] + [layered_random(9, s) for s in (1, 2, 3)]
    parts = []
    for g in graphs:
        m = build_pebbling_ip(g, horizon=g.n + (g.n - 1).bit_length())
        parts += [emit(m), emit(relax(m))]
        for d in (1, 2, 3):
            r = build_reducible_ip(g, d)
            parts += [emit(r), emit(relax(r))]
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()
    assert digest == "24566eb693e9b6da6f827df845c573f3411ead960edb3f6b9b9d2b2dc84a6cab"


def test_emit_sections():
    m = build_pebbling_ip(chain(2), horizon=4)
    txt = emit(m)
    assert txt.startswith("Minimize\n")
    assert " x_1_0 = 0" in txt.split("Bounds\n")[1]
    assert "Generals" in txt
    assert txt.rstrip().endswith("End")
    assert "Generals" not in emit(relax(m))


def test_emit_reducible_model():
    txt = emit(build_reducible_ip(chain(3), 1))
    assert " path_1_1_2: d_1_2 - d_1_1 + 2 s_1 + 2 s_2 >= 1" in txt
    # selectors integral, trackers not
    generals = txt.split("Generals\n")[1]
    assert "s_1" in generals and "d_1_1" not in generals


# -------------------------------------------------------------- gap report


def test_gap_report_chain8():
    gr = gap_report(chain(8))
    assert gr.fractional_objective == Fraction(37, 2)
    assert gr.pcc == 8 and gr.pcc_proven
    # this particular fractional point costs more than pcc here, so the
    # reported gap lower bound sits below 1
    assert gr.ratio == Fraction(16, 37)


def test_gap_report_counterexample():
    gr = gap_report(counterexample_dag(), limits=SearchLimits(upper_bound_seed=27))
    assert gr.pcc == 27 and gr.pcc_proven
    assert gr.fractional_objective == Fraction(77, 2)
    assert gr.ratio == Fraction(54, 77)


def test_gap_report_falls_back_when_search_exhausts():
    gr = gap_report(chain(6), limits=SearchLimits(max_states=2))
    assert not gr.pcc_proven
    assert gr.pcc == 21  # trivial keep-everything bound


def test_gap_report_uses_the_search_incumbent():
    gr = gap_report(counterexample_dag(), limits=SearchLimits(max_states=50))
    assert not gr.pcc_proven
    assert 27 <= gr.pcc < 16 * 17 // 2  # the dive's cost, not n(n+1)/2
