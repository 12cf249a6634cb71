"""Model construction, fractional points, exact verification, and emission."""

import hashlib
import re
from fractions import Fraction

import pytest

from pebblecc import lp
from pebblecc.graph import build_dag, chain, complete, layered_random, pyramid
from pebblecc.lp import (
    FeasibilityReport,
    IllegalPebbling,
    LpConstraint,
    LpModel,
    LpSolution,
    LpVariable,
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
from pebblecc.pebbling import Pebbling, random_legal_pebbling, trivial_pebbling
from pebblecc.reductions import claim_c1_pebbling, counterexample_dag
from pebblecc.search import Infeasible, SearchLimits


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


def test_variable_names_match_the_formatted_form():
    """_xnames joins node prefixes to round suffixes; the names, and so
    their order, are those of one f-string per variable, horizon 0 included."""
    for n in (1, 2, 7, 12, 64):
        for horizon in (0, 1, 3, 10, 11, 100):
            want = tuple(f"x_{v}_{t}" for v in range(1, n + 1) for t in range(horizon + 1))
            assert lp._xnames(n, horizon) == want


# node 1 reaches 3, 5 and 6 in one edge, and 2 reaches 5 in one
SKIP_EDGES = build_dag(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3), (2, 5), (1, 6)])


def test_row_and_reducible_names_match_the_formatted_form():
    """The builders join name prefixes to shared suffixes; the names, and
    so their order, are those of one f-string per row or variable."""
    graphs = [chain(1), chain(5), pyramid(4), build_dag(3, []), SKIP_EDGES]
    graphs += [layered_random(12, 3), counterexample_dag()]
    for g in graphs:
        nodes = range(1, g.n + 1)
        for h in (1, 3, 10, 11):
            want = [f"sink_{v}" for v in sorted(g.sinks)]
            want += [f"move_{v}_{t}" for v in nodes if g.parent_sets[v] for t in range(h)]
            assert build_pebbling_ip(g, horizon=h).row_names == tuple(want)
        want = (*(f"s_{v}" for v in nodes), *(f"d_{u}_{v}" for u in nodes for v in nodes))
        m = build_reducible_ip(g, 2)
        assert m.names == want
        assert tuple(fractional_reducible_solution(g, 2).values) == want
        assert m.row_names == tuple(f"path_{w}_{u}_{v}" for w in nodes for u, v in g.edges)


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


def test_model_rejects_malformed_columns():
    good = dict(
        names=("a", "b"), lower=(0, 0), upper=(1, 1), n_integral=1,
        row_names=("r", "q"), row_vars=((0, 1), (1,)), row_coeffs=((1, -1), (2,)),
        relations=("<=", ">="), rhs=(0, 1), scales=(1, 2), obj_vars=(0, 1), obj_coeffs=(1, 1),
    )
    m = LpModel(**good)
    assert m.constraints[1] == LpConstraint("q", (("b", 2),), ">=", 1, 2)
    assert m.variables == (LpVariable("a", 0, 1, True), LpVariable("b", 0, 1, False))
    bad = [
        ({"names": ("a", "a")}, "duplicate variable names"),
        ({"n_integral": 3}, "n_integral 3 outside 0..2"),
        ({"relations": ("<=", "=>")}, "bad relation '=>' in q"),
        ({"row_vars": ((0, 2), (1,))}, "r uses undeclared variable index 2"),
        ({"row_vars": ((0, 1), (-1,))}, "q uses undeclared variable index -1"),
        ({"obj_vars": (0, 2)}, "objective uses undeclared variable index 2"),
        # unchecked, a short column let a violated bound pass verification
        ({"lower": (0,)}, "lower has 1 entries for 2 variables"),
        ({"upper": (1, 1, 1)}, "upper has 3 entries for 2 variables"),
        ({"row_vars": ((0, 1),)}, "row_vars has 1 entries for 2 rows"),
        ({"row_coeffs": ((1, -1), (2,), (3,))}, "row_coeffs has 3 entries for 2 rows"),
        ({"relations": ("<=",)}, "relations has 1 entries for 2 rows"),
        ({"rhs": ()}, "rhs has 0 entries for 2 rows"),
        ({"scales": (1,)}, "scales has 1 entries for 2 rows"),
        ({"row_coeffs": ((1,), (2,))}, "r has 2 variables but 1 coefficients"),
        ({"row_vars": ((0, 1), (1, 0))}, "q has 2 variables but 1 coefficients"),
        ({"obj_coeffs": (1,)}, "objective has 2 variables but 1 coefficients"),
        ({"scales": (1, 0)}, "q has scale 0, not a positive int"),
        ({"scales": (-1, 2)}, "r has scale -1, not a positive int"),
        ({"scales": (1, 2.0)}, "q has scale 2.0, not a positive int"),
    ]
    for change, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            LpModel(**{**good, **change})


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


def test_reducible_ip_rejects_negative_d():
    with pytest.raises(ValueError, match="nonnegative"):
        build_reducible_ip(chain(3), -1)


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


def test_verify_equality_row_slack_is_minus_the_distance():
    # the row 2a - b = 1 at scale 2 is a - b/2 = 1/2; the values' common
    # denominator is 3, so a violated row's slack is -|lhs - rhs| / (3 * 2)
    # in integers scaled by 3
    m = LpModel(
        names=("a", "b"), lower=(0, 0), upper=(4, 4), n_integral=0, row_names=("eq",),
        row_vars=((0, 1),), row_coeffs=((2, -1),), relations=("=",), rhs=(1,), scales=(2,),
        obj_vars=(0, 1), obj_coeffs=(1, 1),
    )
    third = Fraction(1, 3)
    met = verify_solution(m, LpSolution({"a": 2 * third, "b": third}))
    assert met.feasible and met.violated == ()
    for a in (3 * third, third):  # lhs 5/3 exceeds rhs 1, lhs 1/3 falls short
        rep = verify_solution(m, LpSolution({"a": a, "b": third}))
        assert rep.violated == (("eq", Fraction(-2, 3 * 2)),)


def test_report_json_round_trips_rationals():
    import json

    rep = FeasibilityReport(False, Fraction(7, 2), (("move_1_0", Fraction(-1, 3)),))
    data = json.loads(report_to_json(rep))
    assert data == {
        "feasible": False,
        "objective": "7/2",
        "violated": [["move_1_0", "-1/3"]],
    }
    # only a Fraction is written as text; any other unknown type still fails
    with pytest.raises(TypeError, match="complex"):
        report_to_json(FeasibilityReport(True, 1j, ()))


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
    gr = gap_report(counterexample_dag(), cost_cap=27)
    assert gr.pcc == 27 and gr.pcc_proven
    assert gr.fractional_objective == Fraction(77, 2)
    assert gr.ratio == Fraction(54, 77)
    with pytest.raises(Infeasible):
        gap_report(counterexample_dag(), cost_cap=26)


def test_gap_report_falls_back_when_search_exhausts():
    gr = gap_report(chain(6), limits=SearchLimits(max_states=2))
    assert not gr.pcc_proven
    assert gr.pcc == 21  # trivial keep-everything bound


def test_gap_report_uses_the_search_incumbent():
    gr = gap_report(counterexample_dag(), limits=SearchLimits(max_states=50))
    assert not gr.pcc_proven
    assert 27 <= gr.pcc < 16 * 17 // 2  # the dive's cost, not n(n+1)/2


def test_gap_report_rejects_a_point_its_program_rejects(monkeypatch):
    # the objective is read off verify_solution, so a point that the relaxed
    # program rejects (here all zero, which pebbles no sink) is an error
    def zero(g, horizon):
        return LpSolution(dict.fromkeys(build_pebbling_ip(g, horizon).names, Fraction(0)))

    monkeypatch.setattr(lp, "fractional_pebbling_solution", zero)
    with pytest.raises(RuntimeError, match="the staircase point violates sink_3"):
        gap_report(chain(3))


# ------------------------------------------------------------------- pins


def _pin_cases(g):
    """(model, values) pairs for one graph: the staircase, reducible and
    embedded points, each against the model it is checked with."""
    h = staircase_horizon(g.n)
    yield relax(build_pebbling_ip(g, horizon=h)), fractional_pebbling_solution(g, horizon=h).values
    for d in (1, 2):
        point = fractional_reducible_solution(g, d).values
        yield relax(build_reducible_ip(g, d)), point
        yield build_reducible_ip(g, d), point
    p = trivial_pebbling(g)
    yield build_pebbling_ip(g, horizon=p.t), pebbling_to_solution(g, p, horizon=p.t).values


def _perturbed(g, m, values):
    """The point itself, then copies that break a bound, an integrality flag
    and a scaled move row (or, in the reducible program, every path row)."""
    names = [v.name for v in m.variables]
    yield values
    yield {**values, names[1]: Fraction(-1), names[-1]: Fraction(3, 2)}
    yield {**values, names[-1]: Fraction(1, 3), names[len(names) // 2]: Fraction(2, 3)}
    if names[0].startswith("x_"):
        v = max(range(1, g.n + 1), key=lambda u: len(g.parent_sets[u]))
        yield {**values, f"x_{v}_1": Fraction(1, 3)}
    else:
        yield {**values, **{f"s_{v}": 0 for v in range(1, g.n + 1)}}


def test_lp_outputs_are_pinned():
    # One digest over every model's variable, row and objective views and
    # over report_to_json of every check below; a perturbed point pins the
    # row scales, the order of violated slacks, and the name MissingVariable
    # gives for the first unassigned variable in model order.
    graphs = [chain(n) for n in (1, 2, 3, 5, 8)] + [pyramid(k) for k in (2, 3, 4)]
    graphs += [counterexample_dag()] + [layered_random(9, s) for s in (1, 2, 3)]
    parts = []
    for g in graphs:
        parts.append(report_to_json(fractional_timed_solution(g)[1]))
        for m, values in _pin_cases(g):
            parts += map(repr, m.variables)
            parts += map(repr, m.constraints)
            parts.append(repr(m.objective))
            for point in _perturbed(g, m, values):
                parts.append(report_to_json(verify_solution(m, LpSolution(point))))
            names = [v.name for v in m.variables]
            for gone in (names[-1:], names[len(names) // 2 :: 3]):
                point = {k: x for k, x in values.items() if k not in gone}
                with pytest.raises(MissingVariable) as exc:
                    verify_solution(m, LpSolution(point))
                parts.append(str(exc.value))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "f884ceabc876d978f26b4d6047b36495a887f5b4e74bb862a92b52eab43a7706"


def test_point_values_are_pinned():
    # One digest over the (name, value) items, in dict order and with the
    # values' types, of every point builder on assorted graphs.
    graphs = [chain(n) for n in range(1, 9)] + [pyramid(k) for k in range(2, 6)]
    graphs += [counterexample_dag(), SKIP_EDGES] + [layered_random(n, n) for n in range(9, 21)]
    points = []
    for g in graphs:
        points.append(fractional_pebbling_solution(g, horizon=staircase_horizon(g.n)))
        points.append(fractional_timed_solution(g)[0])
        points += [fractional_reducible_solution(g, d) for d in (1, 2, 3)]
        pebblings = [trivial_pebbling(g)]
        pebblings += [random_legal_pebbling(g, s, mode) for s in (1, 2) for mode in ("parallel", "sequential")]
        points += [pebbling_to_solution(g, p, horizon=p.t) for p in pebblings]
        points.append(pebbling_to_solution(g, pebblings[0]))
    text = "\n".join(repr(list(point.values.items())) for point in points)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "a87104ccf984c90ce5a8331a48fb07ffe631e55927b5c2b0f29d19611ebc0164"


def test_emit_corner_cases_are_pinned():
    # Zero and negative coefficients, all-zero and empty rows, = rows, a
    # negative rhs, equal coefficient tuples that are distinct objects in
    # runs of one, a fixed bound lo = hi = 1, and ten integral variables,
    # so the Generals section wraps after eight.
    a, b = tuple([2, 0, -1]), tuple([2, 0, -1])
    c, e = tuple([1, -3]), tuple([1, -3])
    shared = (1, 1)
    rows = [
        ("r1", (0, 1, 2), a, "<=", -3), ("r2", (3, 4), c, "=", 0), ("r3", (5, 6, 7), b, ">=", 1),
        ("r4", (8, 9), e, "=", -1), ("r5", (10, 11, 0), a, "<=", 2), ("r6", (), (), ">=", -1),
        ("r7", (1, 2), (0, 0), "<=", 0), ("r8", (3, 4), (-1, 1), "<=", 4), ("r9", (5, 6, 7), (-2, 3, 1), "=", 7),
        ("r10", (0, 1), shared, ">=", 1), ("r11", (2, 3), shared, ">=", 1), ("r12", (4, 5), shared, "<=", -2),
    ]
    names, vars_, coeffs, relations, rhs = map(tuple, zip(*rows))
    m = LpModel(
        names=tuple("abcdefghijkl"), lower=(0, 0, 0, 1, -2, -2, 0, 0, 0, 0, 0, 0),
        upper=(1, 1, 1, 1, 3, 3, 1, 1, 1, 1, 7, 0), n_integral=10, row_names=names, row_vars=vars_,
        row_coeffs=coeffs, relations=relations, rhs=rhs, scales=(1, 2) * 6,
        obj_vars=tuple(range(12)), obj_coeffs=(1, 1, 0, -1, -1, 2, 2, 2, 0, 1, -3, 1),
    )
    text = emit(m) + emit(relax(m))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "f44fcbb7cbed675aa9fc9ffd78a1247306b862d638602f918e88b9fb36c357c7"


def test_emit_of_the_lr64_staircase_model_is_pinned():
    m = relax(build_pebbling_ip(layered_random(64, 1), horizon=staircase_horizon(64)))
    digest = hashlib.sha256(emit(m).encode()).hexdigest()
    assert digest == "26777b24a53698a785f407aaf148bdeb0d80152e41dc526172d0a701664e3b32"
