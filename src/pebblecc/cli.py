"""Command-line front end for the library, including the verify-paper suite.

Each subcommand wraps exactly one library operation. Exit codes: 0 success,
1 negative/infeasible verdict, 2 usage error, 3 a search or enumeration cap
was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .acceptance import run_acceptance
from .b2lc import (
    B2lcInstance,
    ThreePartitionInstance,
    b2lc_from_json,
    b2lc_to_json,
    solve_3partition,
    solve_b2lc,
)
from .depth_reduce import is_reducible, min_reducing_set
from .graph import Dag, TooLarge, dag_from_json, dag_to_json, depth, generate
from .lp import (
    build_pebbling_ip,
    build_reducible_ip,
    emit,
    fractional_pebbling_solution,
    fractional_reducible_solution,
    fractional_timed_solution,
    gap_report,
    relax,
    report_to_json,
    staircase_horizon,
    verify_solution,
    LpSolution,
)
from .pebbling import cost, pebbling_from_json, pebbling_to_json, validate
from .reductions import (
    amplifier_chain_length,
    append_chain,
    b2lc_to_graph,
    counterexample_dag,
    layout_to_json,
    reduce_indegree,
    threepartition_to_b2lc,
    vc_to_reducible,
)
from .search import (
    Exhausted,
    Infeasible,
    SearchLimits,
    exact_min_space,
    exact_min_st,
    exact_pcc,
    exact_pcc_bounded,
)

__all__ = ["main"]

OK, NO, USAGE, LIMIT = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# Input loading


def _load_graph(path: str) -> Dag:
    with open(path, encoding="utf-8") as fh:
        return dag_from_json(fh.read())


def _load_pebbling(path: str):
    with open(path, encoding="utf-8") as fh:
        return pebbling_from_json(fh.read())


def _load_b2lc(path: str) -> B2lcInstance:
    with open(path, encoding="utf-8") as fh:
        return b2lc_from_json(fh.read())


def _load_3part(path: str) -> ThreePartitionInstance:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        elements, n = tuple(int(x) for x in data["elements"]), int(data["n"])
    except TypeError as exc:
        raise ValueError(f"3-partition JSON has the wrong shape: {exc}") from exc
    return ThreePartitionInstance(elements=elements, n=n)


def _load_undirected(path: str) -> tuple[int, list[tuple[int, ...]]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return int(data["n"]), [tuple(e) for e in data["edges"]]
    except TypeError as exc:
        raise ValueError(f"undirected graph JSON has the wrong shape: {exc}") from exc


def _load_solution(path: str) -> LpSolution:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    values = data.get("values", data) if isinstance(data, dict) else data
    if not isinstance(values, dict):
        raise ValueError("solution JSON must map variable names to values")
    return LpSolution({k: Fraction(str(v)) for k, v in values.items()})


def _limits(args) -> SearchLimits:
    kw = {}
    if getattr(args, "max_states", None) is not None:
        kw["max_states"] = args.max_states
    if getattr(args, "time_budget", None) is not None:
        kw["time_budget"] = args.time_budget
    if getattr(args, "seed", None) is not None:
        kw["upper_bound_seed"] = args.seed
    return SearchLimits(**kw)


# ---------------------------------------------------------------------------
# Subcommand handlers
#
# Each returns (exit code, JSON payload, text). Commands without --json return
# None for the payload; `reduce vc` always prints JSON and returns no text.


def _cmd_gen(args):
    if len(args.params) != 1:
        raise ValueError(f"gen {args.kind} takes one size, got {len(args.params)}")
    params = [int(args.params[0])]
    if args.kind == "layered_random":
        params.append(args.seed if args.seed is not None else 0)
    return OK, None, dag_to_json(generate(args.kind, *params))


def _cmd_depth(args):
    d = depth(_load_graph(args.graph), args.convention)
    return OK, {"depth": d, "convention": args.convention}, f"depth ({args.convention}) = {d}"


def _cmd_pebble_check(args):
    verdict = validate(_load_graph(args.graph), _load_pebbling(args.pebbling))
    payload = {"legal": verdict.legal, "first_violation": verdict.first_violation}
    if verdict.legal:
        return OK, payload, "legal"
    rnd, node, reason = verdict.first_violation
    return NO, payload, f"illegal: round {rnd}, node {node}, {reason}"


def _cmd_cost(args):
    c = cost(_load_pebbling(args.pebbling))
    payload = {"cc": c.cc, "st": c.st, "t": c.t, "max_space": c.max_space}
    return OK, payload, "cc = {cc}  st = {st}  t = {t}  max_space = {max_space}".format(**payload)


def _search_output(res, label: str):
    payload = {
        label: res.optimum,
        "proven": res.proven,
        "expanded_states": res.expanded_states,
        "witness": [list(r) for r in res.witness.rounds],
    }
    return OK, payload, (
        f"{label} = {res.optimum} (proven={res.proven}, expanded={res.expanded_states})\n"
        f"witness: {pebbling_to_json(res.witness)}"
    )


def _cmd_pcc(args):
    g = _load_graph(args.graph)
    return _search_output(exact_pcc(g, mode=args.mode, limits=_limits(args)), "pcc")


def _cmd_pcc_bounded(args):
    g = _load_graph(args.graph)
    res = exact_pcc_bounded(
        g, t_max=args.horizon, mode=args.mode, limits=_limits(args), cost_cap=args.seed
    )
    return _search_output(res, "bounded_cc")


def _cmd_min_st(args):
    g = _load_graph(args.graph)
    return _search_output(exact_min_st(g, mode=args.mode, limits=_limits(args)), "min_st")


def _cmd_min_space(args):
    g = _load_graph(args.graph)
    return _search_output(exact_min_space(g, mode=args.mode, limits=_limits(args)), "min_space")


def _cmd_b2lc_solve(args):
    covered, w = solve_b2lc(_load_b2lc(args.instance))
    if not covered:
        return NO, {"covered": False}, "not coverable"
    payload = {
        "covered": True,
        "group_of": list(w.group_of),
        "values": [list(row) for row in w.values],
    }
    return OK, payload, f"coverable: groups {w.group_of}, assignments {w.values}"


def _cmd_3part_solve(args):
    yes, triples = solve_3partition(_load_3part(args.instance))
    payload = {"partitionable": yes, "triples": [list(t) for t in triples or ()]}
    if yes:
        return OK, payload, f"partitionable: {triples}"
    return NO, payload, "not partitionable"


def _cmd_reduce_3part(args):
    return OK, None, b2lc_to_json(threepartition_to_b2lc(_load_3part(args.instance)))


def _cmd_reduce_b2lc(args):
    return OK, None, layout_to_json(b2lc_to_graph(_load_b2lc(args.instance), tau=args.tau))


def _cmd_reduce_vc(args):
    n, edges = _load_undirected(args.instance)
    g, originals = vc_to_reducible(n, edges, args.convention)
    payload = {
        "dag": json.loads(dag_to_json(g)),
        "originals": sorted(originals),
        "convention": args.convention,
    }
    return OK, payload, None


def _cmd_reduce_indeg(args):
    return OK, None, dag_to_json(reduce_indegree(_load_graph(args.graph)))


def _cmd_reduce_append(args):
    g = _load_graph(args.graph)
    length = args.length if args.length is not None else amplifier_chain_length(g.n)
    return OK, None, dag_to_json(append_chain(g, length))


def _cmd_reduce_counterexample(args):
    return OK, None, dag_to_json(counterexample_dag())


def _cmd_depth_check(args):
    g = _load_graph(args.graph)
    if args.e is None:
        e_min, witness = min_reducing_set(g, args.d, args.convention)
        return OK, {"e_min": e_min, "witness_set": sorted(witness)}, (
            f"minimum removing set for depth <= {args.d}: {sorted(witness)} (size {e_min})"
        )
    res = is_reducible(g, args.e, args.d, args.convention)
    payload = {
        "reducible": res.reducible,
        "witness_set": sorted(res.witness_set) if res.reducible else None,
        "residual_depth": res.residual_depth,
    }
    if res.reducible:
        return OK, payload, f"({args.e},{args.d})-reducible via {sorted(res.witness_set)}"
    return NO, payload, f"not ({args.e},{args.d})-reducible"


def _lp_model(args, target: str):
    g = _load_graph(args.graph)
    if target == "pebbling":
        return build_pebbling_ip(g, horizon=args.horizon)
    if args.d is None:
        raise ValueError("the reducible model needs the depth bound --d")
    return build_reducible_ip(g, args.d)


def _cmd_lp_build_pebbling(args):
    m = build_pebbling_ip(_load_graph(args.graph), horizon=args.horizon)
    payload = {
        "variables": len(m.variables),
        "constraints": len(m.constraints),
        "sink_constraints": sum(c.name.startswith("sink") for c in m.constraints),
        "move_constraints": sum(c.name.startswith("move") for c in m.constraints),
    }
    return OK, payload, (
        "pebbling ip: {variables} variables, {constraints} constraints "
        "({sink_constraints} sink, {move_constraints} move)".format(**payload)
    )


def _cmd_lp_build_reducible(args):
    m = build_reducible_ip(_load_graph(args.graph), args.d)
    payload = {
        "variables": len(m.variables),
        "selectors": sum(v.name.startswith("s_") for v in m.variables),
        "trackers": sum(v.name.startswith("d_") for v in m.variables),
        "constraints": len(m.constraints),
    }
    return OK, payload, (
        "reducible ip: {variables} variables ({selectors} selectors, "
        "{trackers} trackers), {constraints} constraints".format(**payload)
    )


def _cmd_lp_emit(args):
    return OK, None, emit(_lp_model(args, args.target)).rstrip("\n")


def _cmd_lp_relax(args):
    return OK, None, emit(relax(_lp_model(args, args.target))).rstrip("\n")


def _point_output(sol: LpSolution, rep, text: str):
    payload = {"values": {k: str(v) for k, v in sol.values.items()}, **json.loads(report_to_json(rep))}
    return (OK if rep.feasible else NO), payload, text


def _cmd_lp_frac_pebbling(args):
    g = _load_graph(args.graph)
    h = args.horizon if args.horizon is not None else staircase_horizon(g.n)
    sol = fractional_pebbling_solution(g, horizon=h)
    rep = verify_solution(relax(build_pebbling_ip(g, horizon=h)), sol)
    return _point_output(sol, rep, f"objective = {rep.objective} (feasible={rep.feasible}, horizon={h})")


def _cmd_lp_frac_timed(args):
    sol, rep = fractional_timed_solution(_load_graph(args.graph))
    text = f"objective = {rep.objective} (feasible={rep.feasible})"
    if not rep.feasible:
        text += f"\nfirst violation: {rep.violated[0]}"
    return _point_output(sol, rep, text)


def _cmd_lp_frac_reducible(args):
    g = _load_graph(args.graph)
    sol = fractional_reducible_solution(g, args.d)
    rep = verify_solution(relax(build_reducible_ip(g, args.d)), sol)
    return _point_output(sol, rep, f"objective = {rep.objective} (feasible={rep.feasible})")


def _cmd_lp_verify(args):
    m = relax(_lp_model(args, args.target))
    rep = verify_solution(m, _load_solution(args.solution))
    lines = [f"feasible = {rep.feasible}, objective = {rep.objective}"]
    lines += [f"  violated {name} (slack {slack})" for name, slack in rep.violated[:10]]
    return (OK if rep.feasible else NO), json.loads(report_to_json(rep)), "\n".join(lines)


def _cmd_lp_gap(args):
    gr = gap_report(_load_graph(args.graph), limits=_limits(args))
    payload = {
        "n": gr.n,
        "fractional_objective": str(gr.fractional_objective),
        "pcc": gr.pcc,
        "pcc_proven": gr.pcc_proven,
        "ratio": str(gr.ratio),
    }
    kind = "exact" if gr.pcc_proven else "upper bound, unproven"
    return OK, payload, (
        f"n = {gr.n}: fractional objective {gr.fractional_objective}, "
        f"pcc {gr.pcc} ({kind}), ratio {gr.ratio}"
    )


def _cmd_verify_paper(args):
    outcomes = run_acceptance(args.checks or None)
    payload = [
        {
            "name": o.name,
            "passed": o.passed,
            "elapsed": round(o.elapsed, 3),
            "budget": o.budget,
            "detail": o.detail,
        }
        for o in outcomes
    ]
    width = max(len(o.name) for o in outcomes)
    lines = [
        f"{'PASS' if o.passed else 'FAIL'}  {o.name:<{width}}  {o.elapsed:7.2f}s  {o.detail}"
        for o in outcomes
    ]
    lines.append(f"{sum(o.passed for o in outcomes)}/{len(outcomes)} checks passed")
    return (OK if all(o.passed for o in outcomes) else NO), payload, "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser


def _add_graph_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="graph JSON file")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("parallel", "sequential"), default="parallel")
    p.add_argument("--max-states", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pebblecc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph as JSON")
    p.add_argument("kind", choices=("chain", "pyramid", "complete", "layered_random"))
    p.add_argument("params", nargs="+", help="generator arguments (sizes)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("depth", help="longest-path depth of a graph")
    _add_graph_flag(p)
    p.add_argument("--convention", choices=("nodes", "edges"), default="nodes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_depth)

    p = sub.add_parser("pebble-check", help="validate a pebbling against a graph")
    _add_graph_flag(p)
    p.add_argument("pebbling", help="pebbling JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_pebble_check)

    p = sub.add_parser("cost", help="cost metrics of a pebbling")
    p.add_argument("pebbling", help="pebbling JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser("pcc", help="exact minimum cumulative cost")
    _add_graph_flag(p)
    _add_search_flags(p)
    p.add_argument("--seed", type=int, default=None, help="known achievable cc to seed pruning")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_pcc)

    p = sub.add_parser("pcc-bounded", help="exact minimum cc within a round budget")
    _add_graph_flag(p)
    _add_search_flags(p)
    p.add_argument("--horizon", type=int, required=True, help="round budget t_max")
    p.add_argument("--seed", type=int, default=None, help="cost cap: prove nothing <= cap exists")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_pcc_bounded)

    p = sub.add_parser("min-st", help="exact minimum space-time cost")
    _add_graph_flag(p)
    _add_search_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_min_st)

    p = sub.add_parser("min-space", help="exact minimum pebble count")
    _add_graph_flag(p)
    _add_search_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_min_space)

    p = sub.add_parser("b2lc-solve", help="decide a covering instance exhaustively")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_b2lc_solve)

    p = sub.add_parser("3part-solve", help="decide a 3-partition instance")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_3part_solve)

    p = sub.add_parser("reduce", help="reduction constructions")
    rsub = p.add_subparsers(dest="reduction", required=True)

    rp = rsub.add_parser("3part-to-b2lc", help="3-partition to covering equations")
    rp.add_argument("instance")
    rp.set_defaults(fn=_cmd_reduce_3part)

    rp = rsub.add_parser("b2lc-to-graph", help="covering instance to pebbling gadget")
    rp.add_argument("instance")
    rp.add_argument("--tau", type=int, default=None, help="chain replication override")
    rp.set_defaults(fn=_cmd_reduce_b2lc)

    rp = rsub.add_parser("vc", help="undirected graph to depth-reduction gadget")
    rp.add_argument("instance", help="undirected graph JSON file")
    rp.add_argument("--convention", choices=("nodes", "edges"), default="nodes")
    rp.set_defaults(fn=_cmd_reduce_vc, json=True)  # always prints JSON

    rp = rsub.add_parser("indeg", help="indegree-2 transform")
    _add_graph_flag(rp)
    rp.set_defaults(fn=_cmd_reduce_indeg)

    rp = rsub.add_parser("append-chain", help="append an amplifier chain to all sinks")
    _add_graph_flag(rp)
    rp.add_argument("length", type=int, nargs="?", default=None)
    rp.set_defaults(fn=_cmd_reduce_append)

    rp = rsub.add_parser("counterexample", help="the 16-node gap counterexample")
    rp.set_defaults(fn=_cmd_reduce_counterexample)

    p = sub.add_parser("depth-check", help="depth reducibility decision or minimum set")
    _add_graph_flag(p)
    p.add_argument("d", type=int, help="target residual depth")
    p.add_argument("e", type=int, nargs="?", default=None, help="removal budget (decision form)")
    p.add_argument("--convention", choices=("nodes", "edges"), default="nodes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_depth_check)

    p = sub.add_parser("lp", help="integer programs and fractional points")
    lsub = p.add_subparsers(dest="lp_command", required=True)

    lp = lsub.add_parser("build-pebbling", help="pebbling ip size summary")
    _add_graph_flag(lp)
    lp.add_argument("--horizon", type=int, default=None)
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(fn=_cmd_lp_build_pebbling)

    lp = lsub.add_parser("build-reducible", help="reducibility ip size summary")
    _add_graph_flag(lp)
    lp.add_argument("d", type=int)
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(fn=_cmd_lp_build_reducible)

    for verb, handler, blurb in (
        ("emit", _cmd_lp_emit, "write a model as LP-file text"),
        ("relax", _cmd_lp_relax, "write a model's relaxation as LP-file text"),
    ):
        lp = lsub.add_parser(verb, help=blurb)
        lp.add_argument("target", choices=("pebbling", "reducible"))
        _add_graph_flag(lp)
        lp.add_argument("--d", type=int, default=None, help="depth bound (reducible target)")
        lp.add_argument("--horizon", type=int, default=None)
        lp.set_defaults(fn=handler)

    lp = lsub.add_parser("frac-pebbling", help="staircase fractional point")
    _add_graph_flag(lp)
    lp.add_argument("--horizon", type=int, default=None)
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(fn=_cmd_lp_frac_pebbling)

    lp = lsub.add_parser("frac-timed", help="timed fractional point with feasibility report")
    _add_graph_flag(lp)
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(fn=_cmd_lp_frac_timed)

    lp = lsub.add_parser("frac-reducible", help="uniform fractional removal point")
    _add_graph_flag(lp)
    lp.add_argument("d", type=int)
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(fn=_cmd_lp_frac_reducible)

    lp = lsub.add_parser("verify", help="check a solution file against a relaxed model")
    lp.add_argument("target", choices=("pebbling", "reducible"))
    _add_graph_flag(lp)
    lp.add_argument("solution", help="solution JSON file")
    lp.add_argument("--d", type=int, default=None, help="depth bound (reducible target)")
    lp.add_argument("--horizon", type=int, default=None)
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(fn=_cmd_lp_verify)

    lp = lsub.add_parser("gap", help="fractional objective against exact pcc")
    _add_graph_flag(lp)
    lp.add_argument("--max-states", type=int, default=None)
    lp.add_argument("--time-budget", type=float, default=None)
    lp.add_argument("--seed", type=int, default=None, help="known achievable cc to seed pruning")
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(fn=_cmd_lp_gap)

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    p.add_argument("checks", nargs="*", help="check names (default: all)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = args.fn(args)
    except (TooLarge, Exhausted) as exc:
        print(f"limit hit: {exc}", file=sys.stderr)
        return LIMIT
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return NO
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    print(json.dumps(payload, indent=2) if getattr(args, "json", False) else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
