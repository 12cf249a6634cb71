"""Command-line front end for the library.

Each subcommand wraps exactly one library operation; verify-paper runs the
acceptance suite of pebblecc.acceptance. Exit codes: 0 success, 1
negative/infeasible verdict, 2 usage error, 3 a search or enumeration cap
was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from .acceptance import run_acceptance
from .b2lc import (
    ThreePartitionInstance,
    b2lc_from_json,
    b2lc_to_json,
    solve_3partition,
    solve_b2lc,
)
from .depth_reduce import is_reducible, min_reducing_set
from .graph import (
    _GENERATORS, CONVENTIONS, Dag, TooLarge, _dag_fields, _from_json, dag_from_json, dag_to_json, depth,
)
from .lp import (
    _fraction_str,
    build_pebbling_ip,
    build_reducible_ip,
    emit,
    fractional_pebbling_solution,
    fractional_reducible_solution,
    fractional_timed_solution,
    gap_report,
    relax,
    staircase_horizon,
    verify_solution,
    LpSolution,
)
from .pebbling import MODES, cost, pebbling_from_json, pebbling_to_json, validate
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


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Dag:
    return dag_from_json(_read(path))


def _load_3part(path: str) -> ThreePartitionInstance:
    elements, n = _from_json(
        _read(path), "3-partition", lambda d: (tuple(int(x) for x in d["elements"]), int(d["n"]))
    )
    return ThreePartitionInstance(elements=elements, n=n)


def _load_solution(path: str) -> LpSolution:
    data = json.loads(_read(path))
    values = data.get("values", data) if isinstance(data, dict) else data
    if not isinstance(values, dict):
        raise ValueError("solution JSON must map variable names to values")
    return LpSolution({k: Fraction(str(v)) for k, v in values.items()})


def _limits(args) -> SearchLimits:
    kw = {"max_states": args.max_states, "time_budget": args.time_budget}
    return SearchLimits(**{k: v for k, v in kw.items() if v is not None})


# ---------------------------------------------------------------------------
# Subcommand handlers
#
# Each returns (exit code, JSON payload, text). Commands without --json return
# None for the payload.


def _cmd_gen(args):
    if len(args.params) != 1:
        raise ValueError(f"gen {args.kind} takes one size, got {len(args.params)}")
    params = [int(args.params[0])]
    if args.kind == "layered_random":
        params.append(args.seed if args.seed is not None else 0)
    return OK, None, dag_to_json(_GENERATORS[args.kind](*params))


def _cmd_depth(args):
    d = depth(_load_graph(args.graph), args.convention)
    return OK, {"depth": d, "convention": args.convention}, f"depth ({args.convention}) = {d}"


def _cmd_pebble_check(args):
    verdict = validate(_load_graph(args.graph), pebbling_from_json(_read(args.pebbling)))
    payload = asdict(verdict)
    if verdict.legal:
        return OK, payload, "legal"
    rnd, node, reason = verdict.first_violation
    return NO, payload, f"illegal: round {rnd}, node {node}, {reason}"


def _cmd_cost(args):
    c = cost(pebbling_from_json(_read(args.pebbling)))
    payload = asdict(c)
    return OK, payload, "cc = {cc}  st = {st}  t = {t}  max_space = {max_space}".format(**payload)


def _cmd_search(args):
    """Run args.search, with the bounds the command takes (t_max, cost_cap),
    and report its optimum under args.label."""
    g, label = _load_graph(args.graph), args.label
    bounds = {k: getattr(args, k) for k in ("t_max", "cost_cap") if k in args}
    res = args.search(g, mode=args.mode, limits=_limits(args), **bounds)
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


def _cmd_b2lc_solve(args):
    covered, w = solve_b2lc(b2lc_from_json(_read(args.instance)))
    if not covered:
        return NO, {"covered": False}, "not coverable"
    return OK, {"covered": True, **asdict(w)}, f"coverable: groups {w.group_of}, assignments {w.values}"


def _cmd_3part_solve(args):
    yes, triples = solve_3partition(_load_3part(args.instance))
    payload = {"partitionable": yes, "triples": [list(t) for t in triples or ()]}
    if yes:
        return OK, payload, f"partitionable: {triples}"
    return NO, payload, "not partitionable"


def _cmd_reduce_3part(args):
    return OK, None, b2lc_to_json(threepartition_to_b2lc(_load_3part(args.instance)))


def _cmd_reduce_b2lc(args):
    layout = b2lc_to_graph(b2lc_from_json(_read(args.instance)), tau=args.tau)
    return OK, None, layout_to_json(layout)


def _cmd_reduce_vc(args):
    n, edges = _from_json(
        _read(args.instance), "undirected graph", lambda d: (int(d["n"]), [tuple(e) for e in d["edges"]])
    )
    g, originals = vc_to_reducible(n, edges, args.convention)
    payload = {
        "dag": _dag_fields(g),
        "originals": sorted(originals),
        "convention": args.convention,
    }
    return OK, None, json.dumps(payload, indent=2)


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


def _lp_model(args):
    g = _load_graph(args.graph)
    if args.target == "pebbling":
        return build_pebbling_ip(g, horizon=args.horizon)
    if args.d is None:
        raise ValueError("the reducible model needs the depth bound --d")
    return build_reducible_ip(g, args.d)


def _cmd_lp_build(args):
    m = _lp_model(args)
    n_var, n_con = len(m.names), len(m.row_names)
    if args.target == "pebbling":
        sink, move = m.relations.count(">="), m.relations.count("<=")  # sink rows are >=, move rows <=
        payload = {"variables": n_var, "constraints": n_con,
                   "sink_constraints": sink, "move_constraints": move}
        text = f"pebbling ip: {n_var} variables, {n_con} constraints ({sink} sink, {move} move)"
    else:
        sel, trk = m.n_integral, n_var - m.n_integral  # the selectors are the integral variables
        payload = {"variables": n_var, "selectors": sel, "trackers": trk, "constraints": n_con}
        text = (f"reducible ip: {n_var} variables ({sel} selectors, {trk} trackers), "
                f"{n_con} constraints")
    return OK, payload, text


def _cmd_lp_emit(args):
    m = _lp_model(args)
    return OK, None, emit(relax(m) if args.relaxed else m).rstrip("\n")


def _point_output(sol: LpSolution, rep, text: str):
    payload = {"values": {k: str(v) for k, v in sol.values.items()}, **asdict(rep)}
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
    m = relax(_lp_model(args))
    rep = verify_solution(m, _load_solution(args.solution))
    lines = [f"feasible = {rep.feasible}, objective = {rep.objective}"]
    lines += [f"  violated {name} (slack {slack})" for name, slack in rep.violated[:10]]
    return (OK if rep.feasible else NO), asdict(rep), "\n".join(lines)


def _cmd_lp_gap(args):
    gr = gap_report(_load_graph(args.graph), limits=_limits(args), cost_cap=args.cost_cap)
    kind = "exact" if gr.pcc_proven else "upper bound, unproven"
    return OK, asdict(gr), (
        f"n = {gr.n}: fractional objective {gr.fractional_objective}, "
        f"pcc {gr.pcc} ({kind}), ratio {gr.ratio}"
    )


def _cmd_verify_paper(args):
    outcomes = run_acceptance(args.checks or None)
    payload = [{**asdict(o), "elapsed": round(o.elapsed, 3)} for o in outcomes]
    width = max(len(o.name) for o in outcomes)
    lines = [
        f"{'PASS' if o.passed else 'FAIL'}  {o.name:<{width}}  {o.elapsed:7.2f}s  {o.detail}"
        for o in outcomes
    ]
    lines.append(f"{sum(o.passed for o in outcomes)}/{len(outcomes)} checks passed")
    return (OK if all(o.passed for o in outcomes) else NO), payload, "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser


def _arg(*flags, **kw):
    """An argument spec for _command: add_argument's arguments."""
    return flags, kw


def _command(sub, name: str, help: str, fn, *specs, json: bool = True, **defaults) -> None:
    """Add leaf command `name`: its argument specs in order, then --json
    unless the command always prints JSON or LP text."""
    p = sub.add_parser(name, help=help)
    for flags, kw in specs:
        p.add_argument(*flags, **kw)
    if json:
        p.add_argument("--json", action="store_true")
    p.set_defaults(fn=fn, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pebblecc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # argument specs that several commands share
    GRAPH = _arg("--graph", required=True, help="graph JSON file")
    LIMITS = (
        _arg("--max-states", type=int, default=None),
        _arg("--time-budget", type=float, default=None),
    )
    SEARCH = (_arg("--mode", choices=MODES, default="parallel"), *LIMITS)
    SEED = _arg("--seed", type=int, default=None, dest="cost_cap", metavar="SEED",
                help="cost cap: find the optimum if it is at most SEED, else exit 1")
    CONVENTION = _arg("--convention", choices=CONVENTIONS, default="nodes")
    HORIZON = _arg("--horizon", type=int, default=None)
    PEBBLING = _arg("pebbling", help="pebbling JSON file")
    INSTANCE = _arg("instance", help="instance JSON file")
    TARGET = _arg("target", choices=("pebbling", "reducible"))
    D_POS = _arg("d", type=int)
    D_OPT = _arg("--d", type=int, default=None, help="depth bound (reducible target)")

    _command(
        sub, "gen", "generate a graph as JSON", _cmd_gen,
        _arg("kind", choices=tuple(_GENERATORS)),
        _arg("params", nargs="+", help="generator arguments (sizes)"),
        _arg("--seed", type=int, default=None),
        json=False,
    )
    _command(sub, "depth", "longest-path depth of a graph", _cmd_depth, GRAPH, CONVENTION)
    _command(sub, "pebble-check", "validate a pebbling against a graph", _cmd_pebble_check,
             GRAPH, PEBBLING)
    _command(sub, "cost", "cost metrics of a pebbling", _cmd_cost, PEBBLING)
    _command(sub, "pcc", "exact minimum cumulative cost", _cmd_search, GRAPH, *SEARCH, SEED,
             search=exact_pcc, label="pcc")
    _command(
        sub, "pcc-bounded", "exact minimum cc within a round budget", _cmd_search,
        GRAPH, *SEARCH, _arg("--horizon", type=int, required=True, dest="t_max", metavar="HORIZON",
                             help="round budget t_max"),
        SEED, search=exact_pcc_bounded, label="bounded_cc",
    )
    _command(sub, "min-st", "exact minimum space-time cost", _cmd_search, GRAPH, *SEARCH,
             search=exact_min_st, label="min_st")
    _command(sub, "min-space", "exact minimum pebble count", _cmd_search, GRAPH, *SEARCH,
             search=exact_min_space, label="min_space")
    _command(sub, "b2lc-solve", "decide a covering instance exhaustively", _cmd_b2lc_solve,
             INSTANCE)
    _command(sub, "3part-solve", "decide a 3-partition instance", _cmd_3part_solve, INSTANCE)

    rsub = sub.add_parser("reduce", help="reduction constructions").add_subparsers(
        dest="reduction", required=True
    )
    _command(rsub, "3part-to-b2lc", "3-partition to covering equations", _cmd_reduce_3part,
             _arg("instance"), json=False)
    _command(rsub, "b2lc-to-graph", "covering instance to pebbling gadget", _cmd_reduce_b2lc,
             _arg("instance"),
             _arg("--tau", type=int, default=None, help="chain replication override"),
             json=False)
    _command(rsub, "vc", "undirected graph to depth-reduction gadget", _cmd_reduce_vc,
             _arg("instance", help="undirected graph JSON file"), CONVENTION, json=False)
    _command(rsub, "indeg", "indegree-2 transform", _cmd_reduce_indeg, GRAPH, json=False)
    _command(rsub, "append-chain", "append an amplifier chain to all sinks", _cmd_reduce_append,
             GRAPH, _arg("length", type=int, nargs="?", default=None), json=False)
    _command(rsub, "counterexample", "the 16-node gap counterexample",
             _cmd_reduce_counterexample, json=False)

    _command(
        sub, "depth-check", "depth reducibility decision or minimum set", _cmd_depth_check,
        GRAPH, _arg("d", type=int, help="target residual depth"),
        _arg("e", type=int, nargs="?", default=None, help="removal budget (decision form)"),
        CONVENTION,
    )

    lsub = sub.add_parser("lp", help="integer programs and fractional points").add_subparsers(
        dest="lp_command", required=True
    )
    _command(lsub, "build-pebbling", "pebbling ip size summary", _cmd_lp_build, GRAPH, HORIZON,
             target="pebbling")
    _command(lsub, "build-reducible", "reducibility ip size summary", _cmd_lp_build,
             GRAPH, D_POS, target="reducible")
    _command(lsub, "emit", "write a model as LP-file text", _cmd_lp_emit,
             TARGET, GRAPH, D_OPT, HORIZON, json=False, relaxed=False)
    _command(lsub, "relax", "write a model's relaxation as LP-file text", _cmd_lp_emit,
             TARGET, GRAPH, D_OPT, HORIZON, json=False, relaxed=True)
    _command(lsub, "frac-pebbling", "staircase fractional point", _cmd_lp_frac_pebbling,
             GRAPH, HORIZON)
    _command(lsub, "frac-timed", "timed fractional point with feasibility report",
             _cmd_lp_frac_timed, GRAPH)
    _command(lsub, "frac-reducible", "uniform fractional removal point",
             _cmd_lp_frac_reducible, GRAPH, D_POS)
    _command(lsub, "verify", "check a solution file against a relaxed model", _cmd_lp_verify,
             TARGET, GRAPH, _arg("solution", help="solution JSON file"), D_OPT, HORIZON)
    _command(lsub, "gap", "fractional objective against exact pcc", _cmd_lp_gap,
             GRAPH, *LIMITS, SEED)

    _command(sub, "verify-paper", "run the acceptance suite", _cmd_verify_paper,
             _arg("checks", nargs="*", help="check names (default: all)"))
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
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    print(json.dumps(payload, indent=2, default=_fraction_str) if getattr(args, "json", False) else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
