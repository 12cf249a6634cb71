"""Command-line front end for the library, including the verify-paper suite.

Each subcommand wraps exactly one library operation. Exit codes: 0 success,
1 negative/infeasible verdict, 2 usage error, 3 a search or enumeration cap
was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .b2lc import (
    B2lcInstance,
    ThreePartitionInstance,
    b2lc_from_json,
    b2lc_to_json,
    solve_3partition,
    solve_b2lc,
)
from .depth_reduce import is_reducible, min_reducing_set
from .graph import Dag, TooLarge, chain, dag_from_json, dag_to_json, depth, generate, layered_random, pyramid
from .lp import (
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
    verify_solution,
    LpSolution,
)
from .pebbling import (
    claim_c1_pebbling,
    cost,
    pebbling_from_json,
    pebbling_to_json,
    random_legal_pebbling,
    reduction_pebbling,
    sync_normalize,
    trivial_pebbling,
    validate,
)
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

__all__ = ["main", "run_acceptance", "CheckOutcome", "ACCEPTANCE_CHECKS"]

OK, NO, USAGE, LIMIT = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# Acceptance suite
#
# One check per published acceptance criterion. Checks return (passed,
# detail); run_acceptance adds timing and enforces each stated budget.


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    elapsed: float
    budget: float
    detail: str


def _check_counterexample_upper() -> tuple[bool, str]:
    g = counterexample_dag()
    p = claim_c1_pebbling()
    verdict = validate(g, p)
    c = cost(p)
    ok = verdict.legal and c.cc == 27 and c.t == 18
    return ok, f"legal={verdict.legal} cc={c.cc} t={c.t}"


def _check_counterexample_gap() -> tuple[bool, str]:
    g = counterexample_dag()
    res = exact_pcc(g, limits=SearchLimits(upper_bound_seed=27))
    if not (res.proven and res.optimum == 27):
        return False, f"unrestricted search gave {res.optimum} (proven={res.proven})"
    try:
        exact_pcc_bounded(g, t_max=16, cost_cap=27)
    except Infeasible:
        return True, "pcc = 27; no 16-round pebbling has cc <= 27; ratio >= 28/27"
    return False, "a 16-round pebbling with cc <= 27 exists; no gap"


def _staircase_closed_form(n: int) -> Fraction:
    if n == 1:
        return Fraction(1)
    ramp = (n - 1).bit_length()
    return (
        Fraction(n + 1, 2)
        + sum(min(Fraction(n), Fraction(2**j)) for j in range(1, ramp))
        + n
    )


def _check_staircase_corpus() -> tuple[bool, str]:
    corpus = [chain(n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64)]
    corpus += [pyramid(k) for k in range(2, 11)]
    corpus += [
        layered_random(n, seed)
        for n in (5, 9, 14, 20, 27, 35, 44, 54, 64)
        for seed in (1, 2, 3)
    ]
    for g in corpus:
        h = g.n + (g.n - 1).bit_length()
        sol = fractional_pebbling_solution(g, horizon=h)
        rep = verify_solution(relax(build_pebbling_ip(g, horizon=h)), sol)
        if not rep.feasible:
            return False, f"infeasible on n={g.n}: {rep.violated[:2]}"
        if rep.objective > 4 * g.n:
            return False, f"objective {rep.objective} > 4n on n={g.n}"
        if g.n > 1 and rep.objective != _staircase_closed_form(g.n):
            return False, f"objective mismatch on n={g.n}"
    return True, f"{len(corpus)} dags: feasible, objective = closed form, <= 4n"


def _check_reducible_point() -> tuple[bool, str]:
    for n in range(1, 33):
        g = chain(n)
        for d in range(1, n + 1):
            sol = fractional_reducible_solution(g, d)
            rep = verify_solution(relax(build_reducible_ip(g, d)), sol)
            if not rep.feasible or rep.objective != Fraction(n, d):
                return False, f"failed at n={n} d={d}: {rep.objective}"
    return True, "528 (n,d) pairs feasible with objective n/d"


def _check_embeddings() -> tuple[bool, str]:
    graphs = [chain(n) for n in (2, 3, 4, 5, 6)] + [pyramid(2), pyramid(3)]
    graphs += [layered_random(n, s) for n in (4, 5, 6, 7) for s in (0, 1)]
    pebblings = []
    for g in graphs:
        pebblings.append((g, trivial_pebbling(g)))
        for s in range(7):
            pebblings.append((g, random_legal_pebbling(g, seed=s, mode="parallel")))
            pebblings.append(
                (g, random_legal_pebbling(g, seed=100 + s, mode="sequential"))
            )
    pebblings = pebblings[:200]
    if len(pebblings) < 200:
        return False, f"only {len(pebblings)} pebblings generated"
    for g, p in pebblings:
        sol = pebbling_to_solution(g, p, horizon=p.t)
        rep = verify_solution(build_pebbling_ip(g, horizon=p.t), sol)
        if not rep.feasible or rep.objective != cost(p).cc:
            return False, f"embedding mismatch on n={g.n}, t={p.t}"
    return True, "200 legal pebblings embed feasibly with objective = cc"


def _check_reduction_chain() -> tuple[bool, str]:
    promise_checked = promise_yes = yes_total = disagreements = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (1, 2):
            for elems in combinations_with_replacement(range(1, 5), 3 * n):
                inst3 = ThreePartitionInstance(elements=elems, n=n)
                direct, _ = solve_3partition(inst3)
                b2lc = threepartition_to_b2lc(inst3)
                covered, w = solve_b2lc(b2lc, cap=20_000_000)
                if direct and not covered:
                    return False, f"lost yes-instance n={n} {elems}"
                if inst3.promise_satisfied:
                    promise_checked += 1
                    promise_yes += direct
                    if direct != covered:
                        return False, f"promise instance disagrees: n={n} {elems}"
                elif direct != covered:
                    disagreements += 1
                if covered:
                    yes_total += 1
                    layout = b2lc_to_graph(b2lc, tau=2)
                    sched = reduction_pebbling(layout, w)
                    if not validate(layout.graph, sched).legal:
                        return False, f"illegal schedule on n={n} {elems}"
                    if cost(sched).cc > layout.pebbling_cost_bound():
                        return False, f"cost bound broken on n={n} {elems}"
    return True, (
        f"promise instances agree ({promise_yes}/{promise_checked} yes); every "
        f"3-partition yes maps to a covered instance; all {yes_total} witness "
        f"schedules legal within the cc bound ({disagreements} disagreements "
        f"outside the promise, where bucket sizes other than 3 are allowed)"
    )


def _min_vertex_cover(v: int, edges: list[tuple[int, int]]) -> int:
    if not edges:
        return 0
    for k in range(0, v + 1):
        for sub in combinations(range(1, v + 1), k):
            s = set(sub)
            if all(a in s or b in s for a, b in edges):
                return k
    return v


def _check_vc_threshold() -> tuple[bool, str]:
    # The gadget's chain lengths scale with the vertex count v, so each v
    # keeps its own set of depth thresholds.
    survivors: dict[str, dict[int, list[int]]] = {}
    for conv, dmax in (("nodes", 5), ("edges", 6)):
        per_v: dict[int, list[int]] = {}
        for v in range(1, 6):
            live = set(range(dmax + 1))
            pairs = list(combinations(range(1, v + 1), 2))
            for r in range(len(pairs) + 1):
                for es in combinations(pairs, r):
                    if not live:
                        break
                    k = _min_vertex_cover(v, list(es))
                    g, _ = vc_to_reducible(v, es, conv)
                    for d in sorted(live):
                        ok = is_reducible(g, k, d, conv).reducible
                        if ok and k > 0:
                            ok = not is_reducible(g, k - 1, d, conv).reducible
                        if not ok:
                            live.discard(d)
            per_v[v] = sorted(live)
            if not live:
                break
        survivors[conv] = per_v
    found = {c: t for c, t in survivors.items() if len(t) == 5 and all(t.values())}
    if found:
        return True, f"thresholds per vertex count: {found}"
    return False, (
        "no convention keeps a depth threshold for every vertex count up to 5: "
        "at each d some decorated graph's minimum depth-reducing set differs "
        "from its minimum vertex cover; thresholds per vertex count (the scan "
        f"stops at the first empty one): {survivors}"
    )


def _check_sync_properties() -> tuple[bool, str]:
    tiny = B2lcInstance(n_vars=3, m=1, equations=((1, 1, 2), (2, 2, 3)))
    layout = b2lc_to_graph(tiny, tau=2)
    broke_legality = first_break = None
    for seed in range(200):
        p = random_legal_pebbling(layout.graph, seed=seed)
        q = sync_normalize(layout, p)
        if cost(q).cc > cost(p).cc:
            return False, f"cc increased at seed {seed}"
        if sync_normalize(layout, q) != q:
            return False, f"not idempotent at seed {seed}"
        verdict = validate(layout.graph, q)
        if not verdict.legal and first_break is None:
            broke_legality = seed
            first_break = verdict.first_violation
    spot_inst = B2lcInstance(n_vars=2, m=1, equations=((1, 1, 2), (2, 1, 1)))
    spot = b2lc_to_graph(spot_inst, tau=2)
    res = exact_pcc(spot.graph, limits=SearchLimits(max_states=80_000_000))
    spot_ok = (
        res.proven
        and res.optimum == 19
        and sync_normalize(spot, res.witness) == res.witness
    )
    if broke_legality is None and spot_ok:
        return True, "sync preserved legality on all 200; optimal witness synchronized"
    parts = []
    if broke_legality is not None:
        parts.append(
            "sync broke legality on randomized pebblings (first at seed "
            f"{broke_legality}, violation {first_break}): a placement in the "
            "synchronized schedule lacks a parent in the previous round"
        )
    parts.append(
        "cc never increased and the transform was idempotent on all 200; "
        f"15-node layout optimum {res.optimum} with synchronized witness: {spot_ok}"
    )
    return False, "; ".join(parts)


def _check_space_bounds() -> tuple[bool, str]:
    s2 = exact_min_space(pyramid(2))
    s3 = exact_min_space(pyramid(3))
    if not (s2.optimum >= 2 and s3.optimum >= 3):
        return False, f"pyramid space bound broken: {s2.optimum}, {s3.optimum}"
    for n in range(1, 9):
        r = exact_min_st(chain(n))
        if r.optimum != n:
            return False, f"min st on chain({n}) = {r.optimum}"
    return True, (
        f"min space: pyramid(2) = {s2.optimum}, pyramid(3) = {s3.optimum}; "
        "min st on chain(n) = n for n <= 8"
    )


def _check_trivial_bounds() -> tuple[bool, str]:
    for i in range(100):
        n = 3 + (i % 8)
        g = layered_random(n, seed=1000 + i)
        lo = depth(g, "nodes")
        par = exact_pcc(g).optimum
        seq = exact_pcc(g, mode="sequential").optimum
        if not (lo <= par <= n * (n + 1) // 2 and par <= seq):
            return False, f"bounds broken on seed {1000 + i}: {lo}, {par}, {seq}"
    return True, "100 random dags: depth <= pcc <= n(n+1)/2 and parallel <= sequential"


ACCEPTANCE_CHECKS: tuple[tuple[str, float, object], ...] = (
    ("counterexample-upper", 1.0, _check_counterexample_upper),
    ("counterexample-gap", 900.0, _check_counterexample_gap),
    ("staircase-corpus", 10.0, _check_staircase_corpus),
    ("reducible-point", 10.0, _check_reducible_point),
    ("ip-embedding", 30.0, _check_embeddings),
    ("reduction-chain", 300.0, _check_reduction_chain),
    ("vc-threshold", 300.0, _check_vc_threshold),
    ("sync-properties", 300.0, _check_sync_properties),
    ("space-bounds", 120.0, _check_space_bounds),
    ("trivial-bounds", 300.0, _check_trivial_bounds),
)


def run_acceptance(names: list[str] | None = None) -> list[CheckOutcome]:
    """Run the named checks (all by default) and collect outcomes.

    A check passes only if its predicate holds and it finishes within the
    stated budget.
    """
    known = {name for name, _, _ in ACCEPTANCE_CHECKS}
    if names:
        unknown = set(names) - known
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    outcomes = []
    for name, budget, fn in ACCEPTANCE_CHECKS:
        if names and name not in names:
            continue
        start = time.monotonic()
        passed, detail = fn()
        elapsed = time.monotonic() - start
        if passed and elapsed > budget:
            passed = False
            detail = f"over budget ({elapsed:.1f}s > {budget:.0f}s); {detail}"
        outcomes.append(CheckOutcome(name, passed, elapsed, budget, detail))
    return outcomes


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


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen(args) -> int:
    params = [int(x) for x in args.params]
    if args.kind == "layered_random":
        params.append(args.seed if args.seed is not None else 0)
    g = generate(args.kind, *params)
    print(dag_to_json(g))
    return OK


def _cmd_depth(args) -> int:
    g = _load_graph(args.graph)
    d = depth(g, args.convention)
    if args.json:
        _emit_json({"depth": d, "convention": args.convention})
    else:
        print(f"depth ({args.convention}) = {d}")
    return OK


def _cmd_pebble_check(args) -> int:
    g = _load_graph(args.graph)
    p = _load_pebbling(args.pebbling)
    verdict = validate(g, p)
    if args.json:
        _emit_json({"legal": verdict.legal, "first_violation": verdict.first_violation})
    elif verdict.legal:
        print("legal")
    else:
        rnd, node, reason = verdict.first_violation
        print(f"illegal: round {rnd}, node {node}, {reason}")
    return OK if verdict.legal else NO


def _cmd_cost(args) -> int:
    p = _load_pebbling(args.pebbling)
    c = cost(p)
    if args.json:
        _emit_json({"cc": c.cc, "st": c.st, "t": c.t, "max_space": c.max_space})
    else:
        print(f"cc = {c.cc}  st = {c.st}  t = {c.t}  max_space = {c.max_space}")
    return OK


def _search_output(args, res, label: str) -> int:
    if args.json:
        _emit_json(
            {
                label: res.optimum,
                "proven": res.proven,
                "expanded_states": res.expanded_states,
                "witness": [list(r) for r in res.witness.rounds],
            }
        )
    else:
        print(f"{label} = {res.optimum} (proven={res.proven}, expanded={res.expanded_states})")
        print(f"witness: {pebbling_to_json(res.witness)}")
    return OK


def _cmd_pcc(args) -> int:
    g = _load_graph(args.graph)
    res = exact_pcc(g, mode=args.mode, limits=_limits(args))
    return _search_output(args, res, "pcc")


def _cmd_pcc_bounded(args) -> int:
    g = _load_graph(args.graph)
    res = exact_pcc_bounded(
        g, t_max=args.horizon, mode=args.mode, limits=_limits(args), cost_cap=args.seed
    )
    return _search_output(args, res, "bounded_cc")


def _cmd_min_st(args) -> int:
    g = _load_graph(args.graph)
    res = exact_min_st(g, mode=args.mode, limits=_limits(args))
    return _search_output(args, res, "min_st")


def _cmd_min_space(args) -> int:
    g = _load_graph(args.graph)
    res = exact_min_space(g, mode=args.mode, limits=_limits(args))
    return _search_output(args, res, "min_space")


def _cmd_b2lc_solve(args) -> int:
    inst = _load_b2lc(args.instance)
    covered, w = solve_b2lc(inst)
    if args.json:
        payload = {"covered": covered}
        if w:
            payload["group_of"] = list(w.group_of)
            payload["values"] = [list(row) for row in w.values]
        _emit_json(payload)
    elif covered:
        print(f"coverable: groups {w.group_of}, assignments {w.values}")
    else:
        print("not coverable")
    return OK if covered else NO


def _cmd_3part_solve(args) -> int:
    inst = _load_3part(args.instance)
    yes, triples = solve_3partition(inst)
    if args.json:
        _emit_json({"partitionable": yes, "triples": [list(t) for t in triples or ()]})
    elif yes:
        print(f"partitionable: {triples}")
    else:
        print("not partitionable")
    return OK if yes else NO


def _cmd_reduce_3part(args) -> int:
    inst = _load_3part(args.instance)
    print(b2lc_to_json(threepartition_to_b2lc(inst)))
    return OK


def _cmd_reduce_b2lc(args) -> int:
    inst = _load_b2lc(args.instance)
    layout = b2lc_to_graph(inst, tau=args.tau)
    print(layout_to_json(layout))
    return OK


def _cmd_reduce_vc(args) -> int:
    with open(args.instance, encoding="utf-8") as fh:
        data = json.load(fh)
    edges = [tuple(e) for e in data["edges"]]
    g, originals = vc_to_reducible(int(data["n"]), edges, args.convention)
    _emit_json(
        {
            "dag": json.loads(dag_to_json(g)),
            "originals": sorted(originals),
            "convention": args.convention,
        }
    )
    return OK


def _cmd_reduce_indeg(args) -> int:
    g = _load_graph(args.graph)
    print(dag_to_json(reduce_indegree(g)))
    return OK


def _cmd_reduce_append(args) -> int:
    g = _load_graph(args.graph)
    length = args.length if args.length is not None else amplifier_chain_length(g.n)
    print(dag_to_json(append_chain(g, length)))
    return OK


def _cmd_reduce_counterexample(args) -> int:
    print(dag_to_json(counterexample_dag()))
    return OK


def _cmd_depth_check(args) -> int:
    g = _load_graph(args.graph)
    if args.e is not None:
        res = is_reducible(g, args.e, args.d, args.convention)
        if args.json:
            _emit_json(
                {
                    "reducible": res.reducible,
                    "witness_set": sorted(res.witness_set) if res.reducible else None,
                    "residual_depth": res.residual_depth,
                }
            )
        elif res.reducible:
            print(f"({args.e},{args.d})-reducible via {sorted(res.witness_set)}")
        else:
            print(f"not ({args.e},{args.d})-reducible")
        return OK if res.reducible else NO
    e_min, witness = min_reducing_set(g, args.d, args.convention)
    if args.json:
        _emit_json({"e_min": e_min, "witness_set": sorted(witness)})
    else:
        print(f"minimum removing set for depth <= {args.d}: {sorted(witness)} (size {e_min})")
    return OK


def _lp_model(args, target: str):
    g = _load_graph(args.graph)
    if target == "pebbling":
        return build_pebbling_ip(g, horizon=args.horizon)
    if args.d is None:
        raise ValueError("the reducible model needs the depth bound --d")
    return build_reducible_ip(g, args.d)


def _cmd_lp_build_pebbling(args) -> int:
    m = build_pebbling_ip(_load_graph(args.graph), horizon=args.horizon)
    payload = {
        "variables": len(m.variables),
        "constraints": len(m.constraints),
        "sink_constraints": sum(c.name.startswith("sink") for c in m.constraints),
        "move_constraints": sum(c.name.startswith("move") for c in m.constraints),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(
            "pebbling ip: {variables} variables, {constraints} constraints "
            "({sink_constraints} sink, {move_constraints} move)".format(**payload)
        )
    return OK


def _cmd_lp_build_reducible(args) -> int:
    m = build_reducible_ip(_load_graph(args.graph), args.d)
    payload = {
        "variables": len(m.variables),
        "selectors": sum(v.name.startswith("s_") for v in m.variables),
        "trackers": sum(v.name.startswith("d_") for v in m.variables),
        "constraints": len(m.constraints),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(
            "reducible ip: {variables} variables ({selectors} selectors, "
            "{trackers} trackers), {constraints} constraints".format(**payload)
        )
    return OK


def _cmd_lp_emit(args) -> int:
    print(emit(_lp_model(args, args.target)), end="")
    return OK


def _cmd_lp_relax(args) -> int:
    print(emit(relax(_lp_model(args, args.target))), end="")
    return OK


def _solution_payload(sol: LpSolution, rep) -> dict:
    return {
        "values": {k: str(v) for k, v in sol.values.items()},
        **json.loads(report_to_json(rep)),
    }


def _cmd_lp_frac_pebbling(args) -> int:
    g = _load_graph(args.graph)
    h = args.horizon if args.horizon is not None else g.n + (g.n - 1).bit_length()
    sol = fractional_pebbling_solution(g, horizon=h)
    rep = verify_solution(relax(build_pebbling_ip(g, horizon=h)), sol)
    if args.json:
        _emit_json(_solution_payload(sol, rep))
    else:
        print(f"objective = {rep.objective} (feasible={rep.feasible}, horizon={h})")
    return OK if rep.feasible else NO


def _cmd_lp_frac_timed(args) -> int:
    sol, rep = fractional_timed_solution(_load_graph(args.graph))
    if args.json:
        _emit_json(_solution_payload(sol, rep))
    else:
        print(f"objective = {rep.objective} (feasible={rep.feasible})")
        if not rep.feasible:
            print(f"first violation: {rep.violated[0]}")
    return OK if rep.feasible else NO


def _cmd_lp_frac_reducible(args) -> int:
    g = _load_graph(args.graph)
    sol = fractional_reducible_solution(g, args.d)
    rep = verify_solution(relax(build_reducible_ip(g, args.d)), sol)
    if args.json:
        _emit_json(_solution_payload(sol, rep))
    else:
        print(f"objective = {rep.objective} (feasible={rep.feasible})")
    return OK if rep.feasible else NO


def _cmd_lp_verify(args) -> int:
    m = relax(_lp_model(args, args.target))
    rep = verify_solution(m, _load_solution(args.solution))
    if args.json:
        _emit_json(json.loads(report_to_json(rep)))
    else:
        print(f"feasible = {rep.feasible}, objective = {rep.objective}")
        for name, slack in rep.violated[:10]:
            print(f"  violated {name} (slack {slack})")
    return OK if rep.feasible else NO


def _cmd_lp_gap(args) -> int:
    g = _load_graph(args.graph)
    gr = gap_report(g, limits=_limits(args))
    if args.json:
        _emit_json(
            {
                "n": gr.n,
                "fractional_objective": str(gr.fractional_objective),
                "pcc": gr.pcc,
                "pcc_proven": gr.pcc_proven,
                "ratio": str(gr.ratio),
            }
        )
    else:
        kind = "exact" if gr.pcc_proven else "upper bound, unproven"
        print(
            f"n = {gr.n}: fractional objective {gr.fractional_objective}, "
            f"pcc {gr.pcc} ({kind}), ratio {gr.ratio}"
        )
    return OK


def _cmd_verify_paper(args) -> int:
    outcomes = run_acceptance(args.checks or None)
    if args.json:
        _emit_json(
            [
                {
                    "name": o.name,
                    "passed": o.passed,
                    "elapsed": round(o.elapsed, 3),
                    "detail": o.detail,
                }
                for o in outcomes
            ]
        )
    else:
        width = max(len(o.name) for o in outcomes)
        for o in outcomes:
            flag = "PASS" if o.passed else "FAIL"
            print(f"{flag}  {o.name:<{width}}  {o.elapsed:7.2f}s  {o.detail}")
        passed = sum(o.passed for o in outcomes)
        print(f"{passed}/{len(outcomes)} checks passed")
    return OK if all(o.passed for o in outcomes) else NO


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
    rp.set_defaults(fn=_cmd_reduce_vc)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TooLarge, Exhausted) as exc:
        print(f"limit hit: {exc}", file=sys.stderr)
        return LIMIT
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return NO
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
