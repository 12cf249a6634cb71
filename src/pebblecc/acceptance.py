"""The verify-paper acceptance suite: one check per published criterion.

Checks return (passed, detail), each at its first failure with a detail that
names it; run_acceptance adds timing and enforces each stated budget. `pebblecc verify-paper` and tests/test_acceptance.py both run
the checks through run_acceptance.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain as iter_chain, combinations, combinations_with_replacement

from .b2lc import B2lcInstance, ThreePartitionInstance, solve_3partition, solve_b2lc
from .depth_reduce import is_reducible
from .graph import chain, depth, layered_random, pyramid
from .lp import (
    build_pebbling_ip,
    build_reducible_ip,
    fractional_pebbling_solution,
    fractional_reducible_solution,
    pebbling_to_solution,
    relax,
    staircase_horizon,
    verify_solution,
)
from .pebbling import cost, random_legal_pebbling, trivial_pebbling, validate
from .reductions import (
    b2lc_to_graph,
    claim_c1_pebbling,
    counterexample_dag,
    reduction_pebbling,
    sync_normalize,
    threepartition_to_b2lc,
    vc_to_reducible,
)
from .search import Infeasible, exact_min_space, exact_min_st, exact_pcc, exact_pcc_bounded

__all__ = ["CheckOutcome", "ACCEPTANCE_CHECKS", "run_acceptance"]


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
    res = exact_pcc(g, cost_cap=27)
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
        h = staircase_horizon(g.n)
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
                covered, w = solve_b2lc(b2lc)
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
            edge_sets = (combinations(pairs, r) for r in range(len(pairs) + 1))
            for es in iter_chain.from_iterable(edge_sets):
                if not live:
                    break
                k = _min_vertex_cover(v, list(es))
                g, _ = vc_to_reducible(v, es, conv)
                for d in sorted(live):
                    # is_reducible tries sizes in increasing order, so its
                    # witness has k nodes iff k suffice and k - 1 do not
                    res = is_reducible(g, k, d, conv)
                    if not (res.reducible and len(res.witness_set) == k):
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
    for seed in range(200):
        p = random_legal_pebbling(layout.graph, seed=seed)
        q = sync_normalize(layout, p)
        if cost(q).cc > cost(p).cc:
            return False, f"cc increased at seed {seed}"
        if sync_normalize(layout, q) != q:
            return False, f"not idempotent at seed {seed}"
        verdict = validate(layout.graph, q)
        if not verdict.legal:
            return False, f"sync broke legality at seed {seed}, violation {verdict.first_violation}"
    spot_inst = B2lcInstance(n_vars=2, m=1, equations=((1, 1, 2), (2, 1, 1)))
    spot = b2lc_to_graph(spot_inst, tau=2)
    res = exact_pcc(spot.graph)
    synced = sync_normalize(spot, res.witness) == res.witness
    if not (res.proven and res.optimum == 19 and synced):
        return False, f"15-node layout: optimum {res.optimum}, proven={res.proven}, synced={synced}"
    return True, "sync preserved legality on all 200; optimal witness synchronized"


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
    unknown = set(names or ()) - {name for name, _, _ in ACCEPTANCE_CHECKS}
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
