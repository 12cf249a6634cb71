"""The three benchmark workloads: inputs built from a seed, jobs, and checks.

A workload is a list of jobs. ``Job.run`` makes the calls into the program,
each wrapped in ``tr.call(<layer span>, ...)``; it is the only timed part.
``Job.check`` is the job's oracle: it receives the job's output, or the
exception the job was expected to raise, and returns None or the reason the
output is wrong. ``Job.counts`` turns an output into per-layer counts for the
traced pass. Outputs are dropped after their check unless ``Job.keep`` is
set, so that a pass does not hold every LP model it built. Everything a
job reads is built once by the workload function, so the program only
ever receives the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable

import oracles as orc

from pebblecc.b2lc import B2lcInstance, ThreePartitionInstance, check_witness, solve_3partition, solve_b2lc
from pebblecc.depth_reduce import greedy_reduce, is_reducible, min_reducing_set, verify_set
from pebblecc.graph import build_dag, chain, complete, layered_random, pyramid
from pebblecc.lp import (
    build_pebbling_ip,
    build_reducible_ip,
    emit,
    fractional_pebbling_solution,
    fractional_reducible_solution,
    fractional_timed_solution,
    pebbling_to_solution,
    relax,
    verify_solution,
)
from pebblecc.pebbling import random_legal_pebbling, reduction_pebbling, validate
from pebblecc.reductions import b2lc_to_graph, counterexample_dag, reduce_indegree, threepartition_to_b2lc, vc_to_reducible
from pebblecc.search import (
    Exhausted,
    Infeasible,
    SearchLimits,
    SearchResult,
    exact_min_space,
    exact_min_st,
    exact_pcc,
    exact_pcc_bounded,
)

TIME_BUDGET = 0.2  # seconds; a budgeted job misses its cap past twice this


@dataclass
class Job:
    name: str
    run: Callable
    check: Callable
    counts: Callable = lambda out: {}
    expect: tuple = ()
    budget: float | None = None
    keep: bool = False  # later checks in the pass read this job's output


def _graph(tr, fn, *args):
    """Build an input graph and fill its lazily computed tables, so that no
    timed job pays for them."""

    def build():
        g = fn(*args)
        g.parent_sets, g.child_sets, g.sinks, g.sources, g.max_indeg
        return g

    return tr.call("graph", build)


# ---------------------------------------------------------------------------
# search jobs


def _search_counts(span: str):
    def counts(out):
        if isinstance(out, Exhausted):
            return {"search.calls": 1, "search.exhausted": 1}
        if isinstance(out, Infeasible):
            return {"search.calls": 1, "search.proven": 1}
        return {
            "search.calls": 1,
            "search.proven": int(out.proven),
            f"{span}.expanded": out.expanded_states,
        }

    return counts


def _witness_problem(g, res, mode: str, rounds: int | None = None) -> str | None:
    if not isinstance(res, SearchResult):
        return f"expected a result, got {res!r}"
    if not res.proven:
        return "result not proven"
    why = orc.illegal(g, res.witness, mode)
    if why:
        return f"witness illegal: {why}"
    if rounds is not None and res.witness.t > rounds:
        return f"witness has {res.witness.t} rounds, more than {rounds}"
    return None


def _pcc_check(g, mode, pinned=None, parallel_twin=None):
    n = g.n

    def check(res, outputs):
        why = _witness_problem(g, res, mode)
        if why:
            return why
        if orc.cc(res.witness) != res.optimum:
            return f"witness cc {orc.cc(res.witness)} != optimum {res.optimum}"
        if not orc.longest_path(g) <= res.optimum <= n * (n + 1) // 2:
            return f"optimum {res.optimum} outside [depth, n(n+1)/2]"
        if pinned is not None and res.optimum != pinned:
            return f"optimum {res.optimum} != {pinned}"
        if parallel_twin is not None:
            par = outputs.get(parallel_twin)
            if not isinstance(par, SearchResult) or par.optimum > res.optimum:
                return f"parallel optimum {getattr(par, 'optimum', par)} > sequential {res.optimum}"
        return None

    return check


def _pcc_job(name, g, mode, pinned=None, parallel_twin=None, keep=False) -> Job:
    return Job(
        name=name,
        run=lambda tr: tr.call("search.exact_pcc", exact_pcc, g, mode),
        check=_pcc_check(g, mode, pinned, parallel_twin),
        counts=_search_counts("search.exact_pcc"),
        keep=keep,
    )


def _relabel(g, rng):
    """An isomorphic copy of g under a random topological order (seeded)."""
    ps = orc.parents_of(g)
    waiting = [len(p) for p in ps]
    children: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        children[u].append(v)
    ready = [v for v in range(1, g.n + 1) if not ps[v]]
    label = {}
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        label[v] = len(label) + 1
        for w in children[v]:
            waiting[w] -= 1
            if not waiting[w]:
                ready.append(w)
    return build_dag(g.n, [(label[u], label[v]) for u, v in g.edges])


def search_pcc(seed: int, tr) -> list[Job]:
    """Best-first exact_pcc on the paper's graphs, a fixed random corpus and
    seeded small random graphs.

    Search cost is invariant under relabeling, so the pyramid and the gadget
    are seeded random relabelings whose optima stay pinned. The counterexample
    and layered_random graphs contain a Hamiltonian path and have only one
    topological labelling. One n=16 layered_random graph costs 0.3-3.1 s
    across seeds (n=14: 0.1-0.4 s), so those two classes are a fixed corpus
    (s = 1, 2 and 1..6) and only the cheap n=12 class is drawn from the seed;
    a seeded n=16 class would spread wall_s by more than its bound. Two n=16
    graphs rather than three keep a pass near 11 s, so that a run holds
    three passes and per-job medians can drop a pass slowed by the machine.
    """
    rng = random.Random(seed)
    ce16 = _graph(tr, counterexample_dag)
    pyr5 = _graph(tr, lambda: _relabel(pyramid(5), rng))
    gadget = tr.call(
        "setup.reductions",
        b2lc_to_graph,
        B2lcInstance(n_vars=2, m=1, equations=((1, 1, 2), (2, 1, 1))),
        tau=2,
    ).graph
    gadget = _graph(tr, _relabel, gadget, rng)
    graphs = [("ce16", ce16, 27, True), ("pyr5", pyr5, 15, True)]
    graphs += [(f"lr16-{s}", _graph(tr, layered_random, 16, s), None, False) for s in (1, 2)]
    graphs += [(f"lr14-{s}", _graph(tr, layered_random, 14, s), None, s <= 3) for s in range(1, 7)]
    for i in range(6):
        s = rng.randrange(1 << 30)
        graphs.append((f"lr12-{s}", _graph(tr, layered_random, 12, s), None, i < 3))
    jobs = []
    for label, g, pinned, sequential_too in graphs:
        par = f"pcc/{label}/parallel"
        jobs.append(_pcc_job(par, g, "parallel", pinned, keep=sequential_too))
        if sequential_too:
            jobs.append(_pcc_job(f"pcc/{label}/sequential", g, "sequential", None, par))
    jobs.append(_pcc_job("pcc/sync-gadget15/parallel", gadget, "parallel", 19))
    return jobs


def _bounded_job(name, g, t_max, cost_cap, pinned) -> Job:
    """pinned: the proven optimum, or Infeasible when no pebbling fits."""

    def check(res, outputs):
        if pinned is Infeasible:
            return None if isinstance(res, Infeasible) else f"expected Infeasible, got {res!r}"
        why = _witness_problem(g, res, "parallel", t_max)
        if why:
            return why
        if orc.cc(res.witness) != res.optimum:
            return f"witness cc {orc.cc(res.witness)} != optimum {res.optimum}"
        if cost_cap is not None and res.optimum > cost_cap:
            return f"optimum {res.optimum} above the cap {cost_cap}"
        if res.optimum < orc.longest_path(g):
            return f"optimum {res.optimum} below the depth"
        if pinned is not None and res.optimum != pinned:
            return f"optimum {res.optimum} != {pinned}"
        return None

    return Job(
        name=name,
        run=lambda tr: tr.call(
            "search.exact_pcc_bounded", exact_pcc_bounded, g, t_max, cost_cap=cost_cap
        ),
        check=check,
        counts=_search_counts("search.exact_pcc_bounded"),
        expect=(Infeasible,) if pinned is Infeasible else (),
    )


def _min_space_job(name, g, floor, pinned) -> Job:
    def check(res, outputs):
        why = _witness_problem(g, res, "parallel")
        if why:
            return why
        if orc.max_space(res.witness) != res.optimum:
            return f"witness space {orc.max_space(res.witness)} != optimum {res.optimum}"
        if res.optimum < floor or (pinned is not None and res.optimum != pinned):
            return f"min space {res.optimum} (floor {floor}, pinned {pinned})"
        return None

    return Job(
        name=name,
        run=lambda tr: tr.call("search.min_space_st", exact_min_space, g),
        check=check,
        counts=_search_counts("search.min_space_st"),
    )


def _min_st_job(name, g, pinned) -> Job:
    def check(res, outputs):
        why = _witness_problem(g, res, "parallel")
        if why:
            return why
        st = res.witness.t * orc.max_space(res.witness)
        if st != res.optimum:
            return f"witness st {st} != optimum {res.optimum}"
        if not orc.longest_path(g) <= res.optimum <= g.n * g.n:
            return f"min st {res.optimum} outside [depth, n^2]"
        if pinned is not None and res.optimum != pinned:
            return f"min st {res.optimum} != {pinned}"
        return None

    return Job(
        name=name,
        run=lambda tr: tr.call("search.min_space_st", exact_min_st, g),
        check=check,
        counts=_search_counts("search.min_space_st"),
    )


def _budgeted_job(name, g) -> Job:
    limits = SearchLimits(time_budget=TIME_BUDGET)
    proven = _pcc_check(g, "parallel")

    def check(out, outputs):
        return None if isinstance(out, Exhausted) else proven(out, outputs)

    return Job(
        name=name,
        run=lambda tr: tr.call("search.budgeted", exact_pcc, g, limits=limits),
        check=check,
        counts=_search_counts("search.budgeted"),
        expect=(Exhausted,),
        budget=TIME_BUDGET,
    )


def search_rounds(seed: int, tr) -> list[Job]:
    """Round-indexed and capped searches that share exact_pcc's successor loops.

    The bounded n=14 graph is fixed (s = 1, as in the search-pcc corpus): at
    t = 14 with cap 40 one such graph takes 0.6-5.8 s depending on its seed.
    """
    rng = random.Random(seed)
    ce16 = _graph(tr, counterexample_dag)
    jobs = [
        _bounded_job("bounded/ce16/t16/cap27", ce16, 16, 27, Infeasible),
        _bounded_job("bounded/ce16/t17/cap27", ce16, 17, 27, Infeasible),
        _bounded_job("bounded/ce16/t18/cap27", ce16, 18, 27, 27),
        _bounded_job("bounded/ce16/t16/cap30", ce16, 16, 30, 28),
        _bounded_job("bounded/pyr4/t7", _graph(tr, pyramid, 4), 7, None, None),
        _bounded_job("bounded/lr14-1/t14/cap40", _graph(tr, layered_random, 14, 1), 14, 40, None),
    ]
    for k in (3, 4):
        g = _graph(tr, pyramid, k)
        jobs.append(_min_space_job(f"min-space/pyr{k}", g, k, None))
        jobs.append(_min_st_job(f"min-st/pyr{k}", g, None))
    for n in (4, 6, 8, 10):
        g = _graph(tr, chain, n)
        jobs.append(_min_space_job(f"min-space/chain{n}", g, 1, 1))
        jobs.append(_min_st_job(f"min-st/chain{n}", g, n))
    for _ in range(3):
        s = rng.randrange(1 << 30)
        g = _graph(tr, layered_random, 12, s)
        jobs.append(_min_space_job(f"min-space/lr12-{s}", g, 1, None))
        jobs.append(_min_st_job(f"min-st/lr12-{s}", g, None))
    for n in (13, 14):
        jobs.append(_budgeted_job(f"budgeted/edgeless{n}", _graph(tr, build_dag, n, [])))
    for n in (20, 22):
        s = rng.randrange(1 << 30)
        jobs.append(_budgeted_job(f"budgeted/lr{n}-{s}", _graph(tr, layered_random, n, s)))
    return jobs


# ---------------------------------------------------------------------------
# certify jobs


@dataclass
class LpOut:
    model: object
    report: object
    values: dict
    text: str | None = None


def _lp_counts(outs: list[LpOut]) -> dict:
    return {
        "lp.verify.rows": sum(len(o.model.constraints) for o in outs),
        "lp.verify.terms": sum(len(c.coeffs) for o in outs for c in o.model.constraints),
        "lp.emit.bytes": sum(len(o.text) for o in outs if o.text is not None),
    }


def _lp_problem(o: LpOut) -> str | None:
    feasible, objective = orc.lp_evaluate(o.model, o.values)
    if not (feasible and o.report.feasible):
        return f"infeasible (oracle {feasible}, verify_solution {o.report.feasible})"
    if objective != o.report.objective:
        return f"objective {o.report.objective} != oracle {objective}"
    if o.text is not None:
        return orc.lp_text_ok(o.model, o.text)
    return None


def _staircase_job(name, g, with_emit: bool) -> Job:
    h = g.n + (g.n - 1).bit_length()

    def run(tr):
        model = tr.call("lp.build", lambda: relax(build_pebbling_ip(g, horizon=h)))
        sol = tr.call("lp.point", fractional_pebbling_solution, g, horizon=h)
        rep = tr.call("lp.verify", verify_solution, model, sol)
        text = tr.call("lp.emit", emit, model) if with_emit else None
        return [LpOut(model, rep, sol.values, text)]

    def check(outs, outputs):
        o = outs[0]
        why = _lp_problem(o)
        if why:
            return why
        if o.report.objective > 4 * g.n:
            return f"objective {o.report.objective} > 4n"
        if g.n > 1 and o.report.objective != orc.staircase_objective(g.n):
            return f"objective {o.report.objective} != closed form"
        return None

    return Job(name, run, check, _lp_counts)


def _reducible_job(name, g, ds) -> Job:
    def run(tr):
        outs = []
        for d in ds:
            model = tr.call("lp.build", lambda: relax(build_reducible_ip(g, d)))
            sol = tr.call("lp.point", fractional_reducible_solution, g, d)
            rep = tr.call("lp.verify", verify_solution, model, sol)
            outs.append(LpOut(model, rep, sol.values))
        return outs

    def check(outs, outputs):
        for d, o in zip(ds, outs):
            why = _lp_problem(o)
            if why:
                return f"d={d}: {why}"
            if o.report.objective != Fraction(g.n, d):
                return f"d={d}: objective {o.report.objective} != n/d"
        return None

    return Job(name, run, check, _lp_counts)


def _timed_job(name, g) -> Job:
    def check(out, outputs):
        sol, rep = out
        model = relax(build_pebbling_ip(g, horizon=g.n))
        feasible, objective = orc.lp_evaluate(model, sol.values)
        if feasible != rep.feasible:
            return f"report says feasible={rep.feasible}, oracle {feasible}"
        if feasible and objective != rep.objective:
            return f"objective {rep.objective} != oracle {objective}"
        if any(sol.values[f"x_{v}_{v}"] != 1 for v in range(1, g.n + 1)):
            return "diagonal not whole"
        return None

    return Job(name, lambda tr: tr.call("lp.point", fractional_timed_solution, g), check)


def _embed_job(name, g, pebblings) -> Job:
    def run(tr):
        outs = []
        for p in pebblings:
            model = tr.call("lp.build", build_pebbling_ip, g, horizon=p.t)
            sol = tr.call("lp.point", pebbling_to_solution, g, p, horizon=p.t)
            rep = tr.call("lp.verify", verify_solution, model, sol)
            outs.append(LpOut(model, rep, sol.values))
        return outs

    def check(outs, outputs):
        for p, o in zip(pebblings, outs):
            why = _lp_problem(o)
            if why:
                return why
            if o.report.objective != orc.cc(p):
                return f"objective {o.report.objective} != cc {orc.cc(p)}"
        return None

    return Job(name, run, check, _lp_counts)


@dataclass
class ChainOut:
    direct: bool
    triples: tuple | None
    b2lc: B2lcInstance
    covered: bool
    witness: object
    layout: object = None
    schedule: object = None
    verdict: object = None


def _chain_job(name, inst3: ThreePartitionInstance) -> Job:
    def run(tr):
        direct, triples = tr.call("b2lc.solve_3partition", solve_3partition, inst3)
        b2 = tr.call("reductions", threepartition_to_b2lc, inst3)
        covered, w = tr.call("b2lc.solve_b2lc", solve_b2lc, b2, cap=20_000_000)
        out = ChainOut(direct, triples, b2, covered, w)
        if covered:
            out.layout = tr.call("reductions", b2lc_to_graph, b2, tau=2)
            out.schedule = tr.call("pebbling.schedule", reduction_pebbling, out.layout, w)
            out.verdict = tr.call("pebbling.validate", validate, out.layout.graph, out.schedule)
        return out

    def check(out, outputs):
        xs = inst3.elements
        if out.direct:
            used = sorted(i for t in out.triples for i in t)
            if used != list(range(len(xs))) or any(
                sum(xs[i] for i in t) * inst3.n != inst3.total for t in out.triples
            ):
                return f"3-partition triples {out.triples} do not partition {xs}"
            if not out.covered:
                return "a 3-partition yes-instance mapped to an uncovered instance"
        if inst3.promise_satisfied and out.direct != out.covered:
            return f"promise instance: 3-partition {out.direct}, b2lc {out.covered}"
        if not out.covered:
            return None
        # check_witness is the library's own independent re-validation
        if not check_witness(out.b2lc, out.witness):
            return "b2lc witness fails check_witness"
        why = orc.illegal(out.layout.graph, out.schedule, "parallel")
        if why or not out.verdict.legal:
            return f"schedule illegal (oracle: {why}, validate: {out.verdict.legal})"
        if orc.cc(out.schedule) > out.layout.pebbling_cost_bound():
            return f"schedule cc {orc.cc(out.schedule)} above its bound"
        return None

    def counts(out):
        c = {"b2lc.solve_b2lc.calls": 1, "b2lc.yes": int(out.covered)}
        if out.covered:
            c["reductions.nodes_built"] = out.layout.graph.n
            c["reductions.edges_built"] = len(out.layout.graph.edges)
            c["pebbling.validate.rounds"] = out.schedule.t
        return c

    return Job(name, run, check, counts)


def _depth_job(name, g, d) -> Job:
    def run(tr):
        e, exact = tr.call("depth_reduce.exact", min_reducing_set, g, d, "nodes")
        greedy = tr.call("depth_reduce.greedy", greedy_reduce, g, d, "nodes")
        return e, exact, greedy

    def check(out, outputs):
        e, exact, greedy = out
        if len(exact) != e:
            return f"set size {len(exact)} != e {e}"
        for label, s in (("exact", exact), ("greedy", greedy)):
            # verify_set is the library's check; longest_path is the oracle's own
            if not verify_set(g, s, d, "nodes") or orc.longest_path(g, s) > d:
                return f"{label} set leaves depth above {d}"
        if len(greedy) < e:
            return f"greedy set of {len(greedy)} beats the minimum {e}"
        if e and is_reducible(g, e - 1, d, "nodes").reducible:
            return f"a set of {e - 1} also works, so {e} is not minimal"
        return None

    return Job(name, run, check, lambda out: {"depth_reduce.removed_nodes": len(out[1]) + len(out[2])})


def _indegree_job(name, g) -> Job:
    def check(out, outputs):
        h, mapping = out
        indeg = [0] * (h.n + 1)
        for _, v in h.edges:
            indeg[v] += 1
        if max(indeg) > 2:
            return f"indegree {max(indeg)} after the transform"
        originals = sorted(mapping[v] for v in range(1, g.n + 1))
        if not orc.reach_all_pairs(h, originals):
            return "some original pair lost its path"
        return None

    return Job(
        name,
        lambda tr: tr.call("reductions", reduce_indegree, g, 2, with_map=True),
        check,
        lambda out: {"reductions.nodes_built": out[0].n, "reductions.edges_built": len(out[0].edges)},
    )


def _gadget_job(name, inst: B2lcInstance) -> Job:
    def check(layout, outputs):
        n, m, k = inst.n_vars, inst.m, inst.k
        c = sum(ci for _, ci, _ in inst.equations)
        tau = 2 * c * m * n + 2 * c * k * m + 2
        nodes = tau * n * c + sum(c - ci for _, ci, _ in inst.equations) + n * c * m + 1
        if (layout.tau, layout.graph.n) != (tau, nodes):
            return f"tau {layout.tau}, {layout.graph.n} nodes; expected {tau}, {nodes}"
        if orc.sinks_of(layout.graph) != [nodes]:
            return "the gadget needs exactly one sink, its last node"
        return None

    return Job(
        name,
        lambda tr: tr.call("reductions", b2lc_to_graph, inst),
        check,
        lambda layout: {
            "reductions.nodes_built": layout.graph.n,
            "reductions.edges_built": len(layout.graph.edges),
        },
    )


def certify(seed: int, tr) -> list[Job]:
    """LP certificates, the hardness reduction chain and depth reduction: no search."""
    rng = random.Random(seed)
    jobs = []
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64):
        jobs.append(_staircase_job(f"staircase/chain{n}", _graph(tr, chain, n), False))
    for k in range(2, 11):
        jobs.append(_staircase_job(f"staircase/pyr{k}", _graph(tr, pyramid, k), False))
    for n in (5, 9, 14, 20, 27, 35, 44, 54, 64):
        for _ in range(2):
            s = rng.randrange(1 << 30)
            g = _graph(tr, layered_random, n, s)
            jobs.append(_staircase_job(f"staircase/lr{n}-{s}", g, True))
    for n in range(1, 33):
        ds = sorted(rng.sample(range(1, n + 1), min(2, n)))
        jobs.append(_reducible_job(f"reducible/chain{n}/d{ds}", _graph(tr, chain, n), ds))
    timed = [("chain12", _graph(tr, chain, 12)), ("pyr5", _graph(tr, pyramid, 5))]
    for n in (8, 12, 16, 20):
        s = rng.randrange(1 << 30)
        timed.append((f"lr{n}-{s}", _graph(tr, layered_random, n, s)))
    jobs += [_timed_job(f"timed/{label}", g) for label, g in timed]
    for n in (4, 5, 6, 7, 8):
        for _ in range(2):
            s = rng.randrange(1 << 30)
            g = _graph(tr, layered_random, n, s)
            pebblings = [
                tr.call("setup.pebblings", random_legal_pebbling, g, rng.randrange(1 << 30), mode)
                for mode in ("parallel", "sequential")
                for _ in range(10)
            ]
            jobs.append(_embed_job(f"embed/lr{n}-{s}", g, pebblings))
    # The n = 2 no-instances enumerate all 2^14 maps and form the tail. The
    # n = 2 draw is stratified by the 3-partition answer, worked out here
    # rather than by the program, so every seed gets the same mix of slow
    # and fast instances: 14 of the 50 no-multisets over 1..4, 10 of the 34 yes.
    pool = list(combinations_with_replacement(range(1, 5), 6))
    split = [e for e in pool if orc.halves_into_triples(e)]
    unsplit = [e for e in pool if not orc.halves_into_triples(e)]
    draws = [tuple(sorted(rng.randint(1, 4) for _ in range(3))) for _ in range(4)]
    draws += rng.sample(unsplit, 14) + rng.sample(split, 10)
    for i, elems in enumerate(draws):
        inst3 = ThreePartitionInstance(elements=elems, n=len(elems) // 3)
        jobs.append(_chain_job(f"chain/{i}/{elems}", inst3))
    for v in (4, 5):
        for i in range(2):
            pairs = [(a, b) for a in range(1, v + 1) for b in range(a + 1, v + 1)]
            es = [p for p in pairs if rng.random() < 0.5]
            g = _graph(tr, lambda: vc_to_reducible(v, es, "nodes")[0])
            jobs.append(_depth_job(f"depth/vc{v}-{i}-{es}/d{v - 1}", g, v - 1))
    for n in (30, 32, 34, 36, 38, 40):
        s = rng.randrange(1 << 30)
        jobs.append(_depth_job(f"depth/lr{n}-{s}/d{n // 2}", _graph(tr, layered_random, n, s), n // 2))
    for n in (20, 30, 40):
        jobs.append(_indegree_job(f"indegree/complete{n}", _graph(tr, complete, n)))
    # 4 variables, budget 2 and 4 equations whose offsets sum to 7: the
    # default tau is then 226 and the gadget has 6,406 nodes.
    while True:
        offsets = [0, 0, 0, 0]
        for _ in range(7):
            offsets[rng.randrange(4)] += 1
        if max(offsets) < 7:
            break
    eqs = []
    for c_i in offsets:
        alpha, beta = rng.sample(range(1, 5), 2)
        eqs.append((alpha, c_i, beta))
    jobs.append(_gadget_job(f"gadget/default-tau/{eqs}", B2lcInstance(n_vars=4, m=2, equations=tuple(eqs))))
    return jobs


WORKLOADS = {"search-pcc": search_pcc, "search-rounds": search_rounds, "certify": certify}
