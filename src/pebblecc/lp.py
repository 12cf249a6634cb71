"""Pebbling and reducibility integer programs, their relaxations, analytic
fractional points, and exact verification.

There is deliberately no solver in here. Models are built and emitted in LP
file format for external solvers; the fractional assignments we care about
are closed-form, so checking them needs only exact arithmetic. Every model
row, bound and objective coefficient is an integer: a row whose source
inequality has fractional coefficients is stored multiplied by a positive
scale. Point values may be Fractions; reported objectives and slacks
always are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .graph import Dag
from .pebbling import Pebbling, validate

__all__ = [
    "IllegalPebbling",
    "MissingVariable",
    "LpVariable",
    "LpConstraint",
    "LpModel",
    "LpSolution",
    "FeasibilityReport",
    "GapReport",
    "build_pebbling_ip",
    "build_reducible_ip",
    "relax",
    "staircase_horizon",
    "fractional_pebbling_solution",
    "fractional_timed_solution",
    "fractional_reducible_solution",
    "pebbling_to_solution",
    "verify_solution",
    "emit",
    "gap_report",
    "report_to_json",
]


class IllegalPebbling(ValueError):
    """Only legal pebblings embed into the pebbling program."""


class MissingVariable(ValueError):
    """The solution assigns no value to some model variable."""


@dataclass(frozen=True)
class LpVariable:
    name: str
    lower: int
    upper: int
    integral: bool


@dataclass(frozen=True)
class LpConstraint:
    """The row sum(coeff * var) <relation> rhs, relation in {<=, >=, =},
    with integer coeffs and rhs. It is the source inequality multiplied by
    the positive integer scale, so a slack in source units is the row's
    slack divided by scale."""

    name: str
    coeffs: tuple[tuple[str, int], ...]
    relation: str
    rhs: int
    scale: int = 1


@dataclass(frozen=True)
class LpModel:
    """A minimization program. Variable order is the emission order."""

    variables: tuple[LpVariable, ...]
    constraints: tuple[LpConstraint, ...]
    objective: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        declared = set(names)
        if len(declared) != len(names):
            raise ValueError("duplicate variable names")
        for c in self.constraints:
            if c.relation not in ("<=", ">=", "="):
                raise ValueError(f"bad relation {c.relation!r} in {c.name}")
            for var, _ in c.coeffs:
                if var not in declared:
                    raise ValueError(f"constraint {c.name} uses undeclared {var}")
        for var, _ in self.objective:
            if var not in declared:
                raise ValueError(f"objective uses undeclared {var}")


@dataclass(frozen=True)
class LpSolution:
    values: dict[str, Fraction] = field(repr=False)


@dataclass(frozen=True)
class FeasibilityReport:
    """violated holds (constraint or bound id, slack) pairs with negative
    slack; satisfied rows are omitted, so feasible iff violated is empty."""

    feasible: bool
    objective: Fraction
    violated: tuple[tuple[str, Fraction], ...]


def _xname(v: int, t: int) -> str:
    return f"x_{v}_{t}"


def build_pebbling_ip(g: Dag, horizon: int | None = None) -> LpModel:
    """The pebbling program: binary x_v_t, zero-fixed start, sink coverage,
    and per-round transition bounds.

    x_v_0 is fixed to zero through its bounds. Non-source nodes get, for
    each t < horizon, x_v_{t+1} <= x_v_t + (sum of parent x at t)/indeg,
    stored times indeg as a row of scale indeg; sources move freely. The
    default horizon is n**2, generous enough for any optimal pebbling; pass
    something smaller for compact emission.
    """
    if horizon is None:
        horizon = g.n * g.n
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    variables = []
    for v in range(1, g.n + 1):
        for t in range(0, horizon + 1):
            fixed = t == 0
            variables.append(
                LpVariable(_xname(v, t), 0, 0 if fixed else 1, True)
            )
    constraints = []
    for v in sorted(g.sinks):
        constraints.append(
            LpConstraint(
                f"sink_{v}",
                tuple((_xname(v, t), 1) for t in range(0, horizon + 1)),
                ">=",
                1,
            )
        )
    for v in range(1, g.n + 1):
        parents = sorted(g.parent_sets[v])
        if not parents:
            continue
        k = len(parents)
        for t in range(0, horizon):
            coeffs = [(_xname(v, t + 1), k), (_xname(v, t), -k)]
            coeffs.extend((_xname(u, t), -1) for u in parents)
            constraints.append(
                LpConstraint(f"move_{v}_{t}", tuple(coeffs), "<=", 0, k)
            )
    objective = tuple((var.name, 1) for var in variables)
    return LpModel(tuple(variables), tuple(constraints), objective)


def build_reducible_ip(g: Dag, d: int) -> LpModel:
    """The depth-reduction program: binary removal indicators s_v and
    path-length trackers d_u_v in [0, d] for every ordered node pair.

    Each w in V and edge (u, v) contributes
    d_w_v >= d_w_u + 1 - (d+1)(s_u + s_v), so surviving edges propagate
    path lengths while removed endpoints void the constraint. Objective is
    the number of removed nodes.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    variables = [
        LpVariable(f"s_{v}", 0, 1, True) for v in range(1, g.n + 1)
    ]
    for u in range(1, g.n + 1):
        for v in range(1, g.n + 1):
            variables.append(LpVariable(f"d_{u}_{v}", 0, d, False))
    big = d + 1
    constraints = []
    for w in range(1, g.n + 1):
        for u, v in g.edges:
            coeffs = (
                (f"d_{w}_{v}", 1),
                (f"d_{w}_{u}", -1),
                (f"s_{u}", big),
                (f"s_{v}", big),
            )
            constraints.append(
                LpConstraint(f"path_{w}_{u}_{v}", coeffs, ">=", 1)
            )
    objective = tuple((f"s_{v}", 1) for v in range(1, g.n + 1))
    return LpModel(tuple(variables), tuple(constraints), objective)


def relax(m: LpModel) -> LpModel:
    """Drop integrality; bounds are untouched. Idempotent."""
    return LpModel(
        tuple(
            LpVariable(v.name, v.lower, v.upper, False) for v in m.variables
        ),
        m.constraints,
        m.objective,
    )


def staircase_horizon(n: int) -> int:
    """n + ceil(lg n), computed exactly: the fewest rounds the staircase
    point of an n-node DAG needs."""
    return n + (n - 1).bit_length()


def fractional_pebbling_solution(g: Dag, horizon: int | None = None) -> LpSolution:
    """The staircase point: 1/n trickle for n rounds, then doubling to 1.

    Feasible for the relaxed pebbling program of any DAG at any horizon of
    at least n + ceil(lg n); objective is at most 4n.
    """
    n = g.n
    if horizon is None:
        horizon = n * n
    top = staircase_horizon(n)
    if horizon < top:
        raise ValueError(f"horizon {horizon} below n + ceil(lg n) = {top}")
    values: dict[str, Fraction] = {}
    trickle = Fraction(1, n)
    for v in range(1, n + 1):
        for t in range(0, horizon + 1):
            if t <= n:
                val = trickle if v <= t else 0
            elif t <= top:
                val = min(1, Fraction(2 ** (t - n), n))
            else:
                val = 0
            values[_xname(v, t)] = val
    return LpSolution(values)


def _distances(g: Dag, src: int) -> list[int | None]:
    """Shortest directed path lengths (in edges) from src; None = unreachable."""
    dist: list[int | None] = [None] * (g.n + 1)
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            for w in g.child_sets[u]:
                if dist[w] is None:
                    dist[w] = du + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def fractional_timed_solution(g: Dag) -> tuple[LpSolution, FeasibilityReport]:
    """The n-step assignment: whole pebbles down the diagonal, fading copies
    behind them.

    x_i_i = 1; for i < t, x_i_t = max(1/n, max over j >= 1 of
    2^(-dist(i, t+j) - j + 2)) with unreachable or out-of-range targets
    skipped. Feasibility depends on the graph, so it is checked against the
    relaxed n-horizon program and reported rather than assumed.
    """
    n = g.n
    floor = Fraction(1, n)
    values: dict[str, Fraction] = {}
    dist_from = [None] + [_distances(g, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for t in range(0, n + 1):
            if t == i:
                values[_xname(i, t)] = 1
            elif i < t:
                best = floor
                for j in range(1, n - t + 1):
                    d_ij = dist_from[i][t + j]
                    if d_ij is None:
                        continue
                    cand = Fraction(2) ** (-d_ij - j + 2)
                    if cand > best:
                        best = cand
                values[_xname(i, t)] = best
            else:
                values[_xname(i, t)] = 0
    solution = LpSolution(values)
    report = verify_solution(relax(build_pebbling_ip(g, horizon=n)), solution)
    return solution, report


def fractional_reducible_solution(g: Dag, d: int) -> LpSolution:
    """The uniform point x_v = 1/d, all path trackers zero; objective n/d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    share = Fraction(1, d)
    values = {f"s_{v}": share for v in range(1, g.n + 1)}
    for u in range(1, g.n + 1):
        for v in range(1, g.n + 1):
            values[f"d_{u}_{v}"] = 0
    return LpSolution(values)


def pebbling_to_solution(g: Dag, p: Pebbling, horizon: int | None = None) -> LpSolution:
    """Embed a legal pebbling as the obvious 0/1 point; objective equals cc.

    Raises:
        IllegalPebbling: the pebbling fails validation against g.
        ValueError: the pebbling is longer than the horizon.
    """
    if horizon is None:
        horizon = g.n * g.n
    verdict = validate(g, p)
    if not verdict.legal:
        raise IllegalPebbling(f"first violation: {verdict.first_violation}")
    if p.t > horizon:
        raise ValueError(f"pebbling has {p.t} rounds, horizon is {horizon}")
    values = {
        _xname(v, t): 0 for v in range(1, g.n + 1) for t in range(horizon + 1)
    }
    for t, rnd in enumerate(p.rounds, start=1):
        for v in rnd:
            values[_xname(v, t)] = 1
    return LpSolution(values)


def verify_solution(m: LpModel, s: LpSolution) -> FeasibilityReport:
    """Exact evaluation of every bound, integrality flag, and constraint.

    Sums run over integers: each value is scaled by the values' least
    common denominator, and the rows are integer already. The objective and
    the slacks of violated rows are reported as Fractions, a row's slack in
    the units of its source inequality (divided by the row's scale).

    Raises:
        MissingVariable: some model variable has no assigned value.
    """
    vals = s.values
    for var in m.variables:
        if var.name not in vals:
            raise MissingVariable(var.name)
    den = lcm(*{vals[var.name].denominator for var in m.variables})
    num = {
        var.name: vals[var.name].numerator * (den // vals[var.name].denominator)
        for var in m.variables
    }
    violated: list[tuple[str, Fraction]] = []
    for var in m.variables:
        x, lo, hi = num[var.name], var.lower, var.upper
        if x < lo * den:
            violated.append((f"bound:{var.name}", Fraction(x, den) - lo))
        elif x > hi * den:
            violated.append((f"bound:{var.name}", hi - Fraction(x, den)))
        if var.integral and x % den:
            violated.append((f"integral:{var.name}", Fraction(0)))
    for c in m.constraints:
        lhs = sum(num[name] * k for name, k in c.coeffs)
        rhs = c.rhs * den
        if c.relation == "<=":
            slack = rhs - lhs
        elif c.relation == ">=":
            slack = lhs - rhs
        else:
            slack = -abs(lhs - rhs)
        if slack < 0:
            violated.append((c.name, Fraction(slack, den * c.scale)))
    objective = Fraction(sum(num[name] * k for name, k in m.objective), den)
    return FeasibilityReport(not violated, objective, tuple(violated))


def _terms(pairs) -> str:
    parts = []
    for name, c in pairs:
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        term = name if mag == 1 else f"{mag} {name}"
        if not parts:
            parts.append(term if sign == "+" else f"- {term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0"


def emit(m: LpModel) -> str:
    """Render the model as CPLEX-style LP text.

    Rows are printed as stored, so every coefficient is an integer (a scaled
    row appears multiplied by its scale); integral variables go in a
    Generals section. Ordering follows the model, so output is deterministic.
    """
    lines = ["Minimize"]
    lines.append(f" obj: {_terms(m.objective)}")
    lines.append("Subject To")
    for c in m.constraints:
        lines.append(f" {c.name}: {_terms(c.coeffs)} {c.relation} {c.rhs}")
    lines.append("Bounds")
    for v in m.variables:
        if v.lower == v.upper:
            lines.append(f" {v.name} = {v.lower}")
        else:
            lines.append(f" {v.lower} <= {v.name} <= {v.upper}")
    integrals = [v.name for v in m.variables if v.integral]
    if integrals:
        lines.append("Generals")
        for chunk in range(0, len(integrals), 8):
            lines.append(" " + " ".join(integrals[chunk : chunk + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GapReport:
    """The staircase objective upper-bounds the LP optimum, so
    pcc / fractional_objective lower-bounds the true integrality gap. It can
    drop below 1 on graphs whose pcc is small against the staircase cost."""

    n: int
    fractional_objective: Fraction
    pcc: int
    pcc_proven: bool
    ratio: Fraction


def gap_report(g: Dag, limits=None, cost_cap=None) -> GapReport:
    """Tabulate the staircase objective against exact (or fallback) pcc.

    limits and cost_cap pass to exact_pcc, which raises Infeasible when the
    optimum is above cost_cap. If the search exhausts its limits, the cost
    of the cheapest pebbling it built stands in, or the trivial
    keep-everything bound n(n+1)/2 when it built none, and the report is
    flagged unproven.
    """
    from .search import Exhausted, exact_pcc

    n = g.n
    frac = fractional_pebbling_solution(g, horizon=staircase_horizon(n))
    objective = sum(frac.values.values(), Fraction(0))
    try:
        res = exact_pcc(g, limits=limits, cost_cap=cost_cap)
        pcc, proven = res.optimum, True
    except Exhausted as exc:
        pcc = exc.upper_bound if exc.upper_bound is not None else n * (n + 1) // 2
        proven = False
    return GapReport(n, objective, pcc, proven, Fraction(pcc) / objective)


def report_to_json(r: FeasibilityReport) -> str:
    return json.dumps(
        {
            "feasible": r.feasible,
            "objective": str(r.objective),
            "violated": [[name, str(slack)] for name, slack in r.violated],
        }
    )
