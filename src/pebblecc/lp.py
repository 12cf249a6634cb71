"""Pebbling and reducibility integer programs, their relaxations, analytic
fractional points, and exact verification.

There is deliberately no solver in here. Models are built and emitted in LP
file format for external solvers; the fractional assignments we care about
are closed-form, so checking them needs only exact arithmetic. Every model
row, bound and objective coefficient is an integer: a row whose source
inequality has fractional coefficients is stored multiplied by a positive
scale. Point values may be Fractions; reported objectives and slacks
always are.

An LpModel is stored by columns: the variable names once, and each row as
variable indices beside integer coefficients. The builders compute the
indices, relax shares every column, and verify_solution and emit walk them.
Its variables, constraints and objective attributes are read-only views in
names, built on each access and never stored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import chain, groupby, product
from math import lcm
from operator import mul

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
    """A minimization program, stored by columns; variable order is the
    emission order. The first n_integral variables are integral. Row i is
    sum(row_coeffs[i][j] * var[row_vars[i][j]]) relations[i] rhs[i], stored at
    scale scales[i] (see LpConstraint); the objective is indexed the same way.
    Made directly, it checks that the columns fit together: one entry per
    variable or row, as many coefficients as variables in each row, declared
    indices, known relations and positive int scales."""

    names: tuple[str, ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    n_integral: int
    row_names: tuple[str, ...]
    row_vars: tuple[tuple[int, ...], ...]
    row_coeffs: tuple[tuple[int, ...], ...]
    relations: tuple[str, ...]
    rhs: tuple[int, ...]
    scales: tuple[int, ...]
    obj_vars: tuple[int, ...]
    obj_coeffs: tuple[int, ...]

    def __post_init__(self):
        nv, nr = len(self.names), len(self.row_names)
        if len(set(self.names)) != nv:
            raise ValueError("duplicate variable names")
        if not 0 <= self.n_integral <= nv:
            raise ValueError(f"n_integral {self.n_integral} outside 0..{nv}")
        columns = [("lower", nv, "variables"), ("upper", nv, "variables")]
        columns += [(col, nr, "rows") for col in ("row_vars", "row_coeffs", "relations", "rhs", "scales")]
        for col, want, of in columns:
            got = len(getattr(self, col))
            if got != want:
                raise ValueError(f"{col} has {got} entries for {want} {of}")
        for name, rel, scale in zip(self.row_names, self.relations, self.scales):
            if rel not in ("<=", ">=", "="):
                raise ValueError(f"bad relation {rel!r} in {name}")
            if type(scale) is not int or scale < 1:
                raise ValueError(f"{name} has scale {scale!r}, not a positive int")
        rows = (*zip(self.row_names, self.row_vars, self.row_coeffs), ("objective", self.obj_vars, self.obj_coeffs))
        for name, idx, co in rows:
            if len(idx) != len(co):
                raise ValueError(f"{name} has {len(idx)} variables but {len(co)} coefficients")
            for i in idx:
                if not 0 <= i < nv:
                    raise ValueError(f"{name} uses undeclared variable index {i}")

    @property
    def variables(self) -> tuple[LpVariable, ...]:
        flags = [True] * self.n_integral + [False] * (len(self.names) - self.n_integral)
        return tuple(map(LpVariable, self.names, self.lower, self.upper, flags))

    @property
    def constraints(self) -> tuple[LpConstraint, ...]:
        at = self.names.__getitem__
        rows = zip(self.row_names, self.row_vars, self.row_coeffs, self.relations, self.rhs, self.scales)
        return tuple(LpConstraint(n, tuple(zip(map(at, i), c)), r, b, s) for n, i, c, r, b, s in rows)

    @property
    def objective(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(map(self.names.__getitem__, self.obj_vars), self.obj_coeffs))


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


def _xnames(n: int, horizon: int) -> tuple[str, ...]:
    """The pebbling program's variable names; x_v_t has index (v-1)(horizon+1) + t.
    Each is a node prefix x_v joined to a round suffix _t."""
    nodes = [f"x_{v}" for v in range(1, n + 1)]
    rounds = [f"_{t}" for t in range(horizon + 1)]
    return tuple(map("".join, product(nodes, rounds)))


def _reducible_names(n: int) -> tuple[str, ...]:
    """The depth-reduction program's variable names: s_v at index v - 1,
    then d_u_v at index un + v - 1, joined from prefixes like _xnames."""
    nodes = [str(v) for v in range(1, n + 1)]
    pairs = product(map("d_".__add__, nodes), map("_".__add__, nodes))
    return (*map("s_".__add__, nodes), *map("".join, pairs))


def _unchecked(**columns) -> LpModel:
    """An LpModel made without running __post_init__, for columns that are
    valid by construction: the builders compute every index, and relax
    shares the columns of a model that was checked when it was made."""
    m = object.__new__(LpModel)
    m.__dict__.update(columns)
    return m


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
    width, nv = horizon + 1, g.n * (horizon + 1)
    sinks = sorted(g.sinks)
    row_names = [f"sink_{v}" for v in sinks]
    row_vars = [tuple(range((v - 1) * width, v * width)) for v in sinks]
    row_coeffs, scales = [(1,) * width] * len(sinks), [1] * len(sinks)
    rounds = [f"_{t}" for t in range(horizon)]
    for v in range(1, g.n + 1):
        parents = sorted(g.parent_sets[v])
        if parents:
            k, at = len(parents), (v - 1) * width
            row_names += map(f"move_{v}".__add__, rounds)
            starts = (at + 1, at, *((u - 1) * width for u in parents))
            row_vars += zip(*(range(s, s + horizon) for s in starts))
            row_coeffs += [(k, -k) + (-1,) * k] * horizon  # one shared tuple per node
            scales += [k] * horizon
    moves = len(row_names) - len(sinks)
    return _unchecked(
        names=_xnames(g.n, horizon), lower=(0,) * nv, upper=((0,) + (1,) * horizon) * g.n,
        n_integral=nv, row_names=tuple(row_names), row_vars=tuple(row_vars),
        row_coeffs=tuple(row_coeffs), relations=(">=",) * len(sinks) + ("<=",) * moves,
        rhs=(1,) * len(sinks) + (0,) * moves, scales=tuple(scales),
        obj_vars=tuple(range(nv)), obj_coeffs=(1,) * nv,
    )


def build_reducible_ip(g: Dag, d: int) -> LpModel:
    """The depth-reduction program: binary removal indicators s_v and
    path-length trackers d_u_v in [0, d] for every ordered node pair.

    Each w in V and edge (u, v) contributes
    d_w_v >= d_w_u + 1 - (d+1)(s_u + s_v), so surviving edges propagate
    path lengths while removed endpoints void the constraint. Objective is
    the number of removed nodes. s_v has index v - 1, d_u_v index un + v - 1.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    n, rows = g.n, g.n * len(g.edges)
    tails, heads = [u for u, _ in g.edges], [v for _, v in g.edges]
    tails0, heads0 = [u - 1 for u in tails], [v - 1 for v in heads]
    edges = [f"_{u}_{v}" for u, v in g.edges]
    paths = product([f"path_{w}" for w in range(1, n + 1)], edges)
    # row w, (u, v) reads d_w_v, d_w_u, s_u, s_v; d_w_x has index (wn - 1) + x
    per_w = (zip(map(at.__add__, heads), map(at.__add__, tails), tails0, heads0) for at in range(n - 1, n * n, n))
    return _unchecked(
        names=_reducible_names(n), lower=(0,) * (n + n * n), upper=(1,) * n + (d,) * (n * n), n_integral=n,
        row_names=tuple(map("".join, paths)), row_vars=tuple(chain.from_iterable(per_w)),
        row_coeffs=((1, -1, d + 1, d + 1),) * rows, relations=(">=",) * rows,
        rhs=(1,) * rows, scales=(1,) * rows, obj_vars=tuple(range(n)), obj_coeffs=(1,) * n,
    )


def relax(m: LpModel) -> LpModel:
    """Drop integrality, sharing every column with m; bounds are untouched. Idempotent."""
    return _unchecked(**{**vars(m), "n_integral": 0})


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
    trickle = Fraction(1, n)
    ramp = [min(1, Fraction(2 ** (t - n), n)) for t in range(n + 1, top + 1)]
    values = []
    for v in range(1, n + 1):  # rounds 0..n, then the ramp, then zeros
        values += [0] * v + [trickle] * (n + 1 - v) + ramp + [0] * (horizon - top)
    return LpSolution(dict(zip(_xnames(n, horizon), values)))


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
    skipped. The inner max is 2^(2 - m) for m the least dist(i, k) + k - t
    over reachable k in t+1..n, so one running minimum over k, from n
    down, gives every t. Feasibility depends on the graph, so it is
    checked against the relaxed n-horizon program and reported rather than
    assumed.
    """
    n = g.n
    floor, lg = Fraction(1, n), (n - 1).bit_length()  # 2^s < n iff s < lg
    values: list[int | Fraction] = [0] * (n * (n + 1))
    for i in range(1, n + 1):
        dist, at = _distances(g, i), (i - 1) * (n + 1)
        values[at + i] = 1
        least = 3 * n  # min of dist(i, k) + k over reachable k > t, or 3n: past any 1/n
        for t in range(n, i, -1):
            s = least - t - 2
            values[at + t] = Fraction(1, 1 << s) if s < lg else floor
            if dist[t] is not None:
                least = min(least, dist[t] + t)
    solution = LpSolution(dict(zip(_xnames(n, n), values)))
    report = verify_solution(relax(build_pebbling_ip(g, horizon=n)), solution)
    return solution, report


def fractional_reducible_solution(g: Dag, d: int) -> LpSolution:
    """The uniform point x_v = 1/d, all path trackers zero; objective n/d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    n = g.n
    return LpSolution(dict(zip(_reducible_names(n), [Fraction(1, d)] * n + [0] * (n * n))))


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
    width = horizon + 1
    values = [0] * (g.n * width)
    for t, rnd in enumerate(p.rounds, start=1):
        for v in rnd:
            values[(v - 1) * width + t] = 1
    return LpSolution(dict(zip(_xnames(g.n, horizon), values)))


def verify_solution(m: LpModel, s: LpSolution) -> FeasibilityReport:
    """Exact evaluation of every bound, integrality flag, and constraint.

    Sums run over integers: each value is scaled by the values' least
    common denominator, and the rows are integer already. The objective and
    the slacks of violated rows are reported as Fractions, a row's slack in
    the units of its source inequality (divided by the row's scale).

    Raises:
        MissingVariable: some model variable has no assigned value.
    """
    try:
        xs = [s.values[name] for name in m.names]
    except KeyError as exc:
        raise MissingVariable(exc.args[0]) from None
    den = lcm(*{x.denominator for x in xs})
    num = [x.numerator * (den // x.denominator) for x in xs]
    violated: list[tuple[str, Fraction]] = []
    for i, (name, x, lo, hi) in enumerate(zip(m.names, num, m.lower, m.upper)):
        if x < lo * den:
            violated.append((f"bound:{name}", Fraction(x, den) - lo))
        elif x > hi * den:
            violated.append((f"bound:{name}", hi - Fraction(x, den)))
        if i < m.n_integral and x % den:
            violated.append((f"integral:{name}", Fraction(0)))
    at = num.__getitem__
    rows = zip(m.row_names, m.row_vars, m.row_coeffs, m.relations, m.rhs, m.scales)
    for name, idx, co, rel, rhs, scale in rows:
        lhs = sum(map(mul, map(at, idx), co))
        rhs *= den
        if rel == "<=":
            slack = rhs - lhs
        elif rel == ">=":
            slack = lhs - rhs
        else:
            slack = -abs(lhs - rhs)
        if slack < 0:
            violated.append((name, Fraction(slack, den * scale)))
    objective = Fraction(sum(map(mul, map(at, m.obj_vars), m.obj_coeffs)), den)
    return FeasibilityReport(not violated, objective, tuple(violated))


def _runs(column):
    """(value, start, stop) for each maximal run of equal items in column."""
    stop = 0
    for value, run in groupby(column):
        start, stop = stop, stop + len(list(run))
        yield value, start, stop


def _terms(names, coeffs) -> str:
    """sum(c * name) in LP syntax: zero terms left out, unit coefficients
    bare, "0" when nothing is left. A run of equal coefficients is one join."""
    runs = []
    for c, start, stop in _runs(coeffs):
        if c:
            sign = ("- " if c < 0 else "+ ") + ("" if abs(c) == 1 else f"{abs(c)} ")
            runs.append(sign + (" " + sign).join(names[start:stop]))
    text = " ".join(runs)
    return text[2:] if text.startswith("+ ") else text or "0"


def emit(m: LpModel) -> str:
    """Render the model as CPLEX-style LP text.

    Rows are printed as stored, so every coefficient is an integer (a scaled
    row appears multiplied by its scale); integral variables go in a
    Generals section. Ordering follows the model, so output is deterministic.
    A run of rows that share one coefficient tuple is printed with one
    %-format template, and a run of variables with equal bounds likewise.
    """
    names = m.names
    at = names.__getitem__
    lines = ["Minimize", f" obj: {_terms(list(map(at, m.obj_vars)), m.obj_coeffs)}", "Subject To"]
    for co, start, stop in _runs(m.row_coeffs):
        row = f" %s: {_terms(['%s'] * len(co), co)} %s %s"
        live = [map(at, col) for col, c in zip(zip(*m.row_vars[start:stop]), co) if c]
        cells = zip(m.row_names[start:stop], *live, m.relations[start:stop], m.rhs[start:stop])
        lines += map(row.__mod__, cells)
    lines.append("Bounds")
    for (lo, hi), start, stop in _runs(zip(m.lower, m.upper)):
        lines += map((f" %s = {lo}" if lo == hi else f" {lo} <= %s <= {hi}").__mod__, names[start:stop])
    if m.n_integral:
        lines.append("Generals")
        lines += (" " + " ".join(names[i : min(i + 8, m.n_integral)]) for i in range(0, m.n_integral, 8))
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

    The objective is read from verify_solution on the relaxed pebbling
    program at the staircase horizon, like every other LP number; a
    staircase point that program rejects raises RuntimeError.

    limits and cost_cap pass to exact_pcc, which raises Infeasible when the
    optimum is above cost_cap. If the search exhausts its limits, the cost
    of the cheapest pebbling it built stands in, or the trivial
    keep-everything bound n(n+1)/2 when it built none, and the report is
    flagged unproven.
    """
    from .search import Exhausted, exact_pcc

    n, h = g.n, staircase_horizon(g.n)
    rep = verify_solution(relax(build_pebbling_ip(g, h)), fractional_pebbling_solution(g, h))
    if not rep.feasible:
        raise RuntimeError(f"the staircase point violates {rep.violated[0][0]}")
    objective = rep.objective
    try:
        res = exact_pcc(g, limits=limits, cost_cap=cost_cap)
        pcc, proven = res.optimum, True
    except Exhausted as exc:
        pcc = exc.upper_bound if exc.upper_bound is not None else n * (n + 1) // 2
        proven = False
    return GapReport(n, objective, pcc, proven, Fraction(pcc) / objective)


def _fraction_str(x) -> str:
    """json.dumps's default: a Fraction is written as its str; any other
    type still raises TypeError."""
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def report_to_json(r: FeasibilityReport) -> str:
    return json.dumps(asdict(r), default=_fraction_str)
