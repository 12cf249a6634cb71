"""Independent output checks.

These re-derive what they check from the raw graph edges and model rows
instead of calling the pebblecc code under test, so a bug in a layer cannot
also hide in its check. A few checks the workloads need are decisions only
the library can make (b2lc witnesses, minimality of a reducing set); those
call the library's own checkers, as noted where they are used.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm


def parents_of(g) -> list[list[int]]:
    ps: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        ps[v].append(u)
    return ps


def sinks_of(g) -> list[int]:
    has_child = [False] * (g.n + 1)
    for u, _ in g.edges:
        has_child[u] = True
    return [v for v in range(1, g.n + 1) if not has_child[v]]


def illegal(g, p, mode: str) -> str | None:
    """Why the pebbling breaks the game's rules, or None when it is legal.

    A pebble may be placed only when all its parents held pebbles in the
    previous round; sequential play places at most one per round; every sink
    must hold a pebble at some point.
    """
    if p.mode != mode:
        return f"mode {p.mode} != {mode}"
    ps = parents_of(g)
    prev: set[int] = set()
    ever: set[int] = set()
    for r, rnd in enumerate(p.rounds, start=1):
        cur = set(rnd)
        if any(not 1 <= v <= g.n for v in cur):
            return f"round {r} names a node outside 1..{g.n}"
        new = cur - prev
        if mode == "sequential" and len(new) > 1:
            return f"round {r} places {len(new)} pebbles"
        for v in new:
            if not all(u in prev for u in ps[v]):
                return f"round {r} places {v} without its parents"
        ever |= cur
        prev = cur
    missing = [s for s in sinks_of(g) if s not in ever]
    return f"sinks never pebbled: {missing}" if missing else None


def cc(p) -> int:
    return sum(len(r) for r in p.rounds)


def max_space(p) -> int:
    return max((len(r) for r in p.rounds), default=0)


def longest_path(g, removed=frozenset()) -> int:
    """Nodes on the longest path avoiding `removed`; labels are topological."""
    ps = parents_of(g)
    f = [0] * (g.n + 1)
    for v in range(1, g.n + 1):
        if v not in removed:
            f[v] = 1 + max((f[u] for u in ps[v] if u not in removed), default=0)
    return max(f)


def reach_all_pairs(g, nodes) -> bool:
    """Whether every u < v among `nodes` (ascending) has a directed u -> v path."""
    reach = [0] * (g.n + 1)  # bit w set: w reachable from v
    children: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        children[u].append(v)
    for v in range(g.n, 0, -1):
        r = 0
        for w in children[v]:
            r |= reach[w] | (1 << w)
        reach[v] = r
    return all(
        reach[u] >> v & 1 for i, u in enumerate(nodes) for v in nodes[i + 1 :]
    )


def lp_evaluate(model, values) -> tuple[bool, Fraction]:
    """Feasibility and objective of an assignment, in integer arithmetic.

    Every value is scaled to one common denominator and every row by the lcm
    of its own coefficient denominators, so each row test is a comparison of
    integers. Integrality flags are checked as well as bounds.
    """
    den = lcm(*(Fraction(values[v.name]).denominator for v in model.variables))
    scaled = {v.name: int(Fraction(values[v.name]) * den) for v in model.variables}
    for v in model.variables:
        x = scaled[v.name]
        if x < v.lower * den or x > v.upper * den:
            return False, Fraction(0)
        if v.integral and x % den:
            return False, Fraction(0)
    for c in model.constraints:
        row = lcm(c.rhs.denominator, *(k.denominator for _, k in c.coeffs))
        lhs = sum(int(k * row) * scaled[name] for name, k in c.coeffs)
        rhs = int(c.rhs * row) * den
        if c.relation == "<=" and lhs > rhs:
            return False, Fraction(0)
        if c.relation == ">=" and lhs < rhs:
            return False, Fraction(0)
        if c.relation == "=" and lhs != rhs:
            return False, Fraction(0)
    row = lcm(*(k.denominator for _, k in model.objective))
    obj = sum(int(k * row) * scaled[name] for name, k in model.objective)
    return True, Fraction(obj, den * row)


def halves_into_triples(elems) -> bool:
    """Whether six numbers split into two triples of equal sum (3-partition, n = 2)."""
    total = sum(elems)
    return total % 2 == 0 and any(2 * sum(t) == total for t in combinations(elems, 3))


def staircase_objective(n: int) -> Fraction:
    """Closed form of the staircase point's objective for n >= 2 nodes.

    Each node holds 1/n for the rounds t = v..n (sum (n+1)/2 over all nodes),
    then every node holds min(1, 2^j/n) in ramp round j = 1..ceil(lg n), the
    last of which is 1 for all n nodes.
    """
    ramp = (n - 1).bit_length()
    return (
        Fraction(n + 1, 2)
        + sum(min(Fraction(n), Fraction(2**j)) for j in range(1, ramp))
        + n
    )


def lp_text_ok(model, text: str) -> str | None:
    """Structural check of emitted LP-file text against its model."""
    lines = text.splitlines()
    try:
        rows = lines[lines.index("Subject To") + 1 : lines.index("Bounds")]
    except ValueError:
        return "missing section header"
    if len(rows) != len(model.constraints):
        return f"{len(rows)} constraint lines for {len(model.constraints)} rows"
    for line in rows:
        for tok in line.split()[1:]:
            if tok[0].isdigit() and not tok.isdigit():
                return f"non-integer coefficient {tok!r}"
    return None
