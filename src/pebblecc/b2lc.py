"""Bounded 2-linear covering: cover difference equations x_a + c = x_b with a
budget of m variable assignments. Includes the backtracking decision oracle and
the 3-partition oracle used to cross-check the reduction pipeline.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from itertools import combinations

from .graph import TooLarge, _from_json

__all__ = [
    "TooLarge",
    "B2lcBudgetWarning",
    "B2lcInstance",
    "B2lcWitness",
    "ThreePartitionInstance",
    "group_consistent",
    "check_witness",
    "solve_b2lc",
    "solve_3partition",
    "b2lc_to_json",
    "b2lc_from_json",
]


class B2lcBudgetWarning(UserWarning):
    """Budget m exceeds the equation count; the instance is trivially coverable."""


@dataclass(frozen=True)
class B2lcInstance:
    """k equations x_alpha + c = x_beta over variables 1..n_vars, budget m.

    Asks for m assignments of nonnegative integers to the variables such that
    every equation holds under at least one assignment.
    """

    n_vars: int
    m: int
    equations: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError(f"need n_vars >= 1, got {self.n_vars}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got {self.m}")
        if not self.equations:
            raise ValueError("need at least one equation")
        for alpha, c, beta in self.equations:
            if not (1 <= alpha <= self.n_vars and 1 <= beta <= self.n_vars):
                raise ValueError(f"equation ({alpha}, {c}, {beta}) references an unknown variable")
            if alpha == beta:
                raise ValueError(f"equation ({alpha}, {c}, {beta}) relates a variable to itself")
            if c < 0:
                raise ValueError(f"offset must be nonnegative, got {c}")
        if self.m > len(self.equations):
            warnings.warn(
                f"budget m={self.m} exceeds k={len(self.equations)} equations",
                B2lcBudgetWarning,
                stacklevel=2,
            )

    @property
    def k(self) -> int:
        return len(self.equations)


@dataclass(frozen=True)
class B2lcWitness:
    """group_of[i] is the 1-based assignment covering equation i; values[y-1]
    is assignment y as a row of n_vars nonnegative integers."""

    group_of: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ThreePartitionInstance:
    """3n positive integers to be split into n triples of equal sum T/n."""

    elements: tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if len(self.elements) != 3 * self.n:
            raise ValueError(f"need exactly {3 * self.n} elements, got {len(self.elements)}")
        if any(x < 1 for x in self.elements):
            raise ValueError("elements must be positive")

    @property
    def total(self) -> int:
        return sum(self.elements)

    @property
    def promise_satisfied(self) -> bool:
        """True iff every element lies strictly between T/(4n) and T/(2n)."""
        t = self.total
        return all(4 * self.n * x > t and 2 * self.n * x < t for x in self.elements)


def _potentials(n_vars: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """An empty potential map over variables 1..n_vars: every variable is its
    own root. pot[v] is (root, value(v) - value(root)); members[r] lists the
    component of root r (index 0 is unused)."""
    return [(v, 0) for v in range(n_vars + 1)], [[v] for v in range(n_vars + 1)]


def _impose(pot, members, alpha: int, c: int, beta: int):
    """Add x_beta = x_alpha + c to a potential map in place.

    A merge relabels the smaller component under the other root, so a run
    of merges over n variables relabels O(n log n) entries. Returns None on
    a conflicting cycle (nothing changes), () when the equation is already
    implied, or the record (root, old root, delta) that _undo takes.
    """
    ra, oa = pot[alpha]
    rb, ob = pot[beta]
    if ra == rb:
        return () if ob - oa == c else None
    delta = oa + c - ob  # value(rb) - value(ra)
    if len(members[ra]) < len(members[rb]):
        ra, rb, delta = rb, ra, -delta
    for v in members[rb]:
        pot[v] = (ra, pot[v][1] + delta)
    members[ra].extend(members[rb])
    return ra, rb, delta


def _undo(pot, members, record) -> None:
    """Reverse the merge _impose reported. members[rb] is never touched
    while rb is not a root, so it still lists the variables to move back."""
    ra, rb, delta = record
    del members[ra][-len(members[rb]):]
    for v in members[rb]:
        pot[v] = (rb, pot[v][1] - delta)


def group_consistent(inst: B2lcInstance, group) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether one assignment can satisfy the given equations at once.

    Args:
        inst: the owning instance.
        group: iterable of 0-based equation indices.

    Returns:
        (True, values) with the canonical satisfying assignment, or
        (False, None). Canonical means every connected component of the
        difference-constraint graph is shifted so its minimum is 0 and
        untouched variables are 0, which keeps all values nonnegative.
    """
    pot, members = _potentials(inst.n_vars)
    for idx in group:
        if _impose(pot, members, *inst.equations[idx]) is None:
            return False, None
    low = {}
    for root, off in pot[1:]:
        low[root] = min(low.get(root, off), off)
    return True, tuple(off - low[root] for root, off in pot[1:])


def check_witness(inst: B2lcInstance, w: B2lcWitness) -> bool:
    """Re-validate a witness against the instance, independently of the solver."""
    if len(w.group_of) != inst.k or len(w.values) != inst.m:
        return False
    if any(len(row) != inst.n_vars for row in w.values):
        return False
    if any(x < 0 for row in w.values for x in row):
        return False
    for (alpha, c, beta), y in zip(inst.equations, w.group_of):
        if not 1 <= y <= inst.m:
            return False
        row = w.values[y - 1]
        if row[alpha - 1] + c != row[beta - 1]:
            return False
    return True


def _assemble_witness(inst: B2lcInstance, group_of: tuple[int, ...]) -> B2lcWitness:
    rows = []
    for y in range(1, inst.m + 1):
        idxs = [i for i, g in enumerate(group_of) if g == y]
        ok, values = group_consistent(inst, idxs)
        assert ok, "groups were checked consistent before assembly"
        rows.append(values)
    return B2lcWitness(group_of=group_of, values=tuple(rows))


def solve_b2lc(inst: B2lcInstance, cap: int = 2_000_000) -> tuple[bool, B2lcWitness | None]:
    """Decide the instance by depth-first search over equation-to-assignment maps.

    Equations are placed in index order. Equation i tries assignments
    1..min(m, used + 1), where used counts the assignments opened by
    equations 0..i-1, so maps that differ only by renaming assignments are
    tried once. A branch is cut as soon as an equation contradicts the
    equations its assignment already holds; a group stays consistent when
    equations are removed, so no cut skips a valid map. The search visits
    maps in lexicographic order, and relabelling assignments by first use
    never makes a map larger, so the witness is the lexicographically first
    valid map of all m^k. With m >= k each equation simply gets its own
    assignment.

    Raises:
        TooLarge: if m^k exceeds cap, a guard on the size of the search space.
    """
    k, m = inst.k, inst.m
    if m >= k:
        return True, _assemble_witness(inst, tuple(range(1, k + 1)))
    if m**k > cap:
        raise TooLarge(f"m^k = {m}^{k} exceeds the enumeration cap {cap}")
    groups = [_potentials(inst.n_vars) for _ in range(m)]
    group_of: list[int] = []  # 0-based assignment of each placed equation
    undo: list = []  # what placing it changed, for _undo
    y = 0  # next assignment to try for equation len(group_of)
    while len(group_of) < k:
        # assignments open in order, so y <= used exactly when y == 0 or
        # assignment y - 1 is in use
        if y < m and (y == 0 or y - 1 in group_of):
            record = _impose(*groups[y], *inst.equations[len(group_of)])
            if record is None:
                y += 1
                continue
            group_of.append(y)
            undo.append(record)
            y = 0
        elif group_of:
            y = group_of.pop()
            record = undo.pop()
            if record:
                _undo(*groups[y], record)
            y += 1
        else:
            return False, None
    return True, _assemble_witness(inst, tuple(g + 1 for g in group_of))


# the largest n solve_3partition backtracks over
_THREE_PARTITION_CAP = 6


def solve_3partition(
    inst: ThreePartitionInstance,
) -> tuple[bool, tuple[tuple[int, int, int], ...] | None]:
    """Decide 3-partition by backtracking over triples of element indices.

    Returns (True, triples) where each triple is 0-based indices into
    inst.elements summing to T/n, or (False, None). An instance whose total
    is not divisible by n is an immediate no. The splits are tried in
    lexicographic order, each as its triples sorted within and by their
    smallest index, so the triples are the first such split that fits.

    Raises:
        TooLarge: if inst.n exceeds _THREE_PARTITION_CAP.
    """
    if inst.n > _THREE_PARTITION_CAP:
        raise TooLarge(f"n={inst.n} exceeds the enumeration cap {_THREE_PARTITION_CAP}")
    total = inst.total
    if total % inst.n:
        return False, None
    target, xs = total // inst.n, inst.elements

    def split(rest: tuple[int, ...]) -> tuple[tuple[int, int, int], ...] | None:
        """The first split of the indices in rest into triples that sum to
        target: the smallest index goes with each pair of the others in
        turn, or None if no split fits."""
        if not rest:
            return ()
        first, *others = rest
        for j, l in combinations(others, 2):
            if xs[first] + xs[j] + xs[l] == target:
                tail = split(tuple(i for i in others if i != j and i != l))
                if tail is not None:
                    return ((first, j, l), *tail)
        return None

    triples = split(tuple(range(3 * inst.n)))
    return (False, None) if triples is None else (True, triples)


def b2lc_to_json(inst: B2lcInstance) -> str:
    return json.dumps(asdict(inst))


def b2lc_from_json(text: str) -> B2lcInstance:
    n_vars, m, equations = _from_json(text, "b2lc", lambda d: (
        int(d["n_vars"]),
        int(d["m"]),
        tuple((int(a), int(c), int(b)) for a, c, b in d["equations"]),
    ))
    return B2lcInstance(n_vars=n_vars, m=m, equations=equations)
