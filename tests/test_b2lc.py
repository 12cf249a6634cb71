import random
import warnings
from functools import cache
from itertools import combinations, combinations_with_replacement, product

import pytest

from pebblecc.b2lc import (
    B2lcBudgetWarning,
    B2lcInstance,
    B2lcWitness,
    ThreePartitionInstance,
    TooLarge,
    b2lc_from_json,
    b2lc_to_json,
    check_witness,
    group_consistent,
    solve_3partition,
    solve_b2lc,
)
from pebblecc.reductions import threepartition_to_b2lc


def _inst(equations, m=1, n_vars=None):
    if n_vars is None:
        n_vars = max(max(a, b) for a, _, b in equations)
    return B2lcInstance(n_vars=n_vars, m=m, equations=tuple(equations))


def test_group_consistent_chain():
    inst = _inst([(1, 1, 2), (2, 2, 3)])
    ok, values = group_consistent(inst, [0, 1])
    assert ok
    assert values == (0, 1, 3)


def test_group_conflict():
    inst = _inst([(1, 1, 2), (1, 2, 2)], m=2)
    ok, values = group_consistent(inst, [0, 1])
    assert not ok and values is None


def test_group_empty_is_all_zero():
    inst = _inst([(1, 1, 2)], n_vars=4)
    assert group_consistent(inst, []) == (True, (0, 0, 0, 0))


def test_group_conflicting_cycle():
    # x1 -> x2 -> x3 forced up by 2, but a direct equation forces 5
    inst = _inst([(1, 1, 2), (2, 1, 3), (1, 5, 3)])
    ok, _ = group_consistent(inst, [0, 1, 2])
    assert not ok
    ok, values = group_consistent(inst, [0, 1])
    assert ok and values == (0, 1, 2)


def test_group_merges_two_components():
    # (1, 2) and (3, 4) are separate components until x3 = x2 + 5 joins them
    inst = _inst([(1, 2, 2), (3, 1, 4), (2, 5, 3)])
    assert group_consistent(inst, [0, 1, 2]) == (True, (0, 2, 7, 8))


def test_canonical_values_satisfy_random_consistent_systems():
    rng = random.Random(20240814)
    for _ in range(80):
        n_vars = rng.randint(2, 8)
        ground = [rng.randint(0, 10) for _ in range(n_vars)]
        eqs = []
        for _ in range(rng.randint(1, 12)):
            a, b = rng.sample(range(1, n_vars + 1), 2)
            if ground[a - 1] > ground[b - 1]:
                a, b = b, a
            eqs.append((a, ground[b - 1] - ground[a - 1], b))
        inst = _inst(eqs, n_vars=n_vars)
        ok, values = group_consistent(inst, range(len(eqs)))
        assert ok
        assert all(v >= 0 for v in values)
        for alpha, c, beta in eqs:
            assert values[alpha - 1] + c == values[beta - 1]


def test_solve_b2lc_needs_budget_two():
    eqs = [(1, 1, 2), (1, 2, 2)]
    yes, w = solve_b2lc(_inst(eqs, m=1))
    assert not yes and w is None
    yes, w = solve_b2lc(_inst(eqs, m=2))
    assert yes
    assert check_witness(_inst(eqs, m=2), w)


def test_solve_b2lc_single_assignment():
    inst = _inst([(1, 1, 2), (2, 2, 3)], m=1)
    yes, w = solve_b2lc(inst)
    assert yes
    assert w.values == ((0, 1, 3),)
    assert w.group_of == (1, 1)
    assert check_witness(inst, w)


def test_solve_b2lc_long_single_assignment_chain():
    # m = 1 admits any k; x_i = x_{i+1} + 1 always merges a lone variable
    # into the long component, whichever side of the equation it is on
    n = 3000
    inst = _inst([(i + 1, 1, i) for i in range(1, n)], m=1)
    yes, w = solve_b2lc(inst)
    assert yes and w.values == (tuple(range(n - 1, -1, -1)),)


def test_solve_b2lc_budget_at_least_k_is_yes():
    rng = random.Random(7)
    for _ in range(20):
        n_vars = rng.randint(2, 5)
        k = rng.randint(1, 4)
        eqs = []
        for _ in range(k):
            a, b = rng.sample(range(1, n_vars + 1), 2)
            eqs.append((a, rng.randint(0, 5), b))
        with pytest.warns(B2lcBudgetWarning):
            inst = B2lcInstance(n_vars=n_vars, m=k + 1, equations=tuple(eqs))
        yes, w = solve_b2lc(inst)
        assert yes and check_witness(inst, w)


def test_solve_b2lc_monotone_in_m():
    rng = random.Random(99)
    for _ in range(30):
        n_vars = rng.randint(2, 4)
        eqs = []
        for _ in range(rng.randint(2, 5)):
            a, b = rng.sample(range(1, n_vars + 1), 2)
            eqs.append((a, rng.randint(0, 3), b))
        answers = []
        for m in range(1, len(eqs) + 1):
            answers.append(solve_b2lc(_inst(eqs, m=m))[0])
        # once yes, always yes
        assert answers == sorted(answers)


def _reference_values(inst, idxs):
    """Canonical values of one group by walking its constraint graph, or None.

    Independent of group_consistent: each component is labelled outward from
    its first variable, then shifted so its minimum is 0.
    """
    adj = {}
    for i in idxs:
        a, c, b = inst.equations[i]
        adj.setdefault(a, []).append((b, c))
        adj.setdefault(b, []).append((a, -c))
    values = [0] * inst.n_vars
    label = {}
    for start in adj:
        if start in label:
            continue
        label[start] = 0
        comp = [start]
        for v in comp:
            for w, c in adj[v]:
                if w not in label:
                    label[w] = label[v] + c
                    comp.append(w)
                elif label[w] != label[v] + c:
                    return None
        low = min(label[v] for v in comp)
        for v in comp:
            values[v - 1] = label[v] - low
    return tuple(values)


def _reference_b2lc(inst):
    """Plain enumeration of all m^k maps in lexicographic order (for m < k,
    where solve_b2lc has no shortcut)."""
    for mapping in product(range(1, inst.m + 1), repeat=inst.k):
        rows = []
        for y in range(1, inst.m + 1):
            rows.append(_reference_values(inst, [i for i, g in enumerate(mapping) if g == y]))
            if rows[-1] is None:
                break
        else:
            return True, B2lcWitness(group_of=mapping, values=tuple(rows))
    return False, None


def _assert_matches_reference(inst):
    got = solve_b2lc(inst, cap=20_000_000)
    assert got == _reference_b2lc(inst), inst
    if got[0]:
        assert check_witness(inst, got[1])
    return got[0]


def test_solve_b2lc_matches_reference_on_3partition_ladders():
    count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (1, 2):
            for elems in combinations_with_replacement(range(1, 5), 3 * n):
                _assert_matches_reference(
                    threepartition_to_b2lc(ThreePartitionInstance(elements=elems, n=n))
                )
                count += 1
    assert count == 104


def test_solve_b2lc_matches_reference_on_random_instances():
    rng = random.Random(20261018)
    answers = {1: set(), 2: set(), 3: set()}
    for _ in range(300):
        n_vars = rng.randint(2, 5)
        m = rng.randint(1, 3)
        eqs = []
        for _ in range(rng.randint(m + 1, 9)):
            a, b = rng.sample(range(1, n_vars + 1), 2)
            eqs.append((a, rng.randint(0, 4), b))
        answers[m].add(_assert_matches_reference(_inst(eqs, m=m, n_vars=n_vars)))
    # both answers occur for every budget, so neither branch goes untested
    assert all(seen == {True, False} for seen in answers.values())


def test_solve_b2lc_too_large():
    eqs = [(1, i % 3, 2) for i in range(25)]
    with pytest.raises(TooLarge):
        solve_b2lc(_inst(eqs, m=3), cap=1000)


def test_instance_validation():
    with pytest.raises(ValueError):
        B2lcInstance(n_vars=2, m=1, equations=((1, 1, 1),))
    with pytest.raises(ValueError):
        B2lcInstance(n_vars=2, m=1, equations=((1, -1, 2),))
    with pytest.raises(ValueError):
        B2lcInstance(n_vars=1, m=1, equations=((1, 1, 2),))
    with pytest.raises(ValueError):
        B2lcInstance(n_vars=2, m=1, equations=())
    with pytest.warns(B2lcBudgetWarning):
        B2lcInstance(n_vars=2, m=3, equations=((1, 1, 2),))


def test_zero_offset_allowed():
    inst = _inst([(1, 0, 2), (2, 0, 1)])
    yes, w = solve_b2lc(inst)
    assert yes and w.values == ((0, 0),)


def test_three_partition_examples():
    yes, triples = solve_3partition(ThreePartitionInstance(elements=(1, 2, 3), n=1))
    assert yes and triples == ((0, 1, 2),)
    yes, triples = solve_3partition(
        ThreePartitionInstance(elements=(1, 1, 1, 1, 1, 1), n=2)
    )
    assert yes and len(triples) == 2
    yes, triples = solve_3partition(
        ThreePartitionInstance(elements=(1, 1, 1, 1, 1, 2), n=2)
    )
    assert not yes and triples is None  # total 7 is odd


def test_three_partition_witness_partitions_indices():
    inst = ThreePartitionInstance(elements=(2, 2, 2, 2, 3, 1), n=2)
    yes, triples = solve_3partition(inst)
    assert yes
    seen = sorted(i for t in triples for i in t)
    assert seen == list(range(6))
    for t in triples:
        assert sum(inst.elements[i] for i in t) == inst.total // inst.n


@cache
def _triple_splits(indices):
    """Every split of the indices into triples, each as a sorted tuple of
    sorted triples. Any triple may be taken first, so each split is built
    once per order of its triples, and the set keeps one copy."""
    if not indices:
        return frozenset({()})
    splits = set()
    for t in combinations(indices, 3):
        rest = tuple(i for i in indices if i not in t)
        splits.update(tuple(sorted((t, *s))) for s in _triple_splits(rest))
    return frozenset(splits)


def _reference_3partition(elems, n):
    """Brute force: the smallest valid split, or (False, None)."""
    total = sum(elems)
    fit = {t for t in combinations(range(3 * n), 3) if n * sum(elems[i] for i in t) == total}
    valid = [s for s in _triple_splits(tuple(range(3 * n))) if fit.issuperset(s)]
    return (True, min(valid)) if valid else (False, None)


def test_three_partition_matches_brute_force():
    """The answer and the triples: every multiset over 1..5 with n <= 2,
    then seeded random instances with n = 3 and n = 4."""
    cases = [(elems, n) for n in (1, 2) for elems in combinations_with_replacement(range(1, 6), 3 * n)]
    rng = random.Random(20261020)
    cases += [(tuple(rng.randint(1, 6) for _ in range(3 * n)), n) for n in (3, 4) for _ in range(60)]
    answers = {1: set(), 2: set(), 3: set(), 4: set()}
    for elems, n in cases:
        got = solve_3partition(ThreePartitionInstance(elements=elems, n=n))
        assert got == _reference_3partition(elems, n), (elems, n)
        answers[n].add(got[0])
    assert len(cases) == 365
    # one triple always fits at n = 1; both answers occur for every larger n
    assert answers == {1: {True}, 2: {True, False}, 3: {True, False}, 4: {True, False}}


def test_three_partition_too_large():
    with pytest.raises(TooLarge):
        solve_3partition(ThreePartitionInstance(elements=(1,) * 30, n=10))


def test_three_partition_promise_flag():
    assert ThreePartitionInstance(elements=(1, 1, 1), n=1).promise_satisfied
    # 1 < T/4 and 3 >= T/2 for T=6
    assert not ThreePartitionInstance(elements=(1, 2, 3), n=1).promise_satisfied
    assert ThreePartitionInstance(elements=(2, 2, 2, 2, 2, 2), n=2).promise_satisfied


def test_three_partition_validation():
    with pytest.raises(ValueError):
        ThreePartitionInstance(elements=(1, 2), n=1)
    with pytest.raises(ValueError):
        ThreePartitionInstance(elements=(0, 1, 2), n=1)


def test_json_round_trip():
    inst = _inst([(1, 1, 2), (2, 0, 3)], m=2)
    again = b2lc_from_json(b2lc_to_json(inst))
    assert again.n_vars == inst.n_vars
    assert again.m == inst.m
    assert again.equations == inst.equations


def test_reduced_instance_survives_its_json_round_trip():
    """A reduced 3-partition instance is a plain instance: its JSON round
    trip gives it back, and it hashes."""
    for elems, n in (((2, 2, 2), 1), ((1, 2, 3, 1, 2, 3), 2)):
        inst = threepartition_to_b2lc(ThreePartitionInstance(elements=elems, n=n))
        assert b2lc_from_json(b2lc_to_json(inst)) == inst
        assert hash(inst) == hash(b2lc_from_json(b2lc_to_json(inst)))


def test_witness_checker_rejects_bad_tables():
    inst = _inst([(1, 1, 2)], m=1)
    assert not check_witness(inst, B2lcWitness(group_of=(1,), values=((0, 0),)))
    assert not check_witness(inst, B2lcWitness(group_of=(2,), values=((0, 1),)))
    assert not check_witness(inst, B2lcWitness(group_of=(1,), values=((0, 1, 0),)))
    assert check_witness(inst, B2lcWitness(group_of=(1,), values=((3, 4),)))
