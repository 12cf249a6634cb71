"""The shipped acceptance criteria, one test each.

Every test prints a single verdict line (visible with -s, or in captured
output otherwise) and then asserts the criterion at its stated tolerance.
Each test runs the same check as `pebblecc verify-paper <name>`, so a
failure's detail names what went wrong. The tests after them break, by
monkeypatch, one thing each check relies on and assert that the check then
reports FAIL with a detail naming the break, so no check is green by
construction.
"""

import time
from dataclasses import replace
from fractions import Fraction

import pytest

from pebblecc import acceptance
from pebblecc.acceptance import run_acceptance


def _run(name: str) -> None:
    outcome = run_acceptance([name])[0]
    flag = "PASS" if outcome.passed else "FAIL"
    print(f"\n{flag} {name} ({outcome.elapsed:.2f}s of {outcome.budget:.0f}s): {outcome.detail}")
    assert outcome.passed, outcome.detail


def test_criterion_01_counterexample_upper_bound():
    _run("counterexample-upper")


def test_criterion_02_counterexample_optimality_gap():
    _run("counterexample-gap")


def test_criterion_03_staircase_fractional_corpus():
    _run("staircase-corpus")


def test_criterion_04_reducible_fractional_point():
    _run("reducible-point")


def test_criterion_05_pebbling_ip_embedding():
    _run("ip-embedding")


def test_criterion_06_reduction_chain_soundness():
    _run("reduction-chain")


def test_criterion_07_vc_threshold_consistency():
    _run("vc-threshold")


def test_criterion_08_sync_transform_properties():
    _run("sync-properties")


def test_criterion_09_pyramid_space_and_chain_st():
    _run("space-bounds")


def test_criterion_10_trivial_bounds_sandwich():
    _run("trivial-bounds")


def _then(change):
    """Patch maker: call the original, then pass its result through change."""
    return lambda fn: lambda *args, **kw: change(fn(*args, **kw))


def _rounds(change):
    return _then(lambda p: replace(p, rounds=change(p.rounds)))


def _values(change):
    return _then(lambda s: replace(s, values={k: change(x) for k, x in s.values.items()}))


def _optimum(change):
    return _then(lambda r: replace(r, optimum=change(r.optimum)))


# (check, name the check imported, patch maker, a fragment of the FAIL detail):
# each patch breaks what its check asserts, and the check must report it.
CAN_FAIL = [
    pytest.param("counterexample-upper", "claim_c1_pebbling", _rounds(lambda rs: rs[:-1]),
                 "t=17", id="upper-short"),
    pytest.param("counterexample-gap", "exact_pcc_bounded", lambda fn: lambda *a, **kw: None,
                 "no gap", id="gap-found"),
    pytest.param("staircase-corpus", "fractional_pebbling_solution",
                 _values(lambda x: 2 * x), "infeasible on n=1", id="staircase-doubled"),
    pytest.param("reducible-point", "fractional_reducible_solution",
                 _values(lambda x: Fraction(x) / 2), "n=1 d=1", id="reducible-halved"),
    pytest.param("ip-embedding", "pebbling_to_solution", _values(lambda x: 0),
                 "embedding mismatch", id="embedding-zero"),
    pytest.param("reduction-chain", "reduction_pebbling", _rounds(lambda rs: rs[:-1]),
                 "illegal schedule", id="chain-no-sink"),
    pytest.param("vc-threshold", "is_reducible",
                 _then(lambda r: replace(r, reducible=False)),
                 "no convention", id="vc-never-reducible"),
    pytest.param("sync-properties", "sync_normalize",
                 _rounds(lambda rs: tuple(r + (1,) for r in rs)), "cc increased at seed",
                 id="sync-costlier"),
    pytest.param("sync-properties", "sync_normalize", _rounds(lambda rs: rs[1:]),
                 "not idempotent at seed 0", id="sync-not-idempotent"),
    pytest.param("sync-properties", "random_legal_pebbling",
                 _rounds(lambda rs: tuple(tuple(v for v in r if v != 1) for r in rs)),
                 "seed 0, violation (7, 2, 'missing_parent')", id="sync-illegal"),
    pytest.param("sync-properties", "exact_pcc", _optimum(lambda x: 20), "optimum 20",
                 id="sync-spot"),
    pytest.param("space-bounds", "exact_min_space", _optimum(lambda x: x - 1),
                 "pyramid space bound", id="space-low"),
    pytest.param("space-bounds", "exact_min_st", _optimum(lambda x: x + 1), "chain(1)",
                 id="st-high"),
    pytest.param("trivial-bounds", "exact_pcc", _optimum(lambda x: x - 1), "bounds broken",
                 id="trivial-low"),
]


@pytest.mark.parametrize("check, name, patch, fragment", CAN_FAIL)
def test_every_check_can_fail(monkeypatch, check, name, patch, fragment):
    monkeypatch.setattr(acceptance, name, patch(getattr(acceptance, name)))
    outcome = run_acceptance([check])[0]
    assert outcome.passed is False
    assert fragment in outcome.detail


def _slow_pass() -> tuple[bool, str]:
    time.sleep(0.01)
    return True, "slow detail"


def test_over_budget_check_fails(monkeypatch):
    slow = ("slow-pass", 0.0, _slow_pass)
    monkeypatch.setattr(acceptance, "ACCEPTANCE_CHECKS", acceptance.ACCEPTANCE_CHECKS + (slow,))
    outcome = run_acceptance(["slow-pass"])[0]
    assert outcome.passed is False
    assert outcome.detail.startswith("over budget (")
    assert outcome.detail.endswith("s > 0s); slow detail")
