"""The shipped acceptance criteria, one test each.

Every test prints a single verdict line (visible with -s, or in captured
output otherwise) and then asserts the criterion at its stated tolerance.
Each test runs the same check as `pebblecc verify-paper <name>`, so a
failure's detail names what went wrong.
"""

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
