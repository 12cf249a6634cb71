"""Metric arithmetic of the benchmark harness, on canned inputs."""

from types import SimpleNamespace

import pytest

from benchstats import rate, tail
from benchtrace import NullTracer, Span, Tracer, self_times
from run import end_to_end, run_pass


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 41))  # 40 samples
    assert tail(values) == (30, 75.0, 40)
    value, pct, n = tail(reversed(range(1, 12)))  # 11 samples: only the minimum qualifies
    assert (value, n) == (1, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(10))


def test_rate_reads_zero_over_zero_as_zero():
    assert rate(0, 0) == 0.0
    assert rate(1, 4) == 0.25


def _job(name, run, check=lambda out, outputs: None, expect=(), budget=None):
    return SimpleNamespace(
        name=name, run=run, check=check, expect=expect, budget=budget, keep=False,
        counts=lambda out: {},
    )


def _raise(exc):
    def run(tr):
        raise exc

    return run


def test_error_and_cap_miss_counting():
    jobs = [
        _job("ok", lambda tr: 1),
        _job("wrong", lambda tr: 2, check=lambda out, outputs: "bad" if out == 2 else None),
        _job("crash", _raise(KeyError("x"))),
        _job("expected", _raise(TimeoutError()), expect=(TimeoutError,),
             check=lambda out, outputs: None if isinstance(out, TimeoutError) else "no"),
        _job("bad-oracle", lambda tr: 3, check=lambda out, outputs: 1 / 0),
        _job("kept", lambda tr: 4, budget=10.0),
        _job("missed", lambda tr: 5, budget=0.0),
    ] + [_job(f"filler{i}", lambda tr: 0) for i in range(5)]
    p = run_pass(jobs, NullTracer())
    assert [name for name, _ in p.failures] == ["wrong", "crash", "bad-oracle"]
    assert (p.budgeted, p.cap_missed) == (2, 1)
    m = end_to_end([p, p], setup_s=0.5)
    assert m["ok_rate"]["value"] == pytest.approx(1 - 3 / 12)
    assert m["cap_kept_rate"]["value"] == 0.5
    assert m["setup_s"] == {"value": 0.5, "unit": "s"}


def test_no_budgeted_jobs_reads_as_no_cap_misses():
    p = run_pass([_job(f"j{i}", lambda tr: 0) for i in range(11)], NullTracer())
    assert (p.budgeted, p.cap_missed, p.failures) == (0, 0, [])
    assert end_to_end([p], setup_s=0.1)["cap_kept_rate"]["value"] == 1.0


def test_self_time_subtracts_children():
    spans = [
        Span(1, "lp.verify", 1.0, 3.0, 0, "j"),
        Span(2, "lp.build", 3.0, 4.0, 0, "j"),
        Span(0, "bench.job", 0.0, 10.0, None, "j"),
        Span(4, "graph", 11.5, 12.0, 3, "k"),
        Span(3, "bench.job", 11.0, 12.0, None, "k"),
    ]
    assert self_times(spans) == {
        "bench.job": pytest.approx(7.0 + 0.5),
        "lp.verify": 2.0,
        "lp.build": 1.0,
        "graph": 0.5,
    }


def test_tracer_records_parent_and_job():
    tr = Tracer()
    tr.job = "j"
    tr.call("outer", lambda: tr.call("inner", lambda: None))
    inner, outer = tr.spans
    assert (inner.name, inner.parent, inner.job) == ("inner", outer.id, "j")
    assert outer.parent is None
