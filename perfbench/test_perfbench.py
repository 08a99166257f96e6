"""Self-tests of the benchmark's derived numbers and trace wiring.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import make_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from mhroots import bkk  # noqa: E402
from mhroots.corpus import random_shape  # noqa: E402
from mhroots.expectation import bounds  # noqa: E402
from mhroots.shape import validate  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the children cover 1..6
        ["a.child", 2.0, 3.0, 1],
        ["late", 9.0, 12.0, 0],  # clipped to the parent: covers 9..10
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_inclusive_time_counts_nested_same_name_spans_once():
    spans = [
        ["expectation", 0.0, 5.0, -1],
        ["expectation", 1.0, 3.0, 0],
        ["gaussian.mc_abs_det", 1.5, 2.5, 1],
    ]
    m = tracing.layer_metrics(spans, tracing.Tracer().counts, pass_wall=5.0, systems_reported=0)
    assert m["expectation.calls"] == 2
    assert m["expectation.self_s"] == pytest.approx(4.0)
    assert m["gaussian.mc_abs_det.s"] == pytest.approx(1.0)
    assert set(m) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)


def test_job_breakdown_sums_outermost_spans_per_root():
    spans = [
        ["job a", 0.0, 10.0, -1],
        ["expectation", 1.0, 6.0, 0],
        ["expectation", 2.0, 3.0, 1],
        ["rng.normals", 3.0, 4.0, 1],
        ["job b", 10.0, 12.0, -1],
        ["rng.normals", 10.5, 11.0, 4],
    ]
    assert tracing.job_breakdown(spans) == {
        "job a": {"total": 10.0, "expectation": 5.0, "rng.normals": 1.0},
        "job b": {"total": 2.0, "rng.normals": 0.5},
    }


def test_time_to_1pct_formula():
    # stderr 0.2 on mean 10 is 2% relative: 4x the samples, so 4x the 2 s
    assert run.time_to_1pct([(2.0, 10.0, 0.2)]) == pytest.approx(8.0)
    assert run.time_to_1pct([(2.0, -10.0, 0.2), (1.0, 4.0, 0.02)]) == pytest.approx(8.25)


def test_job_time_is_the_median_of_seconds_over_slowdown():
    job = wl.Job("j", lambda: None, lambda out: None)
    passes = [
        wl.PassResult(1.0, [wl.JobRun(job, seconds, None, None, slowdown)])
        for seconds, slowdown in ((1.0, 1.0), (2.2, 2.0), (1.8, 1.5))
    ]
    assert run.job_times(passes) == pytest.approx([1.1])
    assert run.fastest_job_times(passes) == [1.0]


def test_reference_loops_measure_a_slowdown_near_one_on_a_quiet_machine():
    for reference in (wl.ARITHMETIC, wl.OBJECTS):
        assert 0.3 < min(reference.slowdown() for _ in range(5)) < 5.0
    assert wl._memo_paths(3, 3, {}) == 20  # C(6, 3)


def test_speed_probe_samples_inside_a_job_and_its_time_is_left_out():
    with wl.SpeedProbe(wl.ARITHMETIC) as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * wl.PROBE_INTERVAL_S:
            pass
        t1 = time.perf_counter()
    assert len(speed.samples) == len(speed.spent) >= 2
    assert speed.inside(t0, t1) == pytest.approx(sum(b - a for a, b in speed.spent))
    assert speed.inside(t1, t1 + 1.0) == 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with wl.SpeedProbe(None) as quiet:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 2 * wl.PROBE_INTERVAL_S:
            pass
    assert quiet.samples == []


def test_error_rate_counts_raises_and_failed_checks():
    def boom():
        raise ValueError("bad input")

    workload = wl.Workload("unit", [
        wl.Job("ok", lambda: 1, lambda out: None),
        wl.Job("raises", boom, lambda out: None),
        wl.Job("wrong", lambda: 2, lambda out: "expected 1"),
        wl.Job("check raises", lambda: None, lambda out: out["missing"]),
    ], [])
    result = workload.run_pass()
    assert [r.error is None for r in result.runs] == [True, False, False, False]
    assert result.failed == 3
    assert run.error_rate(len(result.runs), result.failed) == 0.75


def test_bypass_rules():
    assert tracing.bypass_violations("exact-bkk", [], {"rng.normals.draws": 0}) == []
    assert tracing.bypass_violations("exact-bkk", [], {"rng.normals.draws": 8})
    clean = [["empirical.sample_counts", 0.0, 1.0, -1], ["rng.normals", 0.1, 0.2, 0]]
    assert tracing.bypass_violations("root-count", clean, {}) == []
    dirty = clean + [["permanent.float", 0.3, 0.4, 0]]
    assert tracing.bypass_violations("root-count", dirty, {}) == ["root-count opened permanent.float spans"]


def _traced(workload):
    tracer = tracing.Tracer()
    result, metrics, problems, breakdown = tracing.traced_pass(tracer, workload)
    assert set(breakdown) == {f"job {job.name}" for job in workload.jobs}
    assert result.failed == 0
    return tracer, metrics, problems


def test_traced_cli_bkk_draws_no_normals_and_restores_the_program():
    import mhroots.cli as cli
    import mhroots.rng as rng

    originals = (rng.normals, cli.main, bkk._bkk_state)
    job = wl.Job("bkk", lambda: wl.run_cli(["bkk", wl.shape_file("game-3x6")]),
                 lambda rep: None if rep["exit_code"] == 0 else "exit", fresh=True)
    tracer, metrics, problems = _traced(wl.Workload("exact-bkk", [job], []))
    assert problems == []
    assert metrics["rng.normals.draws"] == 0
    assert metrics["bkk.recursive.calls"] == 1
    assert metrics["bkk.memo_states"] > 0 and 0 < metrics["bkk.memo_hit_rate"] < 1
    assert metrics["cli.main.s"] > metrics["cli.self_s"] > 0
    assert (rng.normals, cli.main, bkk._bkk_state) == originals


def test_traced_root_counting_opens_no_gaussian_or_permanent_spans():
    import mhroots.empirical as memp

    spec = validate((1,), [(3,)])
    jobs = [
        wl.Job("empirical", lambda: memp.empirical_expectation(spec, 2000, 1), lambda e: None, systems=2000),
        wl.Job("simulate", lambda: wl.run_cli(["simulate", wl.shape_file("bilinear"), "--samples", "2000"]),
               lambda rep: None, systems=2000),
    ]
    tracer, metrics, problems = _traced(wl.Workload("root-count", jobs, []))
    assert problems == []
    assert not {s[0] for s in tracer.spans} & {"gaussian.mc_abs_det", "gaussian.det", "permanent.float"}
    assert metrics["empirical.systems_drawn"] == 6000  # simulate draws every system twice
    assert metrics["empirical.useful_draw_share"] == pytest.approx(4000 / 6000)
    assert metrics["rng.normals.draws"] > 0


def test_reset_memos_empties_the_recursion_memo():
    bkk.bkk_count(validate((2, 2), [(1, 2), (2, 1), (1, 1), (2, 2)]))
    counts = tracing.Tracer().counts
    states = len(bkk._BKK_MEMO)
    assert states > 0
    wl.reset_memos(counts)
    assert counts["bkk.memo_states"] == states
    assert len(bkk._BKK_MEMO) == 0 and len(bkk._REDUCIBLE_MEMO) == 0


def test_reference_sandwich_matches_the_ryser_bound():
    for index in range(20):
        spec = random_shape(5, index)
        got = make_reference.sandwich(spec)
        rep = bounds(spec, samples=200, seed=1)
        assert got["upper"] == pytest.approx(rep.upper, rel=1e-12)
        assert got["lower"] == pytest.approx(rep.lower, rel=1e-12)


def test_window_check():
    assert wl.within_window(1.0, 0.1, 1.3, 1.3) is None
    assert wl.within_window(1.0, 0.1, 1.5, 1.5) is not None
    assert wl.within_window(2.0, 0.0, 1.0, 3.0) is None
    assert wl.within_window(math.pi, 0.0, 1.0, 3.0) is not None
