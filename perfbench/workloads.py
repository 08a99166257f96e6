"""The benchmark's four workloads: fixed job lists over fixed shapes.

Every workload is a batch job with one caller (a closed loop, no arrival
rate).  A *pass* runs the workload's job list once; the timed phase repeats
passes.  Each job calls the program through a module attribute looked up at
call time (``mx.expectation``, ``cli.main``, ...), so the traced run can
wrap the function at the name its caller uses.

Machine speed: the shared host slows every job by up to 70% in spells
that last from seconds to minutes.  A pass therefore runs a fixed
pure-Python reference loop before its first job, after every job and,
from a timer signal, every PROBE_INTERVAL_S while a job runs.  Each job
run carries the mean slowdown the loops around and inside it measured, and
its own time leaves the loops inside it out (see ``ReferenceLoop`` and
``SpeedProbe``).

Seeds: the workload seed picks every Monte Carlo seed; shapes are fixed.
``verify-corpus`` always verifies the corpus of ``mhroots verify --seed 0``
(the README's run): ``--seed`` there selects the corpus as well as the
streams, and the corpus mix moves wall time about 3x from seed to seed.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import mhroots.bkk as mbkk
import mhroots.cli as cli
import mhroots.empirical as memp
import mhroots.gaussian as mg
from mhroots.shape import game_shape, validate

# The package re-exports the function ``expectation`` under the module's name.
mx = importlib.import_module("mhroots.expectation")

HERE = Path(__file__).resolve().parent
SHAPE_DIR = HERE / "shapes"
REFERENCE_PATH = HERE / "reference.json"

# Seconds between reference loops while a job runs.
PROBE_INTERVAL_S = 0.25
# Multiplier of the 4-SE windows used by tier-1.
SE_WINDOW = 4.0
VERIFY_ARGS = ["verify", "--count", "100", "--samples", "100000", "--seed", "0"]


def two_type_shape():
    """n = 42 > LOGDET_DIM: 21 rows [1, 2] and 21 rows [2, 1] on blocks (21, 21)."""
    return validate((21, 21), [(1, 2)] * 21 + [(2, 1)] * 21)


def rank_one_shape(block_sizes, e):
    """Degrees d_i * e_j with d alternating 1, 2: closed form, no product split."""
    n = sum(block_sizes)
    return validate(block_sizes, [tuple((1 + i % 2) * ej for ej in e) for i in range(n)])


# (label, shape, samples): expectation() on shapes that neither factor nor split.
MC_EXPECT = (
    ("game-2x4", game_shape((2,) * 4), 65_536),
    ("game-3x4", game_shape((3,) * 4), 65_536),
    ("game-4x4", game_shape((4,) * 4), 65_536),
    ("game-8x4", game_shape((8,) * 4), 4_096),
    ("two-type-42", two_type_shape(), 4_096),
)
# (label, shape, samples): mc_abs_det on rank-one shapes, exact reference.
MC_RANK_ONE = (
    ("rank-one-6", rank_one_shape((3, 3), (1, 3)), 65_536),
    ("rank-one-10", rank_one_shape((4, 6), (2, 1)), 65_536),
)
# Shape files of the CLI jobs, written by make_reference.py.
BKK_SHAPES = {
    "game-3x6": game_shape((3,) * 6),
    "game-4x5": game_shape((4,) * 5),
    "game-2x9": game_shape((2,) * 9),
    "game-3x8": game_shape((3,) * 8),
}
BOUNDS_SHAPES = {
    "rank-one-14": rank_one_shape((7, 7), (1, 2)),
    "rank-one-16": rank_one_shape((8, 8), (1, 2)),
    "rank-one-18": rank_one_shape((9, 9), (1, 2)),
}
SIMULATE_SHAPES = {
    "bilinear": validate((1, 1), [(1, 1), (1, 1)]),
    "uni-x-bilinear": validate((1, 1, 1), [(3, 0, 0), (0, 1, 1), (0, 1, 1)]),
}
SIMULATE_SAMPLES = {"bilinear": 1_000_000, "uni-x-bilinear": 262_144}
SIMULATE_MEANS = {"bilinear": math.pi / 2, "uni-x-bilinear": math.sqrt(3) * math.pi / 2}
EMPIRICAL_DEGREES = (2, 6, 12)
EMPIRICAL_SAMPLES = 65_536
UNIFORMITY = {"degree": 6, "samples": 65_536, "bins": 10}


def shape_file(label: str) -> str:
    return str(SHAPE_DIR / f"{label}.json")


def job_seed(seed: int, index: int) -> int:
    """Monte Carlo seed of job ``index`` under workload seed ``seed``."""
    return seed * 1000 + index


def reset_memos(counts: dict | None = None) -> None:
    """Empty the program's module-level memos, as a fresh process has them.

    With ``counts``, first adds the recursion memo's size to
    ``counts["bkk.memo_states"]``: the states one fresh process built.
    """
    if counts is not None:
        counts["bkk.memo_states"] += len(getattr(mbkk, "_BKK_MEMO", ()))
    for name, module in list(sys.modules.items()):
        if name != "mhroots" and not name.startswith("mhroots."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif ("MEMO" in attr.upper() or "CACHE" in attr.upper()) and hasattr(value, "clear"):
                value.clear()


def _arithmetic(iterations: int) -> int:
    x = 0
    for i in range(iterations):
        x += i * i
    return x


def _memo_paths(a: int, b: int, memo: dict) -> int:
    """Lattice paths to (a, b) by a recursion with a dict memo on tuple keys."""
    if a == 0 or b == 0:
        return 1
    key = (a, b)
    if key not in memo:
        memo[key] = _memo_paths(a - 1, b, memo) + _memo_paths(a, b - 1, memo)
    return memo[key]


@dataclass(frozen=True)
class ReferenceLoop:
    """A fixed piece of pure-Python work and its nominal time.

    It belongs to the benchmark, never to the program, so it runs the same
    on every commit: its time over ``nominal_s`` is how much other tenants
    slow the machine just then.  ``nominal_s`` is about its time on the
    machine of README.md when nothing else slowed it.
    """

    name: str
    work: Callable[[], Any]
    nominal_s: float

    def slowdown(self) -> float:
        """Times the work with the cyclic garbage collector off, whose cost
        would depend on the program's heap."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.work()
            return (time.perf_counter() - t0) / self.nominal_s
        finally:
            if collecting:
                gc.enable()


# Interpreter arithmetic: follows the slow-down of numpy-driven jobs best.
ARITHMETIC = ReferenceLoop("arithmetic", lambda: _arithmetic(200_000), 0.010)
# Half arithmetic, half a dict-memo recursion: follows the pure-Python
# BKK recursion and Ryser loops, which slow more than arithmetic does.
OBJECTS = ReferenceLoop(
    "arithmetic+memo", lambda: (_arithmetic(100_000), [_memo_paths(60, 60, {}) for _ in range(3)]), 0.0095
)


class SpeedProbe:
    """Runs a reference loop every PROBE_INTERVAL_S of a ``with`` block.

    The loop runs in a SIGALRM handler, so between two bytecodes of the
    job; a long call into C delays it until the call returns.  ``samples``
    holds the slowdowns measured, ``spent`` the (start, end) of each
    handler run.  ``reference=None`` runs no loop.
    """

    def __init__(self, reference: ReferenceLoop | None):
        self.reference = reference
        self.samples: list[float] = []
        self.spent: list[tuple[float, float]] = []

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.reference.slowdown())
        self.spent.append((t0, time.perf_counter()))

    def __enter__(self):
        if self.reference is not None:
            self.previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        if self.reference is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of handler runs within [t0, t1]."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.spent)


@dataclass
class Job:
    """One call into the program and the check of its output.

    ``check`` returns an error message or None.  ``estimate`` gives the
    (mean, standard error) pair of a Monte Carlo output.  ``samples`` counts
    the random matrices requested, ``systems`` the systems whose real roots
    are counted and reported.  ``fresh`` jobs start from empty memos, like
    one ``mhroots`` command line call.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    shapes: int = 1
    samples: int = 0
    systems: int = 0
    estimate: Callable[[Any], tuple[float, float]] | None = None
    fresh: bool = False


@dataclass
class JobRun:
    """``seconds`` leaves out the reference loops run inside the job.

    ``slowdown``: the mean slowdown the reference loops measured just
    before, during and just after the job.
    """

    job: Job
    seconds: float
    output: Any
    error: str | None
    slowdown: float

    @property
    def normalized(self) -> float:
        """The job's seconds at the reference loop's nominal speed."""
        return self.seconds / self.slowdown


@dataclass
class PassResult:
    wall: float
    runs: list[JobRun]

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.runs)


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    warmups: list[Callable[[], Any]]
    reference: ReferenceLoop = ARITHMETIC

    def warm_up(self) -> None:
        for call in self.warmups:
            call()
        reset_memos()

    def run_pass(self, counts: dict | None = None, wrap=None, probe: bool = True) -> PassResult:
        """Run every job once, from empty memos; exceptions count as failures.

        ``wrap(job)`` gives the callable to run in place of ``job.call``.
        ``probe=False`` runs no reference loop inside the jobs.  The pass
        wall time leaves out the reference loops.
        """
        runs = []
        t_pass = time.perf_counter()
        before = self.reference.slowdown()
        in_loops = time.perf_counter() - t_pass
        for job in self.jobs:
            if job.fresh:
                reset_memos(counts)
            call = wrap(job) if wrap else job.call
            with SpeedProbe(self.reference if probe else None) as speed:
                t0 = time.perf_counter()
                try:
                    output, error = call(), None
                except Exception as exc:  # a failing operation is counted, not fatal
                    output, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            seconds = t1 - t0 - speed.inside(t0, t1)
            if error is None:
                try:
                    error = job.check(output)
                except Exception as exc:  # a malformed output fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
            t_loop = time.perf_counter()
            after = self.reference.slowdown()
            in_loops += time.perf_counter() - t_loop + sum(b - a for a, b in speed.spent)
            runs.append(JobRun(job, seconds, output, error, statistics.mean([before, *speed.samples, after])))
            before = after
        wall = time.perf_counter() - t_pass - in_loops
        reset_memos(counts)
        return PassResult(wall, runs)


# ---------------------------------------------------------------------------
# checks


def within_window(value: float, se: float, low: float, high: float) -> str | None:
    """None when ``value`` lies in [low, high] widened by SE_WINDOW standard errors."""
    slack = SE_WINDOW * se + 1e-9 * max(1.0, abs(high))
    if low - slack <= value <= high + slack:
        return None
    return f"{value:.6g} +- {se:.3g} outside [{low:.6g}, {high:.6g}]"


def rel_close(got: float, want: float, rel: float = 1e-9) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def run_cli(argv: list[str]) -> dict:
    """``mhroots`` called in-process: the parsed JSON report plus its exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = json.loads(buf.getvalue()) if buf.getvalue() else {}
    report["exit_code"] = code
    return report


def _exit_ok(report: dict) -> str | None:
    return None if report["exit_code"] == 0 else f"exit code {report['exit_code']}"


# ---------------------------------------------------------------------------
# workload builders


def _mc_expect(seed: int, ref: dict) -> Workload:
    jobs = []
    for index, (label, spec, samples) in enumerate(MC_EXPECT):
        r = ref[label]
        s = job_seed(seed, index)

        def check(res, r=r):
            if res.kind != "monte_carlo":
                return f"path {res.kind}, expected monte_carlo"
            return within_window(res.value, res.stderr, r["lower"], r["upper"])

        jobs.append(Job(
            f"expectation {label}",
            lambda spec=spec, samples=samples, s=s: mx.expectation(spec, samples, s, workers=1),
            check,
            samples=samples,
            estimate=lambda res: (res.value, res.stderr),
        ))
    for index, (label, spec, samples) in enumerate(MC_RANK_ONE, start=len(MC_EXPECT)):
        target = ref[label]["abs_det"]
        s = job_seed(seed, index)
        jobs.append(Job(
            f"mc_abs_det {label}",
            lambda spec=spec, samples=samples, s=s: mg.mc_abs_det(
                mg.variance_profile(spec), samples, s, workers=1
            ),
            lambda est, t=target: within_window(est.mean, est.stderr, t, t),
            samples=samples,
            estimate=lambda est: (est.mean, est.stderr),
        ))
    tiny = game_shape((1, 1, 1))
    warmups = [
        lambda: mx.expectation(tiny, 64, 1, workers=1),
        lambda: mg.mc_abs_det(mg.variance_profile(tiny), 64, 1, workers=1),
    ]
    return Workload("mc-expect", jobs, warmups)


def _exact_bkk(seed: int, ref: dict) -> Workload:
    del seed  # exact counts draw no random numbers
    jobs = []
    for label in BKK_SHAPES:
        r = ref["bkk"][label]

        def check(rep, r=r):
            res = rep["results"]
            if res["bkk"]["value"] != r["count"]:
                return f"bkk {res['bkk']['value']} != {r['count']}"
            if res["simply_reducible"] != r["simply_reducible"]:
                return "simply_reducible flag differs"
            return _exit_ok(rep)

        jobs.append(Job(f"bkk {label}", lambda p=shape_file(label): run_cli(["bkk", p]), check, fresh=True))
    for label in BOUNDS_SHAPES:
        r = ref["bounds"][label]

        def check(rep, r=r):
            res = rep["results"]
            for key in ("upper", "lower"):
                if not rel_close(res[key]["value"], r[key]):
                    return f"{key} {res[key]['value']!r} != {r[key]!r}"
            if res["bkk"]["value"] != r["bkk"] or res["equality"] != r["equality"]:
                return "bkk count or equality flag differs"
            est = res["estimate"]
            if est["provenance"] != "closed_form" or not rel_close(est["value"], r["estimate"]):
                return f"estimate {est['provenance']} {est['value']!r} != closed form {r['estimate']!r}"
            return _exit_ok(rep)

        jobs.append(Job(f"bounds {label}", lambda p=shape_file(label): run_cli(["bounds", p]), check, fresh=True))
    tiny = shape_file("bilinear")
    warmups = [lambda: run_cli(["bkk", tiny]), lambda: run_cli(["bounds", tiny])]
    return Workload("exact-bkk", jobs, warmups, OBJECTS)


def _root_count(seed: int, ref: dict) -> Workload:
    jobs = []
    index = 0
    for label, samples in SIMULATE_SAMPLES.items():
        s = job_seed(seed, index)
        index += 1
        argv = ["simulate", shape_file(label), "--samples", str(samples), "--seed", str(s)]

        def check(rep, target=ref[label]):
            if rep["exit_code"] != 0:
                return _exit_ok(rep)
            m = rep["results"]["mean_roots"]
            return within_window(m["mean"], m["stderr"], target, target)

        jobs.append(Job(
            f"simulate {label}",
            lambda argv=argv: run_cli(argv),
            check,
            systems=samples,
            estimate=lambda rep: (
                rep["results"]["mean_roots"]["mean"], rep["results"]["mean_roots"]["stderr"]
            ),
        ))
    for d in EMPIRICAL_DEGREES:
        s = job_seed(seed, index)
        index += 1
        spec = validate((1,), [(d,)])
        target = ref[f"univariate-{d}"]
        jobs.append(Job(
            f"empirical univariate-{d}",
            lambda spec=spec, s=s: memp.empirical_expectation(spec, EMPIRICAL_SAMPLES, s),
            lambda est, t=target: within_window(est.mean, est.stderr, t, t),
            systems=EMPIRICAL_SAMPLES,
            estimate=lambda est: (est.mean, est.stderr),
        ))
    u = UNIFORMITY
    uspec = validate((1,), [(u["degree"],)])
    cut = ref["uniformity_cut"]
    jobs.append(Job(
        f"uniformity univariate-{u['degree']}",
        lambda s=job_seed(seed, index): memp.uniformity_check(uspec, u["samples"], u["bins"], s),
        lambda rep: None if rep.chi_square < cut else f"chi2 {rep.chi_square:.2f} >= {cut:.2f}",
        systems=u["samples"],
    ))
    bil = SIMULATE_SHAPES["bilinear"]
    warmups = [
        lambda: run_cli(["simulate", shape_file("bilinear"), "--samples", "64"]),
        lambda: memp.empirical_expectation(validate((1,), [(3,)]), 64, 1),
        lambda: memp.uniformity_check(validate((1,), [(3,)]), 64, 4, 1),
        lambda: memp.empirical_expectation(bil, 64, 1),
    ]
    return Workload("root-count", jobs, warmups)


def _verify_corpus(seed: int, ref: dict) -> Workload:
    del seed, ref  # see the module docstring

    def check(rep):
        res = rep["results"]
        counts = res["counts"]
        if not res["ok"] or counts["fail"] != 0:
            return f"verify not ok: {counts}"
        if sum(counts.values()) != len(res["checks"]) or not res["checks"]:
            return "check counts do not add up"
        return _exit_ok(rep)

    job = Job("verify corpus", lambda: run_cli(VERIFY_ARGS), check, shapes=100, fresh=True)
    warmups = [lambda: run_cli(["verify", "--count", "1", "--samples", "64"])]
    return Workload("verify-corpus", [job], warmups)


BUILDERS = {
    "mc-expect": _mc_expect,
    "exact-bkk": _exact_bkk,
    "root-count": _root_count,
    "verify-corpus": _verify_corpus,
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def build(name: str, seed: int) -> Workload:
    """The workload's jobs under ``seed``; reads the frozen reference outputs."""
    return BUILDERS[name](seed, load_reference()[name])
