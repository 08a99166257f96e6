"""Benchmark of the mhroots routes: four batch workloads, one command.

    python3 perfbench/run.py --workload mc-expect --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in a fresh single-process interpreter: set-up, then
passes over the workload's fixed job list for ``--seconds`` (at least
MIN_PASSES), every output checked against the frozen references in
``reference.json``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
carries the per-layer metrics with the tracing overhead.  Earlier lines give
the machine record and every metric the workload defines, by name and unit.

Timing statistic: the shared host slows every job by up to 70% in spells
that last from seconds to minutes, longer than a run.  Each job run is
therefore divided by the slowdown that a fixed reference loop measured
around and inside it (``workloads.ReferenceLoop``), and a job's time in a
run is the median of these normalized times over its passes: seconds at
the loop's nominal speed (``norm_`` metrics).  The fastest raw time is printed as
well.  Set-up time is the median over SETUP_PROBES probes per pass,
each normalized the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-expect", "exact-bkk", "root-count", "verify-corpus")
MIN_PASSES = 3
SETUP_PROBES = 2
# mc_abs_det on the n = 16 shape at two batches of 65,536 samples, so that
# workers=2 has two batches to share: the traced mc-expect run reports the
# workers=1 / workers=2 wall-time ratio.
W2_LABEL = "game-4x4"
W2_SAMPLES = 2 * 65_536
END_TO_END = ("setup_s", "norm_wall_s", "norm_shapes_per_s", "peak_rss_mb")


def pin_environment() -> None:
    """One BLAS thread per process, and ``--workers`` not overridden."""
    os.environ.pop("MHROOTS_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


def import_program():
    """Import ``workloads`` (and with it ``mhroots``) from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "mhroots" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'mhroots'}")
    sys.path.insert(0, str(src))
    import mhroots
    import workloads

    if Path(mhroots.__file__).resolve().parent != (src / "mhroots").resolve():
        raise SystemExit(f"error: imported mhroots from {mhroots.__file__}, not {src}")
    return workloads


def machine_record() -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
    }


def time_to_1pct(items) -> float:
    """Projected seconds to bring every estimate to 1% relative standard error.

    ``items`` are (seconds, mean, stderr) triples; each call's time scales
    with the sample count, and so with (stderr / (0.01 |mean|))**2.
    """
    return sum(t * (se / (0.01 * abs(mean))) ** 2 for t, mean, se in items)


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def fastest_job_times(passes) -> list[float]:
    """Each job's fastest raw time over the passes."""
    return [min(p.runs[j].seconds for p in passes) for j in range(len(passes[0].runs))]


def job_times(passes) -> list[float]:
    """Each job's normalized time: the median over the passes."""
    return [statistics.median(p.runs[j].normalized for p in passes) for j in range(len(passes[0].runs))]


def workload_metrics(passes) -> dict:
    """(value, unit) of every metric the workload defines, but set-up and memory.

    Times and rates use normalized job times (see the module docstring).
    Outputs repeat exactly from pass to pass, so estimates come from the
    first pass that produced them.
    """
    times = job_times(passes)
    jobs = [r.job for r in passes[0].runs]
    wall = sum(times)
    out = {
        "norm_wall_s": (wall, "s"),
        "norm_shapes_per_s": (sum(j.shapes for j in jobs) / wall, "shapes/s"),
    }
    mc = [(j.samples, t) for j, t in zip(jobs, times) if j.samples]
    if mc:
        out["norm_mc_samples_per_s"] = (sum(s for s, _ in mc) / sum(t for _, t in mc), "samples/s")
    counted = [(j.systems, t) for j, t in zip(jobs, times) if j.systems]
    if counted:
        out["norm_systems_per_s"] = (sum(s for s, _ in counted) / sum(t for _, t in counted), "systems/s")
    estimates = []
    for index, job in enumerate(jobs):
        run = next((p.runs[index] for p in passes if p.runs[index].error is None), None)
        if job.estimate is not None and run is not None:
            estimates.append((times[index], *job.estimate(run.output)))
    if estimates:
        out["norm_time_to_1pct_s"] = (time_to_1pct(estimates), "s")
    out["raw_wall_s"] = (sum(fastest_job_times(passes)), "s")
    out["slowdown"] = (statistics.median(r.slowdown for p in passes for r in p.runs), "ratio")
    return out


def setup_probe(args, reference) -> tuple[float, float]:
    """Seconds from start to ready of a fresh interpreter set up like this run.

    Returns them raw and normalized: over the mean slowdown that
    ``reference`` measured just before and just after the probe.
    """
    before = reference.slowdown()
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True,
    ) as probe:
        # A blocking read: Popen.wait polls in steps of up to 50 ms.
        ready = probe.stdout.readline()
        seconds = time.perf_counter() - t0
        if probe.wait(timeout=60) != 0 or ready.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed with exit code {probe.returncode}")
    return seconds, seconds / statistics.mean([before, reference.slowdown()])


def set_up(wl, args):
    workload = wl.build(args.workload, args.seed)
    workload.warm_up()
    return workload


def another_pass(passes, t0: float, seconds: float) -> bool:
    """Whether to start a pass: below MIN_PASSES, or one more fits in ``seconds``."""
    if len(passes) < MIN_PASSES:
        return True
    typical = statistics.median(p.wall for p in passes)
    return time.perf_counter() - t0 + typical <= seconds


def run_untraced(workload, seconds: float, probe):
    """Passes, each after SETUP_PROBES set-up probes, so both sample the same spells."""
    passes, setups = [], []
    t0 = time.perf_counter()
    while another_pass(passes, t0, seconds):
        setups.extend(probe() for _ in range(SETUP_PROBES))
        passes.append(workload.run_pass())
    return passes, setups


def run_traced(workload, seconds: float, tracing):
    """Alternate untraced and traced passes; the per-layer numbers of each traced one."""
    tracer = tracing.Tracer()
    untraced, traced, layers, violations, breakdowns = [], [], [], [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or another_pass(untraced + traced, t0, seconds):
        untraced.append(workload.run_pass())
        result, metrics, problems, breakdown = tracing.traced_pass(tracer, workload)
        traced.append(result)
        layers.append(metrics)
        violations.extend(problems)
        breakdowns.append(breakdown)
    fastest = min(range(len(traced)), key=lambda i: traced[i].wall)
    return untraced, traced, layers, violations, breakdowns[fastest]


def w2_speedup(wl) -> float:
    """workers=1 over workers=2 wall time of mc_abs_det on the n = 16 shape."""
    import mhroots.gaussian as mg

    spec = next(spec for label, spec, _ in wl.MC_EXPECT if label == W2_LABEL)
    profile = mg.variance_profile(spec)
    times = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        mg.mc_abs_det(profile, W2_SAMPLES, 1, workers=workers)
        times[workers] = time.perf_counter() - t0
    return times[1] / times[2]


def report_failures(passes) -> None:
    seen = set()
    for result in passes:
        for r in result.runs:
            if r.error is not None and (r.job.name, r.error) not in seen:
                seen.add((r.job.name, r.error))
                print(f"FAILED {r.job.name}: {r.error}")


def report_jobs(workload, passes) -> None:
    print(f"passes {len(passes)}; pass wall s {[round(p.wall, 4) for p in passes]}")
    for index, job in enumerate(workload.jobs):
        times = [p.runs[index].seconds for p in passes]
        norm = statistics.median(p.runs[index].normalized for p in passes)
        print(f"  job {job.name:30s} fastest {min(times):.4f} s, median {statistics.median(times):.4f} s, "
              f"norm {norm:.4f} s")


def traced_metrics(args, wl, workload):
    """Passes, per-layer metrics and the number of bypass violations."""
    import tracing

    untraced, traced, layers, violations, breakdown = run_traced(workload, args.seconds, tracing)
    per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    overhead = sum(job_times(traced)) - sum(job_times(untraced))
    per_layer["trace.overhead_s"] = overhead
    report_jobs(workload, untraced + traced)
    print(f"traced passes {len(traced)}, untraced passes {len(untraced)}, "
          f"tracing overhead {overhead:.4f} s per pass (norm job times, traced - untraced)")
    for problem in violations:
        print(f"BYPASS VIOLATED: {problem}")
    print("spans per job in the fastest traced pass, seconds:")
    for job, names in breakdown.items():
        print(f"  {job}: " + ", ".join(f"{name} {t:.4f}" for name, t in names.items()))
    for name, unit in tracing.LAYER_METRICS.items():
        print(f"  {name:32s} {per_layer[name]:.6g} {unit}")
    if args.workload == "mc-expect":
        print(f"  {'gaussian.w2_speedup':32s} {w2_speedup(wl):.6g} ratio")
    metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in tracing.LAYER_METRICS.items()}
    return untraced + traced, metrics, len(violations)


def run_workload(args) -> int:
    pin_environment()
    wl = import_program()
    if args.setup_only:
        set_up(wl, args)
        print("ready", flush=True)
        return 0
    workload = set_up(wl, args)
    print(f"machine: {json.dumps(machine_record())}")
    print(f"workload {args.workload} seed {args.seed}: {len(workload.jobs)} jobs per pass, "
          f"{sum(j.shapes for j in workload.jobs)} shapes")

    if args.trace:
        passes, metrics, violations = traced_metrics(args, wl, workload)
    else:
        passes, setups = run_untraced(workload, args.seconds, lambda: setup_probe(args, workload.reference))
        report_jobs(workload, passes)
        violations = 0
    attempted = sum(len(p.runs) for p in passes) + violations
    failed = sum(p.failed for p in passes) + violations
    report_failures(passes)
    if not args.trace:
        values = {
            "setup_s": (statistics.median(norm for _, norm in setups), "s"),
            "raw_setup_s": (statistics.median(raw for raw, _ in setups), "s"),
            **workload_metrics(passes),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "error_rate": (error_rate(attempted, failed), "fraction"),
        }
        for name, (value, unit) in values.items():
            print(f"  {name:18s} {value:.6g} {unit}")
        metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter; the last line maps workload to result."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
