"""Spans and counters for the traced run, recorded from the benchmark only.

Nothing under ``src/`` changes: :meth:`Tracer.installed` replaces each
program function at the module attribute where its caller looks it up
(``mhroots.rng.normals`` for ``gaussian`` and ``empirical``,
``numpy.linalg.det``, ``mhroots.expectation.mc_abs_det``, the names that
``mhroots.cli`` imports, ...) and restores the originals on exit.  A span is
``[name, start, end, parent]``; spans stay in memory until the run ends.
The tracer keeps one span stack, so traced code must run on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# ---------------------------------------------------------------------------
# counters taken at the span boundaries: (counts, args, result) -> None


def _count_draws(counts, args, result):
    counts["rng.normals.draws"] += args[2] * args[3]


def _count_batch(counts, args, result):
    shape = getattr(args[0], "shape", ())
    if len(shape) == 3:
        batch, n, _ = shape
        counts["gaussian.batches"] += 1
        counts["gaussian.matrices"] += batch
        counts["gaussian.batch_bytes_max"] = max(counts["gaussian.batch_bytes_max"], batch * n * n * 8)


def _count_path(counts, args, result):
    counts[f"expectation.path.{result.kind}"] += 1


def _count_permanent_n(counts, args, result):
    counts["permanent.float.max_n"] = max(counts["permanent.float.max_n"], len(args[0]))


def _count_sampled(counts, args, result):
    counts["empirical.systems_drawn"] += args[1]
    counts["empirical.flagged"] += len(result[1])


def _count_uniformity(counts, args, result):
    counts["empirical.systems_drawn"] += args[1]


# (module, attribute, span name, counter)
TRACE_POINTS = (
    ("mhroots.rng", "normals", "rng.normals", _count_draws),
    ("mhroots.gaussian", "mc_abs_det", "gaussian.mc_abs_det", None),
    ("mhroots.expectation", "mc_abs_det", "gaussian.mc_abs_det", None),
    ("mhroots.cli", "mc_abs_det", "gaussian.mc_abs_det", None),
    ("numpy.linalg", "det", "gaussian.det", _count_batch),
    ("numpy.linalg", "slogdet", "gaussian.slogdet", _count_batch),
    ("mhroots.bkk", "bkk_recursive", "bkk.recursive", None),
    ("mhroots.cli", "bkk_recursive", "bkk.recursive", None),
    ("mhroots.expectation", "is_simply_reducible", "bkk.reducible", None),
    ("mhroots.cli", "is_simply_reducible", "bkk.reducible", None),
    ("mhroots.expectation", "product_split", "bkk.product_split", None),
    ("mhroots.expectation", "permanent_float", "permanent.float", _count_permanent_n),
    ("mhroots.gaussian", "permanent_float", "permanent.float", _count_permanent_n),
    ("mhroots.bkk", "permanent_exact", "permanent.exact", None),
    ("mhroots.expectation", "expectation", "expectation", _count_path),
    ("mhroots.cli", "expectation", "expectation", _count_path),
    ("mhroots.expectation", "bounds", "expectation.bounds", None),
    ("mhroots.cli", "bounds", "expectation.bounds", None),
    ("mhroots.expectation", "row_recursion_check", "expectation.row_recursion", None),
    ("mhroots.cli", "row_recursion_check", "expectation.row_recursion", None),
    ("mhroots.empirical", "sample_counts", "empirical.sample_counts", _count_sampled),
    ("mhroots.cli", "sample_counts", "empirical.sample_counts", _count_sampled),
    ("numpy.linalg", "eigvals", "empirical.eigvals", None),
    ("mhroots.empirical", "uniformity_check", "empirical.uniformity", _count_uniformity),
    ("mhroots.empirical", "support_size", "shape.support", None),
    ("mhroots.empirical", "support_variances", "shape.support", None),
    ("mhroots.corpus", "random_shape", "corpus.random_shape", None),
    ("mhroots.cli", "main", "cli.main", None),
)

# The block recursion calls itself through its module global, so a counting
# wrapper there sees every state lookup.  It records no span: one span per
# state would swamp the timing it is meant to explain.
MEMO_POINT = ("mhroots.bkk", "_bkk_state", "_BKK_MEMO")

# Per-layer metrics in output order, with units.
LAYER_METRICS = {
    "rng.normals.calls": "count",
    "rng.normals.s": "s",
    "rng.normals.draws": "count",
    "rng.normals.draws_per_s": "1/s",
    "rng.share": "fraction",
    "gaussian.mc_abs_det.calls": "count",
    "gaussian.mc_abs_det.s": "s",
    "gaussian.mc_abs_det.self_s": "s",
    "gaussian.det.s": "s",
    "gaussian.slogdet.s": "s",
    "gaussian.matrices": "count",
    "gaussian.batches": "count",
    "gaussian.batch_bytes_max": "bytes",
    "bkk.recursive.calls": "count",
    "bkk.recursive.s": "s",
    "bkk.memo_states": "count",
    "bkk.memo_hit_rate": "fraction",
    "bkk.reducible.s": "s",
    "bkk.product_split.calls": "count",
    "bkk.product_split.s": "s",
    "permanent.float.calls": "count",
    "permanent.float.s": "s",
    "permanent.float.max_n": "count",
    "permanent.exact.s": "s",
    "expectation.calls": "count",
    "expectation.self_s": "s",
    "expectation.path.closed_form": "count",
    "expectation.path.product": "count",
    "expectation.path.zero": "count",
    "expectation.path.monte_carlo": "count",
    "expectation.bounds.s": "s",
    "expectation.row_recursion.s": "s",
    "empirical.sample_counts.calls": "count",
    "empirical.sample_counts.s": "s",
    "empirical.eigvals.s": "s",
    "empirical.systems_drawn": "count",
    "empirical.useful_draw_share": "fraction",
    "empirical.flagged_share": "fraction",
    "empirical.uniformity.s": "s",
    "shape.support.calls": "count",
    "shape.support.s": "s",
    "corpus.random_shape.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        """``fn`` recording a span ``name`` per call, then ``counter``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def _count_memo(self, fn, memo_module, memo_name):
        @functools.wraps(fn)
        def counted(blocks, rows):
            if rows:
                self.counts["bkk.memo_lookups"] += 1
                self.counts["bkk.memo_hits"] += (blocks, rows) in getattr(memo_module, memo_name)
            return fn(blocks, rows)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every trace point for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in TRACE_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
            module_name, attr, memo_name = MEMO_POINT
            module = importlib.import_module(module_name)
            if hasattr(module, attr) and hasattr(module, memo_name):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._count_memo(original, module, memo_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# ---------------------------------------------------------------------------
# derived numbers


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def _outermost(spans, name) -> list[int]:
    """Indices of spans called ``name`` with no ancestor of the same name."""
    out = []
    for index, span in enumerate(spans):
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out.append(index)
    return out


def bypass_violations(workload: str, spans, counts) -> list[str]:
    """Layer use that the workload's design rules out."""
    problems = []
    if workload == "exact-bkk" and counts.get("rng.normals.draws", 0):
        problems.append(f"exact-bkk drew {counts['rng.normals.draws']} normals")
    if workload == "root-count":
        used = sorted({s[0] for s in spans if s[0].split(".")[0] in ("gaussian", "permanent")})
        if used:
            problems.append(f"root-count opened {', '.join(used)} spans")
    return problems


def layer_metrics(spans, counts, pass_wall: float, systems_reported: int) -> dict:
    """Per-layer numbers of one traced pass (all but ``trace.overhead_s``)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_sum = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span[0]] += 1
        self_sum[span[0]] += own

    def inclusive(name):
        return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, name))

    def ratio(num, den):
        return num / den if den else 0.0

    rng_s = inclusive("rng.normals")
    draws = counts["rng.normals.draws"]
    drawn = counts["empirical.systems_drawn"]
    return {
        "rng.normals.calls": calls["rng.normals"],
        "rng.normals.s": rng_s,
        "rng.normals.draws": draws,
        "rng.normals.draws_per_s": ratio(draws, rng_s),
        "rng.share": ratio(rng_s, pass_wall),
        "gaussian.mc_abs_det.calls": calls["gaussian.mc_abs_det"],
        "gaussian.mc_abs_det.s": inclusive("gaussian.mc_abs_det"),
        "gaussian.mc_abs_det.self_s": self_sum["gaussian.mc_abs_det"],
        "gaussian.det.s": inclusive("gaussian.det"),
        "gaussian.slogdet.s": inclusive("gaussian.slogdet"),
        "gaussian.matrices": counts["gaussian.matrices"],
        "gaussian.batches": counts["gaussian.batches"],
        "gaussian.batch_bytes_max": counts["gaussian.batch_bytes_max"],
        "bkk.recursive.calls": calls["bkk.recursive"],
        "bkk.recursive.s": inclusive("bkk.recursive"),
        "bkk.memo_states": counts["bkk.memo_states"],
        "bkk.memo_hit_rate": ratio(counts["bkk.memo_hits"], counts["bkk.memo_lookups"]),
        "bkk.reducible.s": inclusive("bkk.reducible"),
        "bkk.product_split.calls": calls["bkk.product_split"],
        "bkk.product_split.s": inclusive("bkk.product_split"),
        "permanent.float.calls": calls["permanent.float"],
        "permanent.float.s": inclusive("permanent.float"),
        "permanent.float.max_n": counts["permanent.float.max_n"],
        "permanent.exact.s": inclusive("permanent.exact"),
        "expectation.calls": calls["expectation"],
        "expectation.self_s": self_sum["expectation"],
        "expectation.path.closed_form": counts["expectation.path.closed_form"],
        "expectation.path.product": counts["expectation.path.product"],
        "expectation.path.zero": counts["expectation.path.zero"],
        "expectation.path.monte_carlo": counts["expectation.path.monte_carlo"],
        "expectation.bounds.s": inclusive("expectation.bounds"),
        "expectation.row_recursion.s": inclusive("expectation.row_recursion"),
        "empirical.sample_counts.calls": calls["empirical.sample_counts"],
        "empirical.sample_counts.s": inclusive("empirical.sample_counts"),
        "empirical.eigvals.s": inclusive("empirical.eigvals"),
        "empirical.systems_drawn": drawn,
        "empirical.useful_draw_share": ratio(systems_reported, drawn),
        "empirical.flagged_share": ratio(counts["empirical.flagged"], drawn),
        "empirical.uniformity.s": inclusive("empirical.uniformity"),
        "shape.support.calls": calls["shape.support"],
        "shape.support.s": inclusive("shape.support"),
        "corpus.random_shape.s": inclusive("corpus.random_shape"),
        "cli.main.s": inclusive("cli.main"),
        "cli.self_s": self_sum["cli.main"],
    }


def job_breakdown(spans) -> dict:
    """Seconds per span name inside each root span, keyed by the root's name."""
    roots = {}
    out = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            roots[index] = index
            out[name] = {"total": end - start}
            continue
        roots[index] = roots[parent]
        job = spans[roots[index]][0]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[job][name] = out[job].get(name, 0.0) + end - start
    return out


def traced_pass(tracer: Tracer, workload):
    """One pass under the tracer, each job a root span.

    Returns the pass result, its per-layer numbers, the bypass violations
    and the per-job breakdown.
    """
    tracer.reset()
    with tracer.installed():
        # No reference loop inside the jobs: it would fall inside their spans.
        result = workload.run_pass(
            tracer.counts, wrap=lambda job: tracer.wrap(f"job {job.name}", job.call), probe=False
        )
    systems = sum(r.job.systems for r in result.runs)
    metrics = layer_metrics(tracer.spans, tracer.counts, result.wall, systems)
    problems = bypass_violations(workload.name, tracer.spans, tracer.counts)
    return result, metrics, problems, job_breakdown(tracer.spans)
