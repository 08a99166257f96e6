"""Command-line front end: shape JSON in, machine-readable reports out.

Subcommands (``SUBCOMMANDS``) take only the flags they read; any other flag
is a usage error.  Shapes are read from JSON files of the form
``{"block_sizes": [...], "degrees": [[...], ...]}``.  Reports are JSON on
stdout (schema version 1) and echo a setting only where it was applied;
per-sample or per-check CSV goes to ``--dump``.  Exit codes: 0 ok, 2 invalid
input, 3 resource cap exceeded or a result past float range, 4 verification
failure.  MHROOTS_THREADS overrides ``--workers`` where that flag exists;
either must be a positive integer.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from typing import Any, NamedTuple

import numpy as np

from . import __version__, corpus
from .bkk import bkk_permanent, bkk_recursive, is_simply_reducible
from .empirical import (
    INFINITY_TOL,
    UnsupportedFamilyError,
    count_mean,
    count_pieces,
    fold_counts,
    sample_counts,  # noqa: F401  perfbench/tracing.py wraps mhroots.cli.sample_counts by name
)
from .expectation import (
    STDERR_MULT,
    ExpectationResult,
    bounds,
    expectation,
    mc_slack,
    row_recursion_check,
)
from .gaussian import (
    SampleCountError,
    abs_det_closed_standard,
    check_samples,
    mc_abs_det,
    variance_profile,
)
from .permanent import RYSER_CAP, MatrixTooLargeError
from .shape import ShapeError, ShapeSpec, SupportTooLargeError, from_json

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_TOO_LARGE = 3
EXIT_VERIFY_FAIL = 4
# Largest n at which the exact 2^n Ryser permanent cross-checks the block
# recursion; above it only the forced row and column pivots check it.
PERMANENT_CHECK_MAX_N = 12


class InvalidInputError(ValueError):
    """A command-line or environment value outside its accepted range."""


RANGES = {
    "at least 1": lambda v: v >= 1,
    "nonnegative": lambda v: v >= 0,
    "finite and positive": lambda v: 0.0 < v < math.inf,
    "finite and nonnegative": lambda v: 0.0 <= v < math.inf,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
}


class Flag(NamedTuple):
    """A setting a subcommand may take: its argparse type and default, the
    ``RANGES`` rule its value must pass, and the ``tolerances`` it echoes."""

    type: type
    default: Any
    rule: str | None = None
    echo: Callable[[Any], dict] = lambda value: {}
    help: str | None = None


FLAGS = {
    "--samples": Flag(int, 100_000),
    "--seed": Flag(int, 0),
    "--workers": Flag(int, 1, "at least 1"),
    "--stderr-mult": Flag(float, STDERR_MULT, "finite and positive", lambda v: {"stderr_multiplier": v}),
    "--miss-budget": Flag(float, 0.05, "in [0, 1]", lambda v: {"miss_budget": v}),
    "--tau-imag": Flag(
        float, 1e-8, "finite and nonnegative", lambda v: {"imag_tau": v, "infinity_tol": INFINITY_TOL}
    ),
    "--dump": Flag(str, None, help="CSV output path"),
    "--count": Flag(int, 100, "nonnegative", help="number of corpus shapes"),
    "--n-max": Flag(int, 5, "at least 1"),
    "--delta-max": Flag(int, 3, "nonnegative"),
}


def _value(args, flag: str):
    """The parsed value of ``flag``, stored under argparse's default name."""
    return getattr(args, flag[2:].replace("-", "_"))


def _load_shape(path: str) -> ShapeSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError:
            raise
        except (ValueError, RecursionError) as exc:  # past the digit or the nesting limit
            raise ShapeError(f"shape JSON: {exc}") from exc
    return from_json(data)


def _mc_json(est) -> dict:
    # elapsed is intentionally dropped so identical runs emit identical bytes
    return {
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "provenance": "monte_carlo",
    }


def _expectation_json(res: ExpectationResult) -> dict:
    out: dict = {
        "value": res.value,
        "provenance": res.kind,
        "stderr": res.stderr,
        "prefactor": res.prefactor,
    }
    if res.closed is not None:
        out["closed_form"] = {
            "rational": f"{res.closed.rational.numerator}/{res.closed.rational.denominator}",
            "pi_sqrt_power": res.closed.pi_sqrt_power,
            "radicand": res.closed.radicand,
        }
    if res.mc is not None:
        out["mc"] = _mc_json(res.mc)
    if res.peeled is not None:
        out["peeled"] = res.peeled
    if res.parts is not None:
        out["parts"] = [_expectation_json(p) for p in res.parts]
    return out


def _report(args, spec: ShapeSpec | None, results: dict, t0: float) -> dict:
    return {
        "schema": 1,
        "version": __version__,
        "subcommand": args.command,
        "shape": spec.to_json() if spec is not None else None,
        "seed": getattr(args, "seed", None),
        "samples": getattr(args, "samples", None),
        "workers": getattr(args, "workers", None),
        "tolerances": {
            key: value
            for flag in args.flags
            for key, value in FLAGS[flag].echo(_value(args, flag)).items()
        },
        "results": results,
        "wall_time_s": time.perf_counter() - t0,
    }


def _dumps(report: dict) -> str:
    """The report as JSON text; OverflowError when a value is not a finite
    float, which JSON cannot carry."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OverflowError(str(exc)) from exc


def _workers(args) -> int:
    """MHROOTS_THREADS when set, else ``--workers``."""
    env = os.environ.get("MHROOTS_THREADS")
    if not env:
        return args.workers
    if not (env.isdecimal() and int(env) >= 1):
        raise InvalidInputError(f"MHROOTS_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _check_ranges(args) -> None:
    """Reject flag values outside their ranges instead of skewing results."""
    for flag in args.flags:
        rule, value = FLAGS[flag].rule, _value(args, flag)
        if rule and not RANGES[rule](value):
            raise InvalidInputError(f"{flag} must be {rule}, got {value}")


def _open_dump(path: str | None):
    """The ``--dump`` file, opened before the work so that an unwritable path
    exits 2 at once (a null context without ``--dump``)."""
    return open(path, "w", newline="") if path else contextlib.nullcontext()


def _write_csv(fh, header: list[str], rows) -> None:
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)


def cmd_bkk(args):
    spec = _load_shape(args.shape)
    value = bkk_recursive(spec)
    results: dict = {
        "bkk": {"value": value.count, "provenance": "exact", "derivation": value.derivation},
    }
    if spec.n <= PERMANENT_CHECK_MAX_N:
        perm = bkk_permanent(spec)
        results["bkk_permanent_check"] = {"value": perm.count, "provenance": "exact"}
    red = is_simply_reducible(spec)
    results["simply_reducible"] = red.reducible
    results["witness"] = [list(step) for step in red.witness] if red.witness else None
    return spec, results, EXIT_OK


def cmd_expect(args):
    spec = _load_shape(args.shape)
    res = expectation(spec, args.samples, args.seed, args.workers)
    return spec, {"expectation": _expectation_json(res)}, EXIT_OK


def cmd_bounds(args):
    spec = _load_shape(args.shape)
    rep = bounds(spec, args.samples, args.seed, args.workers)
    results = {
        "upper": {"value": rep.upper, "provenance": "exact"},
        "lower": {"value": rep.lower, "provenance": "exact"},
        "bkk": {"value": rep.bkk, "provenance": "exact"},
        "estimate": _expectation_json(rep.estimate),
        "equality": rep.equality,
        "margin_upper": rep.margin_upper,
        "margin_lower": rep.margin_lower,
    }
    slack = mc_slack(rep.estimate.stderr, rep.upper, args.stderr_mult)
    if rep.margin_upper < -slack or rep.margin_lower < -slack:
        print("bounds violated beyond Monte Carlo slack", file=sys.stderr)
        return spec, results, EXIT_VERIFY_FAIL
    return spec, results, EXIT_OK


def cmd_mc_det(args):
    spec = _load_shape(args.shape)
    est = mc_abs_det(variance_profile(spec), args.samples, args.seed, args.workers)
    return spec, {"mean_abs_det": _mc_json(est)}, EXIT_OK


def cmd_simulate(args):
    spec = _load_shape(args.shape)
    with _open_dump(args.dump) as dump:
        pieces = count_pieces(spec, args.samples, args.seed, tau=args.tau_imag)
        rows = csv.writer(dump) if dump else None
        if rows:
            rows.writerow(["sample", "root_count", "flags"])
        moments, flagged = (0, 0, 0), 0
        # one piece held at a time: its rows are dumped as they are counted
        for start, counts, flags in pieces:
            moments = fold_counts(moments, counts)
            flagged += len(flags)
            if rows:
                rows.writerows(
                    (start + i, c, "|".join(flags.get(i, ()))) for i, c in enumerate(counts.tolist())
                )
        results = {
            "mean_roots": _mc_json(count_mean(moments, args.seed)),
            "flagged_samples": flagged,
        }
        if dump:
            results["dump"] = args.dump
    return spec, results, EXIT_OK


def _corpus(args) -> list[ShapeSpec]:
    """The run's corpus shapes; MatrixTooLargeError names the first one that
    ``bounds`` cannot take (its float permanent is capped at RYSER_CAP)."""
    shapes = [
        corpus.random_shape(args.seed, t, max_n=args.n_max, max_degree=args.delta_max)
        for t in range(args.count)
    ]
    for t, spec in enumerate(shapes):
        if spec.n > RYSER_CAP:
            raise MatrixTooLargeError(
                f"corpus shape {t} has n={spec.n}; bounds() caps its float permanent "
                f"at n={RYSER_CAP}"
            )
    return shapes


def _verify_checks(args):
    """One dict per check; status PASS, WARN (an MC miss), or FAIL.

    Every expectation of a run uses the one seed ``args.seed``, so a shape
    estimated by ``bounds``, by each row check and as a sub-shape of other
    corpus shapes is estimated once (see ``expectation``'s memo).
    """
    mult = args.stderr_mult
    workers = args.workers
    shapes = _corpus(args)

    def line(check, index, status, detail):
        return {"check": check, "index": index, "status": status, "detail": detail}

    for n in range(1, 5):
        # column j scaled by s_j = j + 1: distinct columns, so n >= 2 samples
        scales = np.arange(1.0, n + 1)
        est = mc_abs_det(np.tile(scales, (n, 1)), args.samples, args.seed + n, workers)
        target = math.sqrt(scales.prod()) * abs_det_closed_standard(n)
        is_mc = est.stderr > 0
        ok = abs(est.mean - target) <= mc_slack(est.stderr, target, mult)
        yield line(
            "det_mean_closed_form", n, "PASS" if ok else ("WARN" if is_mc else "FAIL"),
            f"n={n} mc={est.mean:.6g} closed={target:.6g} stderr={est.stderr:.3g}",
        ), is_mc

    for t, spec in enumerate(shapes):
        perm = bkk_permanent(spec).count if spec.n <= PERMANENT_CHECK_MAX_N else None
        rec = bkk_recursive(spec).count
        pivots_ok = all(
            bkk_recursive(spec, ("row", i)).count == rec for i in range(1, spec.n + 1)
        ) and all(
            bkk_recursive(spec, ("column", j)).count == rec
            for j in range(1, spec.k + 1)
            if spec.block_sizes[j - 1] > 0
        )
        ok = perm in (None, rec) and pivots_ok
        yield line(
            "bkk_consistency", t, "PASS" if ok else "FAIL",
            f"shape={spec.to_json()} permanent={perm} recursive={rec}",
        ), False

        rep = bounds(spec, args.samples, args.seed, workers)
        is_mc = rep.estimate.stderr > 0
        slack = mc_slack(rep.estimate.stderr, rep.upper, mult)
        sandwich_ok = rep.margin_upper >= -slack and rep.margin_lower >= -slack
        status = "PASS" if sandwich_ok else ("WARN" if is_mc else "FAIL")
        yield line(
            "bound_sandwich", t, status,
            f"upper={rep.upper:.6g} est={rep.estimate.value:.6g} lower={rep.lower:.6g}",
        ), is_mc

        if rep.equality:
            tight = (
                abs(rep.margin_upper) <= slack and abs(rep.margin_lower) <= slack
            )
            status = "PASS" if tight else ("WARN" if is_mc else "FAIL")
            yield line(
                "bound_tightness", t, status,
                f"margins=({rep.margin_upper:.3g},{rep.margin_lower:.3g})",
            ), is_mc

        for i in range(1, spec.n + 1):
            rr = row_recursion_check(spec, i, args.samples, args.seed, workers)
            is_mc_row = rr.middle.stderr > 0 or rr.upper_stderr > 0 or rr.lower_stderr > 0
            status = "PASS" if rr.holds_within(mult) else ("WARN" if is_mc_row else "FAIL")
            yield line(
                "row_recursion", f"{t}:{i}", status,
                f"upper={rr.upper:.6g} mid={rr.middle.value:.6g} lower={rr.lower:.6g}",
            ), is_mc_row


def cmd_verify(args):
    checks = []
    mc_total = 0
    warns = 0
    fails = 0
    with _open_dump(args.dump) as dump:
        for check, is_mc in _verify_checks(args):
            checks.append(check)
            mc_total += bool(is_mc)
            warns += check["status"] == "WARN"
            fails += check["status"] == "FAIL"
        warn_rate = warns / mc_total if mc_total else 0.0
        ok = fails == 0 and warn_rate <= args.miss_budget
        results = {
            "checks": checks,
            "counts": {
                "pass": sum(c["status"] == "PASS" for c in checks),
                "warn": warns,
                "fail": fails,
            },
            "mc_checks": mc_total,
            "warn_rate": warn_rate,
            "ok": ok,
        }
        if dump:
            _write_csv(
                dump,
                ["check", "index", "status", "detail"],
                ((c["check"], c["index"], c["status"], c["detail"]) for c in checks),
            )
            results["dump"] = args.dump
    return None, results, EXIT_OK if ok else EXIT_VERIFY_FAIL


MC_FLAGS = ("--samples", "--seed", "--workers")
SIMULATE_FLAGS = ("--samples", "--seed", "--tau-imag", "--dump")
VERIFY_FLAGS = MC_FLAGS + ("--stderr-mult", "--miss-budget", "--dump", "--count", "--n-max", "--delta-max")

# name: (handler -> (shape or None, results, exit code), takes a shape, flags read, help)
SUBCOMMANDS = {
    "bkk": (cmd_bkk, True, (), "generic complex-root count and reducibility"),
    "expect": (cmd_expect, True, MC_FLAGS, "expected real-root count"),
    "bounds": (cmd_bounds, True, MC_FLAGS + ("--stderr-mult",), "two-sided bounds and point estimate"),
    "mc-det": (cmd_mc_det, True, MC_FLAGS, "Monte Carlo mean |det| of the shape's matrix"),
    "simulate": (cmd_simulate, True, SIMULATE_FLAGS, "sample systems and count real roots"),
    "verify": (cmd_verify, False, VERIFY_FLAGS, "batch property verification on a random corpus"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it depends on no
    argument, and each ``parse_args`` call fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="mhroots",
        description="Expected real-root counts of random multihomogeneous systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, takes_shape, flags, help_text) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if takes_shape:
            p.add_argument("shape")
        for flag in flags:
            decl = FLAGS[flag]
            p.add_argument(flag, type=decl.type, default=decl.default, help=decl.help)
        p.set_defaults(func=func, flags=flags)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if "--workers" in args.flags:
            args.workers = _workers(args)
        _check_ranges(args)
        if "--samples" in args.flags:
            # here, not in the estimator: exact routes never draw a sample
            check_samples(args.samples)
        spec, results, code = args.func(args)
        text = _dumps(_report(args, spec, results, t0))
    except (
        ShapeError,
        UnsupportedFamilyError,
        SampleCountError,
        InvalidInputError,
        OSError,
        UnicodeDecodeError,
        json.JSONDecodeError,
    ) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (MatrixTooLargeError, SupportTooLargeError, RecursionError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return EXIT_TOO_LARGE
    except OverflowError as exc:
        print(f"resource cap: a value is past float range ({exc})", file=sys.stderr)
        return EXIT_TOO_LARGE
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
