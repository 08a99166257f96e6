"""Regenerate the frozen reference outputs and the CLI shape files.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json`` and ``perfbench/shapes/*.json``.  Run it
only to record references from a commit whose outputs are trusted; the
checks of every later run compare against what it wrote.

Sources: exact counts, reducibility flags, bounds and closed forms come from
the program itself.  The sandwich upper bound per(sqrt Delta) / prod n_j! of
the Monte Carlo shapes is beyond Ryser at n = 32 and 42, so it is computed
here by the block-multiplicity expansion with square-root weights.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from mhroots.bkk import bkk_count, is_simply_reducible  # noqa: E402
from mhroots.expectation import bounds, closed_form, prefactor  # noqa: E402

# chi2.ppf(0.999, 9): the cut tier-1 applies to 10-bin uniformity checks.
CHI2_999_DOF9 = 27.877164871256568


@lru_cache(maxsize=None)
def _sqrt_weighted(blocks: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> float:
    """per(sqrt of the expanded degree matrix) / prod n_j!, by expanding row 0."""
    if not rows:
        return 1.0
    row, rest = rows[0], tuple(sorted(rows[1:]))
    total = 0.0
    for j, nj in enumerate(blocks):
        if nj > 0 and row[j] > 0:
            sub = blocks[:j] + (nj - 1,) + blocks[j + 1 :]
            total += math.sqrt(row[j]) * _sqrt_weighted(sub, rest)
    return total


def sandwich(spec) -> dict:
    """The two-sided bound [sqrt(BKK), per(sqrt Delta)/prod n_j!] on the expectation."""
    upper = _sqrt_weighted(spec.block_sizes, tuple(sorted(spec.degrees)))
    return {"lower": math.sqrt(bkk_count(spec)), "upper": upper}


def main() -> None:
    wl.SHAPE_DIR.mkdir(exist_ok=True)
    for label, spec in {**wl.BKK_SHAPES, **wl.BOUNDS_SHAPES, **wl.SIMULATE_SHAPES}.items():
        with open(wl.shape_file(label), "w") as fh:
            json.dump(spec.to_json(), fh)
            fh.write("\n")

    mc = {label: sandwich(spec) for label, spec, _ in wl.MC_EXPECT}
    for label, spec, _ in wl.MC_RANK_ONE:
        mc[label] = {"abs_det": closed_form(spec).value / prefactor(spec)}

    exact = {"bkk": {}, "bounds": {}}
    for label, spec in wl.BKK_SHAPES.items():
        exact["bkk"][label] = {
            "count": bkk_count(spec),
            "simply_reducible": is_simply_reducible(spec).reducible,
        }
    for label, spec in wl.BOUNDS_SHAPES.items():
        rep = bounds(spec)
        exact["bounds"][label] = {
            "upper": rep.upper,
            "lower": rep.lower,
            "bkk": rep.bkk,
            "equality": rep.equality,
            "estimate": rep.estimate.value,
        }

    roots = dict(wl.SIMULATE_MEANS)
    for d in wl.EMPIRICAL_DEGREES:
        roots[f"univariate-{d}"] = math.sqrt(d)
    roots["uniformity_cut"] = CHI2_999_DOF9

    reference = {"mc-expect": mc, "exact-bkk": exact, "root-count": roots, "verify-corpus": {}}
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
