"""Command-line interface: reports, exit codes, determinism, dumps."""

import csv
import importlib
import json
import math
import time
import tracemalloc

import pytest

from mhroots import cli, empirical, gaussian, rng
from mhroots.bkk import _canonical
from mhroots.cli import main
from mhroots.shape import game_shape, validate

# The package re-exports the function ``expectation`` under the module's name.
mx = importlib.import_module("mhroots.expectation")

BILINEAR = {"block_sizes": [1, 1], "degrees": [[1, 1], [1, 1]]}
QUARTIC = {"block_sizes": [1], "degrees": [[4]]}
MIXED = {"block_sizes": [1, 1], "degrees": [[1, 2], [2, 1]]}
# n = 4, neither factors, splits, peels nor vanishes, and has three blocks:
# the Monte Carlo path
MIXED_4 = {"block_sizes": [1, 1, 2], "degrees": [[1, 1, 2], [2, 1, 1], [1, 2, 1], [1, 1, 3]]}


def _write_shape(tmp_path, data, name="shape.json"):
    """``data`` as JSON, or verbatim when it is already text."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestBkkCommand:
    def test_bilinear(self, tmp_path, capsys):
        code, rep = _run(capsys, ["bkk", _write_shape(tmp_path, BILINEAR)])
        assert code == 0
        assert rep["results"]["bkk"]["value"] == 2
        assert rep["results"]["simply_reducible"] is False

    def test_k1_bezout(self, tmp_path, capsys):
        shape = {"block_sizes": [2], "degrees": [[2], [3]]}
        code, rep = _run(capsys, ["bkk", _write_shape(tmp_path, shape)])
        assert code == 0
        assert rep["results"]["bkk"]["value"] == 6
        assert rep["results"]["simply_reducible"] is True

    def test_game_unbalanced(self, tmp_path, capsys):
        shape = {"block_sizes": [1, 2], "degrees": [[0, 1], [1, 0], [1, 0]]}
        code, rep = _run(capsys, ["bkk", _write_shape(tmp_path, shape)])
        assert code == 0
        assert rep["results"]["bkk"]["value"] == 0


class TestExpectCommand:
    def test_quartic_closed_form(self, tmp_path, capsys):
        code, rep = _run(capsys, ["expect", _write_shape(tmp_path, QUARTIC)])
        assert code == 0
        res = rep["results"]["expectation"]
        assert res["value"] == pytest.approx(2.0)
        assert res["provenance"] == "closed_form"
        assert res["closed_form"]["radicand"] == 4

    def test_bilinear_closed_form(self, tmp_path, capsys):
        code, rep = _run(capsys, ["expect", _write_shape(tmp_path, BILINEAR)])
        res = rep["results"]["expectation"]
        assert res["value"] == pytest.approx(math.pi / 2)
        assert res["closed_form"] == {
            "rational": "1/2",
            "pi_sqrt_power": 2,
            "radicand": 1,
        }

    def test_mixed_shape_monte_carlo(self, tmp_path, capsys):
        code, rep = _run(
            capsys,
            ["expect", _write_shape(tmp_path, MIXED_4), "--samples", "20000", "--seed", "5"],
        )
        res = rep["results"]["expectation"]
        assert res["provenance"] == "monte_carlo"
        assert res["stderr"] > 0
        assert "mc" in res


    def test_closed_form_with_radicand_past_float_range(self, tmp_path, capsys):
        # radicand 2**1240: the root 2**620 is a float, the radicand is not
        path = _write_shape(tmp_path, {"block_sizes": [20], "degrees": [[2**62]] * 20})
        code, rep = _run(capsys, ["expect", path])
        assert code == 0
        res = rep["results"]["expectation"]
        assert res["provenance"] == "closed_form"
        assert res["value"] == pytest.approx(2.0**620, rel=1e-12)
        # the lower bound is the root of the BKK count 2**1240
        _, rep = _run(capsys, ["bounds", path])
        assert rep["results"]["lower"]["value"] == pytest.approx(2.0**620, rel=1e-12)

    def test_monte_carlo_stderr_with_large_degrees(self, tmp_path, capsys):
        # n = 20: every sample's det**2 is past float range, its stderr is not
        game = game_shape((4,) * 5)
        shape = {
            "block_sizes": list(game.block_sizes),
            "degrees": [[2**62 * d for d in row] for row in game.degrees],
        }
        code, rep = _run(capsys, ["expect", _write_shape(tmp_path, shape), "--samples", "4096"])
        assert code == 0
        res = rep["results"]["expectation"]
        assert res["provenance"] == "monte_carlo"
        assert 0 < res["stderr"] < res["value"] < math.inf


class TestBoundsCommand:
    def test_bilinear(self, tmp_path, capsys):
        code, rep = _run(capsys, ["bounds", _write_shape(tmp_path, BILINEAR)])
        assert code == 0
        res = rep["results"]
        assert res["upper"]["value"] == pytest.approx(2.0)
        assert res["lower"]["value"] == pytest.approx(math.sqrt(2))
        assert res["equality"] is False
        assert res["margin_upper"] > 0 and res["margin_lower"] > 0

    @pytest.mark.xfail(
        strict=True,
        reason="Ryser in floats rounds the upper bound past mc_slack's 1e-9 "
        "allowance from n = 16 on (ROADMAP item 2)",
    )
    def test_exact_shape_at_n18_keeps_its_bounds(self, tmp_path, capsys):
        # closed form 1 and simply reducible; upper reads 0.99999999399
        shape = {"block_sizes": [18], "degrees": [[1]] * 18}
        code, _ = _run(capsys, ["bounds", _write_shape(tmp_path, shape)])
        assert code == 0


class TestMcDetCommand:
    def test_matches_library(self, tmp_path, capsys):
        import numpy as np

        from mhroots.gaussian import mc_abs_det

        code, rep = _run(
            capsys,
            ["mc-det", _write_shape(tmp_path, BILINEAR), "--samples", "20000", "--seed", "3"],
        )
        direct = mc_abs_det(np.ones((2, 2)), 20000, seed=3)
        assert rep["results"]["mean_abs_det"]["mean"] == direct.mean


class TestSimulateCommand:
    def test_bilinear_with_dump(self, tmp_path, capsys):
        dump = tmp_path / "counts.csv"
        code, rep = _run(
            capsys,
            [
                "simulate",
                _write_shape(tmp_path, BILINEAR),
                "--samples", "2000",
                "--seed", "7",
                "--dump", str(dump),
            ],
        )
        assert code == 0
        assert abs(rep["results"]["mean_roots"]["mean"] - math.pi / 2) < 0.15
        with open(dump, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample", "root_count", "flags"]
        assert len(rows) == 2001
        assert all(row[1] in {"0", "1", "2"} for row in rows[1:])


    def test_simulate_holds_one_piece_at_a_time(self, tmp_path, capsys):
        # a count per sample would take 16 MB at 1e6 samples
        shape = _write_shape(tmp_path, BILINEAR)
        assert _traced_peak(lambda: main(["simulate", shape, "--samples", "1000000"])) < 4 * 2**20
        # and the dump is written as the pieces are counted: its peak does
        # not grow with the pieces (8 bytes a sample would be 393 KB here)
        peaks = []
        for pieces in (2, 8):
            argv = ["simulate", shape, "--samples", str(pieces * empirical.STURM_CHUNK),
                    "--dump", str(tmp_path / f"counts-{pieces}.csv")]
            peaks.append(_traced_peak(lambda: main(argv)))
        capsys.readouterr()
        assert peaks[1] - peaks[0] < 2**17

    @pytest.mark.parametrize("data, tau", [(BILINEAR, "1e-8"), (QUARTIC, "1e-2")])
    def test_dump_rows_are_the_sample_counts(self, tmp_path, capsys, data, tau):
        # three pieces and a part; the quartic at tau 1e-2 flags a few rows
        samples, dump = 3 * empirical.STURM_CHUNK + 5, tmp_path / "counts.csv"
        argv = ["simulate", _write_shape(tmp_path, data), "--samples", str(samples), "--seed", "10",
                "--tau-imag", tau, "--dump", str(dump)]
        code, rep = _run(capsys, argv)
        spec = validate(data["block_sizes"], data["degrees"])
        counts, flags = empirical.sample_counts(spec, samples, 10, float(tau))
        assert code == 0 and (len(flags) > 0) == (data is QUARTIC)
        assert rep["results"]["mean_roots"]["mean"] == counts.mean()
        assert rep["results"]["flagged_samples"] == len(flags)
        want = [["sample", "root_count", "flags"]] + [
            [str(i), str(c), "|".join(flags.get(i, ()))] for i, c in enumerate(counts.tolist())
        ]
        with open(dump, newline="") as fh:
            assert list(csv.reader(fh)) == want

    def test_single_draw_reports_dumped_counts_at_tau(self, tmp_path, capsys):
        # with an imaginary-part tolerance of 1e3 every root of a quartic
        # counts as real, so each sample reports exactly 4 roots
        shape = _write_shape(tmp_path, QUARTIC)
        means = {}
        for tau in ("1e-8", "1e3"):
            dump = tmp_path / f"counts-{tau}.csv"
            argv = ["simulate", shape, "--samples", "3000", "--seed", "8", "--dump", str(dump)]
            code, rep = _run(capsys, argv + ["--tau-imag", tau])
            assert code == 0
            with open(dump, newline="") as fh:
                counts = [int(row[1]) for row in list(csv.reader(fh))[1:]]
            means[tau] = rep["results"]["mean_roots"]["mean"]
            assert means[tau] == sum(counts) / len(counts)
        assert means["1e3"] == 4.0
        assert means["1e-8"] < 3.0


class TestExitCodes:
    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["bkk", str(path)]) == 2

    def test_dimension_mismatch(self, tmp_path, capsys):
        bad = {"block_sizes": [2], "degrees": [[1]]}
        assert main(["bkk", _write_shape(tmp_path, bad)]) == 2

    def test_missing_file(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"block_sizes": [1], "degrees": [[\xe9]]}')
        # a missing file, a directory, and a file that is not UTF-8
        for path in ("/nonexistent/shape.json", str(tmp_path), str(not_utf8)):
            assert main(["bkk", path]) == 2
            assert capsys.readouterr().err.startswith("invalid input: ")

    @pytest.mark.parametrize(
        "shape, message",
        [
            ({"block_sizes": [1], "degrees": [2]}, "degree row 1 must be a list"),
            ({"block_sizes": [1], "degrees": [[True]]}, "degree (1,1) must be an integer"),
            ({"block_sizes": [True], "degrees": [[1]]}, "block size must be an integer"),
            ('{"block_sizes": [1], "degrees": [[1e400]]}', "degree (1,1) must be an integer, got inf"),
        ],
    )
    def test_malformed_shape_json(self, tmp_path, capsys, shape, message):
        assert main(["bkk", _write_shape(tmp_path, shape)]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: {message}")

    @pytest.mark.parametrize("command", ["expect", "bkk", "bounds"])
    @pytest.mark.parametrize(
        "shape",
        [
            {"block_sizes": [1], "degrees": [[10**400]]},
            {"block_sizes": [1, 1], "degrees": [[10**20, 1], [1, 1]]},
        ],
        ids=["10**400", "10**20"],
    )
    def test_degree_past_int64(self, tmp_path, capsys, command, shape):
        assert main([command, _write_shape(tmp_path, shape)]) == 2
        assert capsys.readouterr().err == "invalid input: degree (1,1) exceeds 2**63 - 1\n"

    @pytest.mark.parametrize("command", ["expect", "bkk", "bounds"])
    def test_degree_past_the_int_digit_limit(self, tmp_path, capsys, command):
        shape = '{"block_sizes": [1], "degrees": [[' + "9" * 5000 + "]]}"
        assert main([command, _write_shape(tmp_path, shape)]) == 2
        assert capsys.readouterr().err.startswith("invalid input: ")

    def test_json_nested_past_the_decoder_recursion_limit(self, tmp_path, capsys):
        shape = "[" * 100_000 + "]" * 100_000
        assert main(["bkk", _write_shape(tmp_path, shape)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: shape JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("command", ["expect", "bkk", "bounds"])
    def test_largest_degree_accepted(self, tmp_path, capsys, command):
        shape = {"block_sizes": [1, 1], "degrees": [[2**63 - 1, 1], [1, 1]]}
        code, rep = _run(capsys, [command, _write_shape(tmp_path, shape)])
        assert code == 0 and rep is not None

    def test_resource_cap(self, tmp_path, capsys):
        big = {"block_sizes": [40], "degrees": [[1]] * 40}
        assert main(["bounds", _write_shape(tmp_path, big)]) == 3

    @pytest.mark.parametrize(
        "command, shape",
        [
            ("expect", {"block_sizes": [40], "degrees": [[2**62]] * 40}),
            (
                "expect",
                {
                    "block_sizes": [16, 16, 16],
                    "degrees": [[2**62, 0, 0]] * 16 + [[0, 2**62, 0]] * 16 + [[0, 0, 2**62]] * 16,
                },
            ),
            ("mc-det", {"block_sizes": [48], "degrees": [[2**62]] * 48}),
            ("mc-det", {"block_sizes": [40], "degrees": [[2**62]] * 40}),
            # two groups of equal columns: sampled, not exact
            ("mc-det", {"block_sizes": [20, 20], "degrees": [[2**62, 2**61]] * 40}),
        ],
        ids=["closed-form-40", "product-of-three", "mc-det-48", "mc-det-40", "mc-det-two-groups"],
    )
    def test_result_past_float_range(self, tmp_path, capsys, command, shape):
        # no traceback and no Infinity, which is not JSON
        assert main([command, _write_shape(tmp_path, shape), "--samples", "100"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("resource cap: a value is past float range (")

    def test_simulate_past_the_weight_cap(self, tmp_path, capsys):
        # the coefficient variances of degree 61 exceed shape.WEIGHT_DEGREE_CAP;
        # its expectation is a closed form and needs no weights
        path = _write_shape(tmp_path, {"block_sizes": [1], "degrees": [[61]]})
        assert main(["simulate", path, "--samples", "100"]) == 3
        assert capsys.readouterr().err == (
            "resource cap: block degree 61 exceeds weight degree cap 60\n"
        )
        assert main(["expect", path]) == 0

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["simulate", "SHAPE", "--samples", "1000000"], "count_pieces"),
            (["verify", "--count", "100", "--samples", "100000"], "_verify_checks"),
        ],
    )
    def test_unwritable_dump_refused_before_the_work(self, tmp_path, capsys, monkeypatch, argv, work):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before the dump path was opened")

        monkeypatch.setattr(cli, work, never)
        argv = [_write_shape(tmp_path, BILINEAR) if a == "SHAPE" else a for a in argv]
        dump = tmp_path / "missing" / "x.csv"
        assert main(argv + ["--dump", str(dump)]) == 2
        assert capsys.readouterr().err.startswith("invalid input: ")

    def test_bkk_on_a_chain_past_the_recursion_limit(self, tmp_path, capsys):
        # one table leaf, and a reducibility walk that does not recurse
        deep = {"block_sizes": [1100], "degrees": [[1]] * 1100}
        code, rep = _run(capsys, ["bkk", _write_shape(tmp_path, deep)])
        assert code == 0
        assert rep["results"]["bkk"]["value"] == 1
        assert rep["results"]["simply_reducible"] is True
        assert rep["results"]["witness"] == [[1, 1]] * 1100

    def test_out_of_memory_is_a_resource_cap(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "bkk_recursive", exhausted)
        assert main(["bkk", _write_shape(tmp_path, BILINEAR)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "resource cap: out of memory\n"

    def test_bkk_deep_within_the_recursion_limit(self, tmp_path, capsys):
        deep = {"block_sizes": [900], "degrees": [[1]] * 900}
        code, rep = _run(capsys, ["bkk", _write_shape(tmp_path, deep)])
        assert code == 0
        assert rep["results"]["bkk"]["value"] == 1
        assert "bkk_permanent_check" not in rep["results"]

    @pytest.mark.parametrize(
        "command, shape, samples",
        [
            ("expect", MIXED, "0"),
            ("expect", MIXED, "1"),
            ("mc-det", BILINEAR, "1"),
            ("simulate", BILINEAR, "0"),
            ("simulate", BILINEAR, "1"),
        ],
    )
    def test_too_few_samples(self, tmp_path, capsys, command, shape, samples):
        code = main([command, _write_shape(tmp_path, shape), "--samples", samples])
        assert code == 2
        assert capsys.readouterr().err.startswith("invalid input: need at least 2 samples")

    @pytest.mark.parametrize(
        "argv",
        [
            ["expect", "MIXED", "--samples", "0"],  # the exact P^1 x P^m value
            ["bounds", "BILINEAR", "--samples", "1"],  # a closed form
            ["verify", "--count", "3", "--samples", "1"],
        ],
    )
    def test_too_few_samples_without_monte_carlo(self, tmp_path, capsys, argv):
        # checked up front: an exactly resolved shape never reaches the estimator
        shapes = {"MIXED": MIXED, "BILINEAR": BILINEAR}
        argv = [_write_shape(tmp_path, shapes[a]) if a in shapes else a for a in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "invalid input: need at least 2 samples, got " + argv[-1] + "\n"

    def test_non_integer_threads_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MHROOTS_THREADS", "abc")
        assert main(["expect", _write_shape(tmp_path, MIXED), "--samples", "100"]) == 2
        assert capsys.readouterr().err.startswith("invalid input: MHROOTS_THREADS")

    def test_zero_workers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MHROOTS_THREADS", raising=False)
        assert main(["expect", _write_shape(tmp_path, MIXED), "--workers", "0"]) == 2
        assert capsys.readouterr().err.startswith("invalid input: --workers")

    def test_no_traceback_on_a_long_cycle(self, tmp_path, capsys):
        # row i has degree 1 in block i and 2 in block i + 1, the last row
        # degree 1 in block 1: the zero test's matching augments along a
        # path through every row
        n = 1000
        degrees = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            degrees[i][i], degrees[i][i + 1] = 1, 2
        degrees[n - 1][0] = 1
        shape = _write_shape(tmp_path, {"block_sizes": [1] * n, "degrees": degrees})
        for argv, code in [
            (["expect", shape, "--samples", "2"], 0),
            (["mc-det", shape, "--samples", "2"], 0),
            (["bounds", shape], 3),  # the Ryser cap
            (["simulate", shape], 2),
        ]:
            assert main(argv) == code, argv
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["bkk", "simulate"])
    def test_threads_env_unread_without_workers_flag(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("MHROOTS_THREADS", "abc")
        argv = [command, _write_shape(tmp_path, BILINEAR)]
        code, rep = _run(capsys, argv + (["--samples", "100"] if command == "simulate" else []))
        assert code == 0 and rep["workers"] is None


# The flags each subcommand reads; every other flag is a usage error.
MC_FLAGS = {"--samples", "--seed", "--workers"}
KEPT_FLAGS = {
    "bkk": set(),
    "expect": MC_FLAGS,
    "mc-det": MC_FLAGS,
    "bounds": MC_FLAGS | {"--stderr-mult"},
    "simulate": {"--samples", "--seed", "--tau-imag", "--dump"},
    "verify": MC_FLAGS
    | {"--stderr-mult", "--miss-budget", "--dump", "--count", "--n-max", "--delta-max"},
}
# A value for each flag but verify's corpus flags, which the exact-flags test covers.
SHARED_FLAG_VALUES = {
    "--samples": "5", "--seed": "9", "--workers": "2", "--stderr-mult": "1", "--miss-budget": "0.9",
    "--tau-imag": "0.3", "--dump": "x.csv",
}


class TestDeclaredFlags:
    def test_each_subcommand_takes_exactly_its_flags(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        assert set(subparsers) == set(KEPT_FLAGS)
        for command, sub in subparsers.items():
            options = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
            assert options == KEPT_FLAGS[command], command
        assert sum(map(len, KEPT_FLAGS.values())) == 23

    def test_parser_built_once_and_flags_do_not_carry_over(self, tmp_path, capsys):
        path = _write_shape(tmp_path, BILINEAR)
        cli.build_parser()
        misses = cli.build_parser.cache_info().misses
        _, rep = _run(capsys, ["expect", path, "--samples", "5"])
        assert rep["samples"] == 5
        _, rep = _run(capsys, ["expect", path])
        assert rep["samples"] == 100_000
        assert cli.build_parser.cache_info().misses == misses

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, kept in KEPT_FLAGS.items() for f in SHARED_FLAG_VALUES if f not in kept],
    )
    def test_unread_flag_rejected(self, tmp_path, capsys, command, flag):
        shape = [] if command == "verify" else [_write_shape(tmp_path, BILINEAR)]
        with pytest.raises(SystemExit) as exc:
            main([command, *shape, flag, SHARED_FLAG_VALUES[flag]])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {flag}" in err


class TestReportContract:
    def test_byte_identical_modulo_wall_time(self, tmp_path, capsys):
        argv = ["expect", _write_shape(tmp_path, MIXED), "--samples", "20000", "--seed", "9"]
        _, rep1 = _run(capsys, argv)
        mx._EXPECTATION_MEMO.clear()
        _, rep2 = _run(capsys, argv)
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_shape_echo_round_trips(self, tmp_path, capsys):
        _, rep = _run(capsys, ["bkk", _write_shape(tmp_path, BILINEAR)])
        assert rep["shape"] == BILINEAR

    def test_schema_and_tolerances_present(self, tmp_path, capsys):
        # each report echoes the tolerances its subcommand applies, and no others
        shape = _write_shape(tmp_path, BILINEAR)
        expected = {
            "simulate": {"imag_tau": 1e-8, "infinity_tol": empirical.INFINITY_TOL},
            "bounds": {"stderr_multiplier": 4.0},
            "verify": {"stderr_multiplier": 4.0, "miss_budget": 0.05},
        }
        for argv in (["simulate", shape], ["bounds", shape], ["verify", "--count", "1"]):
            _, rep = _run(capsys, argv + ["--samples", "1000"])
            assert rep["schema"] == 1
            assert rep["tolerances"] == expected[argv[0]]
        _, rep = _run(capsys, ["bkk", shape])
        assert rep["tolerances"] == {}
        assert rep["seed"] is rep["samples"] is rep["workers"] is None

    def test_threads_env_overrides_workers(self, tmp_path, capsys, monkeypatch):
        argv = ["expect", _write_shape(tmp_path, MIXED), "--samples", "20000", "--workers", "1"]
        _, rep1 = _run(capsys, argv)
        monkeypatch.setenv("MHROOTS_THREADS", "2")
        mx._EXPECTATION_MEMO.clear()
        _, rep2 = _run(capsys, argv)
        assert rep2["workers"] == 2
        assert (
            rep1["results"]["expectation"]["value"]
            == rep2["results"]["expectation"]["value"]
        )


class TestVerifyCommand:
    def test_small_corpus_passes(self, tmp_path, capsys):
        dump = tmp_path / "checks.csv"
        code, rep = _run(
            capsys,
            [
                "verify",
                "--count", "5",
                "--samples", "4000",
                "--seed", "31",
                "--n-max", "4",
                "--dump", str(dump),
            ],
        )
        assert code == 0
        assert rep["results"]["ok"] is True
        assert rep["results"]["counts"]["fail"] == 0
        with open(dump, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check", "index", "status", "detail"]
        assert len(rows) == len(rep["results"]["checks"]) + 1

    def test_stderr_mult_reaches_row_recursion(self, capsys):
        argv = ["verify", "--count", "20", "--samples", "2000", "--seed", "3", "--miss-budget", "1"]
        row_status = {}
        for mult in ("4", "0.01"):
            mx._EXPECTATION_MEMO.clear()
            _, rep = _run(capsys, argv + ["--stderr-mult", mult])
            row_status[mult] = [
                c["status"] for c in rep["results"]["checks"] if c["check"] == "row_recursion"
            ]
        assert row_status["4"] and set(row_status["4"]) == {"PASS"}
        assert "WARN" in row_status["0.01"] and "FAIL" not in row_status["0.01"]

    def test_no_ryser_oracle_above_its_cap(self, monkeypatch):
        calls = []
        original = cli.bkk_permanent
        monkeypatch.setattr(
            cli, "bkk_permanent", lambda spec: calls.append(spec.n) or original(spec)
        )
        # seed 2, index 0 draws block sizes (7, 7): n = 14 > PERMANENT_CHECK_MAX_N
        args = cli.build_parser().parse_args(
            ["verify", "--n-max", "16", "--count", "1", "--samples", "1000", "--seed", "2"]
        )
        checks = cli._verify_checks(args)
        line = next(c for c, _ in checks if c["check"] == "bkk_consistency")
        assert "'block_sizes': [7, 7]" in line["detail"]
        assert line["status"] == "PASS" and "permanent=None" in line["detail"]
        assert calls == []

    def test_over_cap_corpus_refused_up_front(self, capsys):
        # seed 0: shape 0 has n = 29 (a full Ryser bound), shape 3 has n = 35
        t0 = time.perf_counter()
        code = main(["verify", "--count", "4", "--n-max", "40", "--seed", "0"])
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == (
            "resource cap: corpus shape 3 has n=35; bounds() caps its float permanent at n=34\n"
        )
        assert elapsed < 2.0

    def test_one_estimate_per_canonical_shape(self, monkeypatch):
        estimated = []
        original_mc = mx.mc_abs_det
        monkeypatch.setattr(
            mx, "mc_abs_det",
            lambda var, samples, seed, workers=1: estimated.append(seed)
            or original_mc(var, samples, seed, workers),
        )
        resolved = []
        original_expectation = mx.expectation

        def counting(spec, *args, **kwargs):
            res = original_expectation(spec, *args, **kwargs)
            if res.kind == "monte_carlo":
                resolved.append(_canonical(spec.block_sizes, spec.degrees))
            return res

        monkeypatch.setattr(mx, "expectation", counting)
        monkeypatch.setattr(cli, "expectation", counting)
        # the first 20 shapes of seed 3 resolve one n = 4 shape by Monte Carlo
        assert main(["verify", "--count", "20", "--samples", "2000", "--seed", "3"]) == 0
        assert len(estimated) == len(set(estimated)) == len(set(resolved)) > 0
        assert len(resolved) > len(estimated)

    def test_no_3x3_profile_reaches_monte_carlo(self, capsys, monkeypatch):
        profiles = []
        original_mc = mx.mc_abs_det
        monkeypatch.setattr(
            mx, "mc_abs_det",
            lambda var, samples, seed, workers=1: profiles.append(var.shape)
            or original_mc(var, samples, seed, workers),
        )
        # the n = 3 shapes resolve through the P^1 x P^m value or the 3 x 3 one
        exact = []
        for name in ("abs_det_p1", "abs_det_3x3"):
            original_exact = getattr(mx, name)
            monkeypatch.setattr(
                mx, name, lambda arg, f=original_exact: exact.append(1) or f(arg)
            )
        # the first 30 shapes make no Monte Carlo estimate at all
        argv = ["verify", "--count", "60", "--n-max", "4", "--samples", "2000", "--seed", "0"]
        code, rep = _run(capsys, argv)
        assert code == 0 and exact and profiles
        assert (3, 3) not in profiles
        assert {c["status"] for c in rep["results"]["checks"]} == {"PASS"}

    def test_p1_shapes_reach_monte_carlo_only_as_independent_middles(self, capsys):
        # a P^1 x P^m shape resolves exactly; only a row check's middle of a
        # peeled one, memoized under its own key, has a Monte Carlo estimate
        mx._EXPECTATION_MEMO.clear()
        code, rep = _run(capsys, ["verify", "--count", "100", "--samples", "2000", "--seed", "0"])
        assert code == 0 and {c["status"] for c in rep["results"]["checks"]} == {"PASS"}
        p1 = [(key, res) for key, res in mx._EXPECTATION_MEMO.items()
              if len(key[0]) == 2 and min(key[0]) == 1]
        plain = [res.kind for key, res in p1 if len(key) == 4]
        assert "exact_p1" in plain and "monte_carlo" not in plain
        assert any(key[4:] == ("monte_carlo",) for key, _ in p1)

    def test_report_independent_of_workers(self, capsys, monkeypatch):
        # pieces of at most one block, so every estimate of 4096 samples is
        # four pool tasks
        monkeypatch.setattr(gaussian, "DET_CHUNK", rng.SAMPLE_BLOCK)
        reports = []
        for workers in ("1", "2"):
            mx._EXPECTATION_MEMO.clear()
            argv = ["verify", "--count", "10", "--samples", "4096", "--seed", "4",
                    "--workers", workers]
            code, rep = _run(capsys, argv)
            assert code == 0 and rep["workers"] == int(workers)
            for key in ("wall_time_s", "workers"):
                rep.pop(key)
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-max", "0", "--n-max must be at least 1, got 0"),
            ("--n-max", "-3", "--n-max must be at least 1, got -3"),
            ("--count", "-1", "--count must be nonnegative, got -1"),
            ("--tau-imag", "-1", "--tau-imag must be finite and nonnegative, got -1.0"),
            ("--tau-imag", "nan", "--tau-imag must be finite and nonnegative, got nan"),
            ("--tau-imag", "inf", "--tau-imag must be finite and nonnegative, got inf"),
            ("--stderr-mult", "-5", "--stderr-mult must be finite and positive, got -5.0"),
            ("--stderr-mult", "0", "--stderr-mult must be finite and positive, got 0.0"),
            ("--stderr-mult", "nan", "--stderr-mult must be finite and positive, got nan"),
            ("--miss-budget", "-1", "--miss-budget must be in [0, 1], got -1.0"),
            ("--miss-budget", "1.5", "--miss-budget must be in [0, 1], got 1.5"),
            ("--miss-budget", "nan", "--miss-budget must be in [0, 1], got nan"),
            ("--delta-max", "-1", "--delta-max must be nonnegative, got -1"),
        ],
    )
    def test_out_of_range_arguments(self, tmp_path, capsys, flag, value, message):
        # the imaginary-part tolerance skews simulate's counts; the others, verify's verdict
        command = ["simulate", _write_shape(tmp_path, QUARTIC)] if flag == "--tau-imag" else ["verify"]
        assert main(command + [flag, value, "--samples", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"invalid input: {message}\n"
