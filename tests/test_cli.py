"""Tests for the command-line interface: determinism, formats, golden outputs."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import weakref

import pytest
from cli_runner import run_cli

from cventlab import cli, fock_oracle

TESTS_DIR = pathlib.Path(__file__).parent
GOLDEN_DIR = TESTS_DIR / "golden"


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestSeedResolution:
    def test_default_seed_documented(self):
        assert cli.DEFAULT_SEED == 20020521

    def test_explicit_seed_wins(self):
        out = run_cli(
            ["crypto", "simulate", "--x", "0.5", "--bits", "100", "--seed", "3",
             "--format", "json"],
            env={cli.SEED_ENV_VAR: "99"},
        )
        assert json.loads(out.output)["meta"]["seed"] == 3

    def test_env_seed(self):
        out = run_cli(
            ["crypto", "simulate", "--x", "0.5", "--bits", "100", "--format", "json"],
            env={cli.SEED_ENV_VAR: "99"},
        )
        assert json.loads(out.output)["meta"]["seed"] == 99

    def test_bad_env_seed(self):
        out = run_cli(
            ["crypto", "simulate", "--x", "0.5", "--bits", "100"],
            env={cli.SEED_ENV_VAR: "abc"},
        )
        assert out.exit_code == 2

    # one invocation of each command, with its required options
    COMMANDS = [
        ["estimate", "--x", "0.5", "--trials", "100"],
        ["discriminate", "--phases", "0,1"],
        ["interfere", "--x", "0.5"],
        ["crypto", "errors", "--x", "0.7"],
        ["crypto", "simulate", "--x", "0.8", "--bits", "100"],
        ["fiber", "--m", "0.5", "--n", "2"],
    ]

    @pytest.mark.parametrize("args", COMMANDS)
    def test_negative_seed(self, args):
        out = run_cli([*args, "--seed", "-1"])
        assert out.exit_code == 2
        assert out.stdout == ""
        assert "Error: Invalid value for '--seed': -1 is not in the range x>=0." in out.stderr

    @pytest.mark.parametrize("args", COMMANDS)
    def test_negative_env_seed(self, args):
        out = run_cli(args, env={cli.SEED_ENV_VAR: "-3"})
        assert out.exit_code == 2
        assert out.stdout == ""
        assert (f"Error: Invalid value: {cli.SEED_ENV_VAR} must be an integer >= 0, "
                "got '-3'") in out.stderr

    def test_zero_seed(self):
        out = run_cli(["estimate", "--x", "0.5", "--trials", "100", "--seed", "0",
                       "--format", "json"])
        assert json.loads(out.output)["meta"]["seed"] == 0


# every README command, and interfere up to the largest default truncation
# below the cap, where the Fock kernel's sums and the overlap are longest
THREAD_PROBE_ARGS = [
    ["fiber", "--gamma", "1", "--m", "0.5", "--n", "2"],
    ["discriminate", "--phases", "0,1.5708", "--samples", "20000"],
    ["crypto", "simulate", "--x", "0.8", "--bits", "20000", "--seed", "7"],
    ["estimate", "--x", "0.5", "--trials", "20000", "--format", "json"],
    ["estimate", "--x", "0.9", "--nbar-t", "0.5", "--range", "nbar_t=0:1.5:7"],
    ["interfere", "--x", "0.5", "--phi", "0.3", "--q0", "0.01", "--gamma-star", "10"],
    ["crypto", "errors", "--x", "0.7", "--a", "0.5", "--kappa", "1.0"],
    # the two columns once fed by a BLAS call: r at r = 0, and Eve's oracle
    ["discriminate", "--phases", "0,2.1,4.2"],
    ["crypto", "errors", "--x", "0.9", "--a", "6", "--kappa", "1"],
] + [["interfere", "--x", x, "--phi", phi]
     for x in ("0.5", "0.8", "0.9", "0.94") for phi in ("0.05", "0.3", "1.1")]

THREAD_PROBE = """
import json, sys
from cli_runner import run_cli
for args in json.loads(sys.argv[1]):
    result = run_cli(args)
    sys.stdout.write(f"{args} exit {result.exit_code}\\n{result.output}")
"""


def outputs_under_blas_threads(threads: int) -> str:
    """stdout of every THREAD_PROBE_ARGS command, in one fresh interpreter."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != cli.SEED_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), str(TESTS_DIR),
                                                     env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE, json.dumps(THREAD_PROBE_ARGS)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestDeterminism:
    def test_bytes_do_not_depend_on_blas_threads(self):
        one = outputs_under_blas_threads(1)
        assert one.count(" exit 0\n") == len(THREAD_PROBE_ARGS)
        assert one == outputs_under_blas_threads(2)

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--x", "0.5", "--trials", "5000"],
            ["discriminate", "--phases", "0,1.0,2.5", "--samples", "5000"],
            ["interfere", "--x", "0.4"],
            ["crypto", "errors", "--x", "0.7"],
            ["crypto", "simulate", "--x", "0.7", "--bits", "5000"],
            ["fiber", "--m", "0.5", "--n", "2"],
        ],
    )
    def test_byte_reproducible(self, args):
        a = run_cli(args + ["--seed", "11"]).stdout_bytes
        b = run_cli(args + ["--seed", "11"]).stdout_bytes
        assert a == b
        assert len(a) > 0

    def test_discriminate_ignores_samples_and_seed(self):
        # the exact oracle draws nothing
        outputs = {
            run_cli(["discriminate", "--phases", "0,1.0,2.5", "--samples", n,
                     "--seed", seed]).stdout_bytes
            for n in ("1", "20000", "100000") for seed in ("1", "606")
        }
        assert len(outputs) == 1

    def test_different_seeds_differ(self):
        a = run_cli(["crypto", "simulate", "--x", "0.5", "--bits", "2000",
                     "--seed", "1"]).output
        b = run_cli(["crypto", "simulate", "--x", "0.5", "--bits", "2000",
                     "--seed", "2"]).output
        assert a != b


class TestFormats:
    def test_json_schema(self):
        import jsonschema

        schema = json.loads(
            (
                pathlib.Path(cli.__file__).parent / "schemas" / "cli_output.schema.json"
            ).read_text()
        )
        for args in (
            ["estimate", "--x", "0.5", "--trials", "2000"],
            ["fiber", "--m", "0.5", "--n", "2"],
            ["discriminate", "--phases", "0,3.5", "--samples", "2000"],
        ):
            out = run_cli(args + ["--format", "json"])
            doc = json.loads(out.output)
            jsonschema.validate(doc, schema)
            assert doc["meta"]["n_rows"] == len(doc["rows"])

    def test_csv_header_and_rows(self):
        out = run_cli(["fiber", "--m", "0.5", "--n", "2"])
        rows = parse_csv(out.output)
        assert len(rows) == 1
        assert float(rows[0]["t_s"]) == pytest.approx(0.603456102602, rel=1e-9)

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        run_cli(["fiber", "--m", "0.5", "--n", "2", "--output", str(target)])
        assert target.exists()
        assert parse_csv(target.read_text())[0]["M"] == "0.5"

    @pytest.mark.parametrize("target, reason", [
        ("missing/out.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unwritable_output(self, tmp_path, target, reason):
        # a bad --output is a bad argument: exit 2 with one error line, no traceback
        path = tmp_path / target
        out = run_cli(["fiber", "--m", "0.5", "--n", "2", "--output", str(path)])
        assert out.exit_code == 2
        assert out.stdout == ""
        assert f"Error: Invalid value for '--output': {reason}: {str(path)!r}" in out.stderr
        assert list(tmp_path.iterdir()) == []

    def test_infinity_rendering(self):
        out = run_cli(["fiber", "--m", "0", "--n", "2"])
        row = parse_csv(out.output)[0]
        assert row["t_s"] == "inf"
        assert row["tau_s_scan"] == ""


class TestMetaParams:
    # each command's options in declared order, and its meta.params from them;
    # fiber's --n is not given, and discriminate's --phases is not a parameter
    DECLARED = {
        ("estimate",): ([("--x", "0.5"), ("--nbar-t", "0.2"), ("--alpha", "0.7"),
                         ("--trials", "200")],
                        {"x": 0.5, "nbar_t": 0.2, "alpha": 0.7, "trials": 200}),
        ("discriminate",): ([("--phases", "0,1"), ("--samples", "7")], {"samples": 7}),
        ("interfere",): ([("--x", "0.6"), ("--phi", "0.2"), ("--q0", "0.02"),
                          ("--gamma-star", "5"), ("--d-max", "30")],
                         {"x": 0.6, "phi": 0.2, "q0": 0.02, "gamma_star": 5.0, "d_max": 30}),
        ("crypto", "errors"): ([("--x", "0.6"), ("--a", "0.3"), ("--kappa", "2")],
                               {"x": 0.6, "a": 0.3, "kappa": 2.0}),
        ("crypto", "simulate"): ([("--x", "0.6"), ("--a", "0.3"), ("--kappa", "2"),
                                  ("--bits", "300")],
                                 {"x": 0.6, "a": 0.3, "kappa": 2.0, "bits": 300}),
        ("fiber",): ([("--gamma", "2"), ("--m", "0.4"), ("--r0", "0.7")],
                     {"gamma": 2.0, "m": 0.4, "n": None, "r0": 0.7}),
    }

    @pytest.mark.parametrize("command", list(DECLARED), ids=" ".join)
    def test_params_follow_the_declared_options(self, command):
        # the options come in reverse order; meta.params keeps the declared one
        options, params = self.DECLARED[command]
        args = [*command, *(word for option in reversed(options) for word in option)]
        out = run_cli([*args, "--format", "json"])
        assert out.exit_code == 0
        assert list(json.loads(out.stdout)["meta"]["params"].items()) == list(params.items())


class TestSweeps:
    def test_range_expansion(self):
        out = run_cli(
            ["interfere", "--x", "0.5", "--range", "x=0.2:0.8:4", "--format", "json"]
        )
        doc = json.loads(out.output)
        assert [r["x"] for r in doc["rows"]] == pytest.approx([0.2, 0.4, 0.6, 0.8])

    def test_cartesian_product(self):
        out = run_cli(
            ["estimate", "--x", "0.5", "--trials", "500",
             "--range", "x=0.2:0.4:2", "--range", "nbar_t=0:1:3", "--format", "json"]
        )
        doc = json.loads(out.output)
        assert doc["meta"]["n_rows"] == 6

    def test_bad_range_spec(self):
        out = run_cli(["estimate", "--x", "0.5", "--range", "x=0.2:0.8"])
        assert out.exit_code == 2

    def test_unknown_sweep_key(self):
        out = run_cli(["estimate", "--x", "0.5", "--range", "bogus=0:1:2"])
        assert out.exit_code == 2

    def test_key_swept_twice(self):
        # the second sweep would silently replace the first
        out = run_cli(["estimate", "--x", "0.5", "--trials", "100",
                       "--range", "x=0.1:0.2:2", "--range", "x=0.3:0.4:2"])
        assert out.exit_code == 2
        assert out.stdout == ""
        assert "Error: Invalid value: sweep key 'x' is given twice" in out.stderr

    def test_grid_too_large_for_memory(self):
        # 10**15 points (7.11 PiB as a numpy array) are refused by their
        # count, before any point is computed: a bad argument naming the spec
        spec = "x=0:0.5:1000000000000000"
        out = run_cli(["estimate", "--x", "0.5", "--range", spec])
        assert out.exit_code == 2
        assert out.stdout == ""
        assert f"Error: Invalid value: range {spec!r} is too large" in out.stderr

    @pytest.mark.parametrize("steps", [2**62, 2**63, 10**30])
    def test_grid_past_numpy_length_bound(self, steps):
        # lengths that numpy could not even index: a bad argument that says
        # the grid is too large
        spec = f"x=0:0.5:{steps}"
        out = run_cli(["estimate", "--x", "0.5", "--range", spec])
        assert out.exit_code == 2
        assert out.stdout == ""
        assert f"Error: Invalid value: range {spec!r} is too large" in out.stderr

    @pytest.mark.parametrize("ranges, n_rows", [
        (["x=0.2:0.4:2", "nbar_t=0:1:3"], 6),
        (["x=0.2:0.4:7"], None),
        (["x=0.2:0.4:3", "nbar_t=0:1:3"], None),
    ])
    def test_grid_refused_by_its_point_count(self, monkeypatch, ranges, n_rows):
        # at a cap of 6 points a 2 x 3 grid runs; 7 points, or 3 x 3, exit 2
        monkeypatch.setattr(cli, "_MAX_POINTS", 6)
        args = ["estimate", "--x", "0.5", "--trials", "10", "--format", "json"]
        out = run_cli([*args, *(word for spec in ranges for word in ("--range", spec))])
        if n_rows is not None:
            assert out.exit_code == 0
            assert json.loads(out.stdout)["meta"]["n_rows"] == n_rows
        else:
            assert out.exit_code == 2
            assert out.stdout == ""
            assert f"Error: Invalid value: range {ranges[-1]!r} is too large" in out.stderr
            assert "points, more than 6" in out.stderr


class TestErrorHandling:
    def test_fiber_requires_exactly_one_of_n_r0(self):
        assert run_cli(["fiber", "--m", "0.5"]).exit_code == 2
        assert run_cli(["fiber", "--m", "0.5", "--n", "2", "--r0", "1"]).exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--r0", "1", "--range", "n=1:3:3"],
        ["--n", "2", "--range", "r0=1:3:3"],
    ])
    def test_fiber_sweep_of_the_option_not_given(self, args):
        # the swept option would be ignored, printing identical rows
        out = run_cli(["fiber", "--m", "0.5", *args])
        assert out.exit_code == 2
        assert out.stdout == ""
        assert "give exactly one of --n or --r0" in out.stderr

    def test_numerical_failure_exit_code(self):
        # forced truncation failure maps to exit code 1
        out = run_cli(["interfere", "--x", "0.9", "--d-max", "5"])
        assert out.exit_code == 1
        assert "numerical failure" in out.output

    # each overflowing command, with the command and row inputs its message names
    OVERFLOWS = {
        ("fiber", "--r0", "800", "--m", "0.5"): "fiber at gamma=1, m=0.5, r0=800",
        ("fiber", "--n", "1e308", "--m", "0.5"): "fiber at gamma=1, m=0.5, n=1e+308",
        ("discriminate", "--phases", "0,5e-324"): "discriminate at phases=0,5e-324",
        ("estimate", "--x", "0.5", "--nbar-t", "1e308", "--alpha", "1e308", "--trials", "10"):
            "estimate at x=0.5, nbar_t=1e+308, alpha=1e+308, trials=10",
        ("estimate", "--x", "0.5", "--nbar-t", "1e308", "--trials", "10"):
            "estimate at x=0.5, nbar_t=1e+308, alpha=1, trials=10",
        ("interfere", "--x", "0.5", "--phi", "1e308"):
            "interfere at x=0.5, phi=1e+308, q0=0.01, gamma_star=10",
        # a finite closed form past the float range, before any sum could overflow
        ("estimate", "--x", "0.5", "--nbar-t", "1e308", "--trials", "1"):
            "estimate at x=0.5, nbar_t=1e+308, alpha=1, trials=1",
        ("fiber", "--gamma", "1e-320", "--m", "0.5", "--n", "2"):
            "fiber at gamma=9.99988867183e-321, m=0.5, n=2",
        # a Gamma whose inverse overflows, with a log term too large for the time as well
        ("fiber", "--gamma", "1e-310", "--m", "0.5", "--n", "2"): "fiber at gamma=1e-310, m=0.5, n=2",
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [list(args) for args in OVERFLOWS])
    def test_float_overflow_is_a_numerical_failure(self, args):
        # run_cli lets an uncaught exception through, so a traceback fails
        # here, and so does a warning on the way to the message
        out = run_cli(args)
        assert out.exit_code == 1
        assert out.stdout == ""
        assert out.stderr.startswith(f"numerical failure: {self.OVERFLOWS[tuple(args)]}: ")
        assert out.stderr.count("\n") == 1
        assert "Traceback" not in out.output

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, kappa", [("1e200", "1"), ("1e308", "1e-300")])
    def test_crypto_errors_past_the_float_range(self, a, kappa):
        # the squared separation is inf, not an overflow, and every error is 0
        out = run_cli(["crypto", "errors", "--x", "0.5", "--a", a, "--kappa", kappa])
        assert out.exit_code == 0
        assert out.stderr == ""
        (row,) = parse_csv(out.stdout)
        for column in ("bob_ideal", "coherent", "bob_heterodyne", "eve_gaussian_key"):
            assert row[column] == "0"

    def test_discriminate_overflow_names_the_phases(self):
        # the rows depend on --phases, not on the unused --samples of the grid
        out = run_cli(["discriminate", "--phases", "0,5e-324"])
        assert out.exit_code == 1
        assert out.stdout == ""
        assert out.stderr == ("numerical failure: discriminate at phases=0,5e-324: "
                              "cannot convert float infinity to integer\n")

    def test_subnormal_gamma_with_a_finite_time(self):
        # 1/Gamma overflows at Gamma = 1e-310, but neither time does
        mpmath = pytest.importorskip("mpmath")
        out = run_cli(["fiber", "--gamma", "1e-310", "--m", "1e10", "--n", "1e-20",
                       "--format", "json"])
        assert out.exit_code == 0
        (row,) = json.loads(out.stdout)["rows"]
        with mpmath.workdps(50):
            n = mpmath.mpf(1e-20)
            exact = mpmath.log(1 - (n - mpmath.sqrt(n * (n + 2))) / 2e10) / 1e-310
            assert abs(row["t_s"] - exact) <= 1e-15 * exact
        assert row["t_s_large_N"] == pytest.approx(5e299, rel=1e-10)

    @pytest.mark.parametrize("args", [
        ["--x", "0.5", "--d-max", "100000"],
        ["--x", "0.9", "--d-max", "100000"],
        ["--x", "0.5", "--range", "d_max=1001:100000:2"],
    ])
    def test_d_max_past_the_limit_is_a_bad_argument(self, args):
        # refused before any sector is diagonalized: the sectors up to where
        # x^p underflows (p = 1,074 at x = 0.5, 7,060 at x = 0.9) would take
        # minutes to hours
        out = run_cli(["interfere", *args])
        assert out.exit_code == 2
        assert out.stdout == ""
        assert "\nError: Invalid value: d_max must be in [0, 1000], got " in out.stderr
        assert "Traceback" not in out.output

    def test_out_of_memory_is_a_numerical_failure(self, monkeypatch):
        # a MemoryError in a row, without allocating the 149 GiB it names
        def unable(x, d_max):
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr(fock_oracle, "twin_beam_fock", unable)
        out = run_cli(["interfere", "--x", "0.5", "--d-max", "100000"])
        assert out.exit_code == 1
        assert out.stdout == ""
        assert out.stderr == ("numerical failure: interfere at x=0.5, phi=0.1, q0=0.01, "
                              "gamma_star=10, d_max=100000: Unable to allocate 149. GiB\n")

    def test_discriminate_arc_far_below_an_ulp(self):
        out = run_cli(["discriminate", "--phases", "0,1e-300"])
        assert out.exit_code == 0
        (row,) = parse_csv(out.stdout)
        assert float(row["delta"]) == 1e-300
        assert int(row["copies_for_exact"]) == math.ceil(math.pi / 1e-300)

    @pytest.mark.parametrize("args", [
        ["estimate", "--x", "0.99999999", "--trials", "10"],
        ["estimate", "--x", "0.999999999", "--trials", "10"],
    ])
    def test_estimate_as_x_to_one(self, args):
        # the probes are held as EPR variances, which stay well conditioned
        out = run_cli(args)
        assert out.exit_code == 0
        (row,) = parse_csv(out.stdout)
        x = float(args[2])
        assert float(row["sigma2_sq"]) == pytest.approx((1 - x) / (1 + x), rel=1e-6)

    @pytest.mark.parametrize("args", [
        ["--n", "1e4"], ["--n", "1e6"], ["--n", "1e8"], ["--n", "1e9"], ["--n", "1e12"],
        ["--r0", "10"],
    ])
    def test_fiber_at_large_squeezing(self, args):
        # the PPT scan works on the EPR variances, which stay well conditioned
        out = run_cli(["fiber", "--m", "0.5", *args])
        assert out.exit_code == 0
        (row,) = parse_csv(out.stdout)
        assert abs(float(row["tau_diff"])) <= 1e-12

    @pytest.mark.parametrize("m", ["1e-17", "1e-300", "1e-310", "5e-324"])
    def test_fiber_at_tiny_m(self, m):
        # 2M + 1 rounds to 1 here; the scan cannot resolve Sigma_-^2 against
        # 1/4 at this M, so tau_diff is not asserted
        out = run_cli(["fiber", "--m", m, "--n", "2"])
        assert out.exit_code == 0
        (row,) = parse_csv(out.stdout)
        assert float(row["tau_s"]) == pytest.approx(float(row["t_s"]), rel=1e-12)
        assert float(row["t_s"]) < float(row["t_s_large_N"]) < 745.0

    @pytest.mark.parametrize("x", ["1e-5", repr(10 ** -2.5), "0.09999999999999945",
                                   repr(10 ** -0.2)])
    def test_interfere_at_a_truncation_boundary(self, x):
        # the tail x^{2(d_max+1)} is 1e-10 up to rounding at these x; the row
        # runs at the d_max that default_d_max picks, which the check accepts
        out = run_cli(["interfere", "--x", x, "--phi", "0.3"])
        assert out.exit_code == 0, out.output
        (row,) = parse_csv(out.stdout)
        assert 0.0 < float(row["p_zero_count"]) <= 1.0

    @pytest.mark.parametrize("args", [["--m", "1e308", "--n", "2"],
                                      ["--m", "1.7e308", "--r0", "1"]])
    def test_fiber_near_the_float_maximum_of_m(self, args):
        # 2M + 1 overflows here; the drift and tau_s are computed from M + 1/2,
        # and tau_s tends to 1 - e^{-2 r0} as M grows
        out = run_cli(["fiber", *args])
        assert out.exit_code == 0, out.output
        (row,) = parse_csv(out.stdout)
        limit = -math.expm1(-2.0 * float(row["r0"]))
        assert float(row["tau_s"]) == pytest.approx(limit, rel=1e-11)
        assert float(row["tau_s_scan"]) == pytest.approx(limit, rel=1e-11)

    def test_fiber_overflow_message_is_text(self):
        # N = 2 sinh^2(r0) overflows to inf, not to Python's errno tuple of a
        # float **; the row then fails on the EPR variances
        out = run_cli(["fiber", "--r0", "400", "--m", "0.9"])
        assert out.exit_code == 1
        assert out.stderr == ("numerical failure: fiber at gamma=1, m=0.9, r0=400: "
                              "math range error\n")

    def test_truncation_fails_before_any_evolution(self, monkeypatch):
        # x = 0.95 needs d_max 224 > the cap of 200: the tail check must come
        # before the row's own evolution, not after it
        calls = []
        monkeypatch.setattr(fock_oracle, "apply_jx_evolution",
                            lambda *args: calls.append(args))
        out = run_cli(["interfere", "--x", "0.95", "--phi", "0.3"])
        assert out.exit_code == 1
        assert out.output == ("numerical failure: interfere at x=0.95, phi=0.3, q0=0.01, "
                              "gamma_star=10: truncation tail 1.109e-09 above "
                              "1.0e-10; suggested d_max >= 224\n")
        assert calls == []

    def test_bad_phases(self):
        assert run_cli(["discriminate", "--phases", "a,b"]).exit_code == 2

    # every float option of every subcommand, with the arguments it needs
    FLOAT_OPTIONS = {
        ("estimate", "--trials", "10"): ["--x", "--nbar-t", "--alpha"],
        ("interfere",): ["--x", "--phi", "--q0", "--gamma-star"],
        ("crypto", "errors"): ["--x", "--a", "--kappa"],
        ("crypto", "simulate", "--bits", "10"): ["--x", "--a", "--kappa"],
        ("fiber",): ["--gamma", "--m", "--n", "--r0"],
    }
    REQUIRED = {"estimate": ["--x", "0.5"], "interfere": ["--x", "0.5"],
                "crypto": ["--x", "0.5"], "fiber": ["--m", "0.5", "--n", "2"]}

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, options in FLOAT_OPTIONS.items()
        for option in options
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_option(self, command, option, value):
        # the option comes last, so it overrides a required default above
        args = [*command, *self.REQUIRED[command[0]], f"{option}={value}"]
        out = run_cli(args)
        assert out.exit_code == 2
        assert out.stdout == ""
        name = option[2:].replace("-", "_")
        assert f"Error: Invalid value: {name} must be finite, got {value}" in out.stderr

    @pytest.mark.parametrize("args, message", [
        (["estimate", "--x", "0.5", "--range", "x=0:inf:3"], "x must be finite"),
        (["estimate", "--x", "0.5", "--range", "alpha=-1e308:1e308:3"],
         "alpha must be finite"),
        (["fiber", "--m", "0.5", "--range", "r0=nan:1:2"], "r0 must be finite"),
        (["discriminate", "--phases", "nan,1"], "--phases must be finite, got nan"),
        (["discriminate", "--phases", "0,-inf"], "--phases must be finite, got -inf"),
        # an infinite end, not the nan that linspace makes of it
        (["estimate", "--x", "0.5", "--range", "x=0:inf:3"], "x must be finite, got inf"),
        (["estimate", "--x", "0.5", "--range", "x=-inf:0:3"], "x must be finite, got -inf"),
    ])
    def test_non_finite_grid_point_or_phase(self, args, message):
        out = run_cli(args)
        assert out.exit_code == 2
        assert out.stdout == ""
        assert f"Error: Invalid value: {message}" in out.stderr

    @pytest.mark.parametrize("args, message", [
        (["fiber", "--m", "0.5", "--n", "0"], "N must be > 0"),
        (["fiber", "--m", "-1", "--n", "2"], "M must be >= 0"),
        (["estimate", "--x", "1.0"], "Schmidt parameter must be in [0, 1)"),
        (["estimate", "--x", "0.5", "--trials", "0"], "n_trials must be >= 1"),
        (["crypto", "errors", "--x", "0.7", "--kappa", "0"], "kappa_key must be > 0"),
        (["crypto", "simulate", "--x", "0.8", "--bits", "0"], "n_bits must be >= 1"),
        (["interfere", "--x", "0.5", "--q0", "0.5", "--gamma-star", "10"],
         "gamma_star * q0 = 5.0 > 1"),
        (["discriminate", "--phases", "0,1", "--samples", "0"],
         "n_samples must be >= 1"),
        (["interfere", "--x", "1.0"], "Schmidt parameter must be in [0, 1)"),
        (["interfere", "--x", "-0.5"], "Schmidt parameter must be in [0, 1)"),
    ])
    def test_domain_error_exit_code(self, args, message):
        # a library ValueError is a bad argument: exit 2 with one error line;
        # run_cli does not catch exceptions, so a traceback would fail the test
        out = run_cli(args)
        assert out.exit_code == 2
        assert f"Error: Invalid value: {message}" in out.output

    @pytest.mark.parametrize("args", [
        ["estimate", "--x", "0.5", "--range", "trials=100:200:2"],
        ["crypto", "simulate", "--x", "0.8", "--range", "bits=100:200:2"],
        ["discriminate", "--phases", "0,1", "--range", "samples=100:200:2"],
        ["interfere", "--x", "0.5", "--range", "d_max=20:30:2"],
    ])
    def test_integer_sweep(self, args):
        # run_cli does not catch exceptions: a float reaching an integer
        # argument would fail here with its TypeError
        out = run_cli(args + ["--format", "json"])
        assert out.exit_code == 0
        assert json.loads(out.output)["meta"]["n_rows"] == 2

    def test_integer_sweep_values_are_int(self):
        out = run_cli(["crypto", "simulate", "--x", "0.8", "--range", "bits=100:200:2",
                       "--format", "json"])
        bits = [row["bits"] for row in json.loads(out.output)["rows"]]
        assert bits == [100, 200]
        assert all(type(b) is int for b in bits)  # JSON 100, not 100.0

    def test_non_integral_sweep_of_integer_option(self):
        out = run_cli(["estimate", "--x", "0.5", "--range", "trials=100:101:3"])
        assert out.exit_code == 2
        assert "Error: Invalid value: trials takes integers, got 100.5" in out.output


class TestConsistencyColumns:
    def test_interfere_oracle_agreement(self):
        out = run_cli(["interfere", "--x", "0.5", "--phi", "0.3"])
        row = parse_csv(out.output)[0]
        assert abs(float(row["kappa_diff"])) < 1e-9

    # (x, phi, kappa_sq_oracle, p_zero_count) as printed before the Fock blocks
    # were split by swap symmetry; the split changes them by roundoff only
    PINNED_INTERFERE = [
        (0.5, 0.1, 0.9825898853837536, 0.9831183500714408),
        (0.5, 0.3, 0.8656080853916376, 0.8910060542668223),
        (0.8, 0.1, 0.8355103214592711, 0.8613247416063898),
        (0.8, 0.3, 0.36696165719809226, 0.5728620279610337),
        (0.9, 0.1, 0.5278384028334034, 0.6612405307939083),
        (0.9, 0.3, 0.11314617377985974, 0.3624534378676622),
    ]

    @pytest.mark.parametrize("x, phi, kappa_oracle, p_zero", PINNED_INTERFERE)
    def test_interfere_oracle_values_pinned(self, x, phi, kappa_oracle, p_zero):
        out = run_cli(["interfere", "--x", str(x), "--phi", str(phi), "--format", "json"])
        row = json.loads(out.output)["rows"][0]
        assert row["kappa_sq_oracle"] == pytest.approx(kappa_oracle, rel=0, abs=1e-14)
        assert row["p_zero_count"] == pytest.approx(p_zero, rel=0, abs=1e-14)

    @pytest.mark.parametrize("x", ["0.5", "0.9"])
    def test_interfere_oracle_agreement_at_a_huge_phase(self, x):
        # phi w reaches 2e10 here: the kept eigenvalues are exact even integers,
        # so phi does not magnify the eigensolver's roundoff in them
        out = run_cli(["interfere", "--x", x, "--phi", "1e8", "--format", "json"])
        assert out.exit_code == 0, out.output
        row = json.loads(out.output)["rows"][0]
        assert abs(row["kappa_diff"]) < 1e-10

    @pytest.mark.parametrize("x", ["0.5", "0.9", "0.94"])
    def test_interfere_oracle_agreement_over_generic_phases(self, x):
        # the phases are exp(i fl(phi k)), whose rounding grows with phi; a
        # round phi such as 1e8 makes phi k exact and hides it, so the grid's
        # points carry low-order bits.  The worst here reads about 1e-9
        out = run_cli(["interfere", "--x", x, "--phi", "1", "--format", "json",
                       "--range", "phi=10000.3:9999999.7:100"])
        assert out.exit_code == 0, out.output
        rows = json.loads(out.output)["rows"]
        assert len(rows) == 100
        assert max(abs(row["kappa_diff"]) for row in rows) < 1e-8

    def test_interfere_gamma_star_just_above_one(self):
        # the acceptance threshold q0 (gamma* - 1)^2 / (a + b)^2 is 2.5e-19 here,
        # where 1 + gamma* (1 - 2 q0) - 2 sqrt(...) cancelled to 0
        out = run_cli(["interfere", "--x", "0.5", "--phi", "0.3", "--gamma-star", "1.00000001"])
        assert out.exit_code == 0, out.output
        (row,) = parse_csv(out.stdout)
        assert float(row["phi_min_ideal"]) == pytest.approx(3.76889177499e-10, rel=1e-11)

    def test_crypto_errors_oracle_agreement(self):
        out = run_cli(["crypto", "errors", "--x", "0.5"])
        row = parse_csv(out.output)[0]
        assert abs(float(row["eve_diff"])) < 1e-8
        assert row["eve_uniform_key"] == "0.5"

    def test_crypto_errors_eve_oracle_to_the_last_bits(self):
        # the 1-D S+ rule agrees with erfc to about an ulp of 1, deep tail included
        out = run_cli(["crypto", "errors", "--x", "0.5", "--range", "x=0.1:0.9:2",
                       "--range", "a=0:6:7", "--range", "kappa=0.2:5:3"])
        assert out.exit_code == 0, out.output
        rows = parse_csv(out.stdout)
        assert len(rows) == 42
        for row in rows:
            assert abs(float(row["eve_diff"])) <= 1e-15, row
            assert float(row["eve_gaussian_key_oracle"]) >= 0.0, row

    def test_fiber_scan_agreement(self):
        out = run_cli(["fiber", "--m", "0.5", "--n", "2"])
        row = parse_csv(out.output)[0]
        assert abs(float(row["tau_diff"])) < 1e-8


class TestCommandLine:
    """The refusals, help pages and option syntax, with the bytes click printed."""

    @staticmethod
    def usage(path):
        group = path in ("", "crypto")
        command = " ".join(filter(None, ["cventlab", path]))
        return (f"Usage: {command} [OPTIONS]{' COMMAND [ARGS]...' if group else ''}\n"
                f"Try '{command} --help' for help.\n\n")

    # (args, the command whose usage heads stderr or None for none, the error)
    REFUSED = [
        (["fiber", "--m", "abc"], "fiber",
         "Invalid value for '--m': 'abc' is not a valid float."),
        (["estimate", "--trials", "1.5"], "estimate",
         "Invalid value for '--trials': '1.5' is not a valid integer."),
        (["fiber", "--m", "0.5", "--n", "2", "--format", "xml"], "fiber",
         "Invalid value for '--format': 'xml' is not one of 'csv', 'json'."),
        (["crypto", "simulate", "--a", "0.5"], "crypto simulate", "Missing option '--x'."),
        (["--bogus", "1"], "", "No such option '--bogus'."),
        (["nosuch"], "", "No such command 'nosuch'."),
        (["fiber", "--m"], None, "Option '--m' requires an argument."),
        (["fiber", "--m", "0.5", "--n", "2", "extra"], "fiber",
         "Got unexpected extra argument (extra)"),
        (["fiber", "--m", "0.5", "--n", "2", "a", "b"], "fiber",
         "Got unexpected extra arguments (a b)"),
        (["crypto", "nosuch"], "crypto", "No such command 'nosuch'."),
        (["fiber", "--help=1"], None, "Option '--help' does not take a value."),
        (["fiber", "-m", "0.5"], "fiber", "No such option '-m'."),
        (["estimate", "--trial", "5"], "estimate",
         "No such option '--trial'. Did you mean '--trials'?"),
        (["fiber", "--gama", "1", "--m", "0.5"], "fiber",
         "No such option '--gama'. (Did you mean one of: '--gamma', '--m'?)"),
        (["fibre"], "", "No such command 'fibre'. Did you mean 'fiber'?"),
        (["fiber", "--m", "0.5", "--n", "2", "--seed", "abc"], "fiber",
         "Invalid value for '--seed': 'abc' is not a valid integer range."),
        # options are converted in the order first given, then checked for presence
        (["fiber", "--seed", "-1", "--m", "abc"], "fiber",
         "Invalid value for '--seed': -1 is not in the range x>=0."),
        (["fiber", "--format", "xml"], "fiber",
         "Invalid value for '--format': 'xml' is not one of 'csv', 'json'."),
        (["fiber", "--", "--m", "0.5"], "fiber", "Missing option '--m'."),
        (["--"], "", "Missing command."),
    ]

    @pytest.mark.parametrize("args, path, error", REFUSED, ids=[" ".join(c[0]) for c in REFUSED])
    def test_refusal(self, args, path, error):
        out = run_cli(args)
        assert out.exit_code == 2
        assert out.stdout == ""
        assert out.stderr == ("" if path is None else self.usage(path)) + f"Error: {error}\n"

    @pytest.mark.parametrize("args", [["--bogus", "1"], ["fiber", "--m"], [""]])
    def test_refusal_in_process(self, args):
        # outside the console script a refusal is raised, not printed
        with pytest.raises(cli.UsageError) as refused:
            cli.main(args, standalone_mode=False)
        assert refused.value.exit_code == 2

    def test_version(self):
        out = run_cli(["--version"])
        assert (out.exit_code, out.stdout_bytes, out.stderr) == (
            0, b"cventlab, version 0.1.0\n", "")

    @pytest.mark.parametrize("group", [[], ["crypto"]])
    def test_bare_group_shows_its_help_on_stderr(self, group):
        out = run_cli(group)
        assert (out.exit_code, out.stdout) == (2, "")
        assert out.stderr == run_cli([*group, "--help"]).stdout

    @pytest.mark.parametrize("args", [
        ["fiber", "--gamma=1", "--m", "0.5", "--n=2"],
        ["fiber", "--n", "2", "--m", "3", "--gamma", "1", "--m", "0.5"],
        ["fiber", "--gamma", "1", "--m", "0.5", "--n", "2", "--"],
        ["--", "fiber", "--gamma", "1", "--m", "0.5", "--n", "2"],
    ])
    def test_option_syntax(self, args):
        # --opt=value, a repeated option (the last wins, in the declared column
        # order) and a closing --; the bytes of the fiber golden
        assert run_cli(args).stdout_bytes == (GOLDEN_DIR / "fiber.csv").read_bytes()

    def test_negative_value_after_its_option(self):
        out = run_cli(["interfere", "--phi", "0.9", "--x=0.5", "--phi", "-0.3"])
        assert out.stdout_bytes == (
            b"x,phi,N,kappa_sq,kappa_sq_oracle,kappa_diff,phi_min_ideal,p_zero_count,q_phi_mz\n"
            b"0.5,-0.3,0.666666666667,0.865608085369,0.865608085392,2.28776997346e-11,"
            b"0.169776161311,0.891006054267,0.108993945733\n")

    def test_help_before_any_conversion(self):
        # --help wins over a bad value, as click's eager option does
        out = run_cli(["fiber", "--m", "abc", "--help"])
        assert out.exit_code == 0
        assert out.stdout.startswith("Usage: cventlab fiber [OPTIONS]\n")

    ROOT_HELP = """\
Usage: cventlab [OPTIONS] COMMAND [ARGS]...

  Closed-form results of the toolkit, each next to its oracle value.

Options:
  --version  Show the version and exit.
  --help     Show this message and exit.

Commands:
  crypto        Twin-beam secret-key communication.
  discriminate  Minimum-error discrimination of two unitaries from their...
  estimate      Displacement estimation: twin-beam vs vacuum probe...
  fiber         Separability threshold of a twin-beam in noisy fibers.
  interfere     Phase detection: ideal NP scheme and Mach-Zehnder...
"""

    INTERFERE_HELP = """\
Usage: cventlab interfere [OPTIONS]

  Phase detection: ideal NP scheme and Mach-Zehnder zero-count scheme.

Options:
  --x FLOAT                     Twin-beam Schmidt parameter.  [required]
  --phi FLOAT                   Perturbation phase.  [default: 0.1]
  --q0 FLOAT                    False-alarm probability (ideal scheme).
                                [default: 0.01]
  --gamma-star FLOAT            Acceptance ratio (ideal scheme).  [default:
                                10.0]
  --d-max INTEGER               Fock truncation override.
  --range KEY=START:STOP:STEPS  Sweep a parameter over a linear grid; may be
                                repeated.
  --seed INTEGER RANGE          RNG seed (default 20020521; env CVENTLAB_SEED
                                overrides).  [x>=0]
  --output TEXT                 Output path, or - for stdout.  [default: -]
  --format [csv|json]           Output format.  [default: csv]
  --help                        Show this message and exit.
"""

    @pytest.mark.parametrize("args, page", [([], ROOT_HELP), (["interfere"], INTERFERE_HELP)])
    def test_help_page(self, args, page):
        out = run_cli([*args, "--help"])
        assert (out.exit_code, out.stdout, out.stderr) == (0, page, "")

    @pytest.mark.parametrize("path", sorted(cli._COMMANDS), ids=" ".join)
    def test_help_page_lists_every_option(self, path):
        page = run_cli([*path, "--help"]).stdout
        command = cli._COMMANDS[path]
        assert page.startswith(f"Usage: cventlab {' '.join(path)} [OPTIONS]\n\n"
                               f"  {command.row.__doc__}\n\nOptions:\n")
        text = " ".join(page.split())  # the help texts, unwrapped
        for option in command.params:
            assert f"  {option.flag} " in page
            assert " ".join(option.help.split()) in text
            if option.default is not None:
                assert f"[default: {option.default}]" in text

    def test_closed_stdout_exits_1_quietly(self):
        # as under `| head`: the reader is gone before the table is written
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        script = "import sys; from cventlab.cli import main; sys.exit(main(prog_name='cventlab'))"
        proc = subprocess.Popen([sys.executable, "-c", script, "fiber", "--m", "0.5", "--n", "2"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")

    def test_overflow_names_the_time_that_overflows(self):
        # t_s is about 1.4e300 here; only t_s_large_N = log 2 / Gamma overflows
        out = run_cli(["fiber", "--gamma", "1e-310", "--m", "0.5", "--n", "1e-20"])
        assert out.exit_code == 1
        assert out.stderr == ("numerical failure: fiber at gamma=1e-310, m=0.5, n=1e-20: "
                              "t_s_large_N = log(...)/Gamma is past the float range\n")

    def test_truncation_past_the_d_max_limit(self):
        # the suggested d_max would itself be refused, and the message says so
        out = run_cli(["interfere", "--x", "0.999", "--phi", "0.3"])
        assert out.exit_code == 1
        assert out.stderr.endswith("suggested d_max >= 11507, above the largest d_max "
                                   f"{fock_oracle.D_MAX_LIMIT}\n")


class TestGoldenFiles:
    """The README examples must reproduce the committed outputs byte-for-byte."""

    CASES = {
        "fiber.csv": ["fiber", "--gamma", "1", "--m", "0.5", "--n", "2"],
        "discriminate.csv": ["discriminate", "--phases", "0,1.5708",
                             "--samples", "20000"],
        "crypto_simulate.csv": ["crypto", "simulate", "--x", "0.8",
                                "--bits", "20000", "--seed", "7"],
        "estimate.json": ["estimate", "--x", "0.5", "--trials", "20000",
                          "--format", "json"],
        "estimate_sweep.csv": ["estimate", "--x", "0.9", "--nbar-t", "0.5",
                               "--range", "nbar_t=0:1.5:7"],
        "interfere.csv": ["interfere", "--x", "0.5", "--phi", "0.3", "--q0", "0.01",
                          "--gamma-star", "10"],
        "crypto_errors.csv": ["crypto", "errors", "--x", "0.7", "--a", "0.5",
                              "--kappa", "1.0"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden(self, name):
        out = run_cli(self.CASES[name])
        golden = (GOLDEN_DIR / name).read_bytes()
        assert out.stdout_bytes == golden


class TestRedirectedStreams:
    """In-process calls under redirected stdout/stderr must not keep the redirected streams alive."""

    @pytest.mark.parametrize("args, code", [
        (["crypto", "errors", "--x", "0.7", "--a", "0.5", "--kappa", "1.0"], 0),
        (["fiber", "--r0", "800", "--m", "0.5"], 1),  # message on stderr
    ])
    def test_no_stream_outlives_its_call(self, args, code):
        refs = []
        for _ in range(5):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.main(args, standalone_mode=False)
                    exit_code = 0
                except SystemExit as exc:
                    exit_code = exc.code
            assert exit_code == code
            assert (out if code == 0 else err).getvalue()
            refs += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
