"""Tests of the benchmark itself: tracer, output checks and request streams."""

import math
import sys

import pytest

import checks
import spans
import streams
import json

from run import SWEEP, _import_costs, _tagged, hd_quantile, layer_metrics, run_inprocess
from streams import call_request, cli_request

if str(streams.SRC) not in sys.path:
    sys.path.insert(0, str(streams.SRC))

from cventlab import cli, fiber, fock_oracle, gaussian_core, interferometry  # noqa: E402

REQUESTS = [
    cli_request("fiber", *streams.GOLDEN_ARGS["fiber.csv"]),
    cli_request("interfere", "interfere", "--x", "0.6", "--phi", "0.4", "--format", "json"),
    cli_request("estimate", "estimate", "--x", "0.5", "--trials", "5000", "--range",
                "nbar_t=0:1:3"),
    cli_request("discriminate", "discriminate", "--phases", "0,1,2.5", "--samples", "2000"),
    cli_request("crypto-simulate", "crypto", "simulate", "--x", "0.9", "--bits", "5000"),
]


@pytest.fixture(scope="module")
def checker():
    return checks.Checker()


def _traced(tracer, request):
    tracer.install()
    try:
        with tracer.request(request.kind):
            return run_inprocess(request)
    finally:
        tracer.uninstall()


def test_traced_stdout_identical_and_wrappers_removed():
    before = {m: dict(vars(m)) for m in (cli, fiber, fock_oracle, gaussian_core,
                                         interferometry)}
    tracer = spans.Tracer()
    for request in REQUESTS:
        plain = run_inprocess(request)
        traced = _traced(tracer, request)
        assert plain[0] == traced[0] == 0
        assert plain[1] == traced[1] and plain[1]
    assert len(tracer.requests) == len(REQUESTS)
    for module, namespace in before.items():
        for name, value in namespace.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name} not restored"


def test_wrappers_capture_calls_across_modules():
    tracer = spans.Tracer()
    _traced(tracer, cli_request("fiber", *streams.GOLDEN_ARGS["fiber.csv"]))
    _traced(tracer, call_request("mz", "interferometry", "mz_min_phase_numeric",
                                 target_q_phi=0.01, x=0.3))
    fiber_req, mz_req = tracer.requests
    assert spans.count_under([fiber_req], "gaussian_core.ppt_separable",
                             "fiber.scan_separability") > 100
    assert spans.count_under([mz_req], "fock_oracle.apply_jx_evolution",
                             "interferometry.mz_zero_count_probability") > 10


def test_self_times_sum_to_request_wall_time():
    tracer = spans.Tracer()
    for request in REQUESTS:
        _, _, seconds = _traced(tracer, request)
        trace = tracer.requests[-1]
        assert len(trace.spans) > 2
        assert math.isclose(sum(trace.self_times()), trace.wall, rel_tol=1e-9)
        assert all(t >= 0 for t in trace.self_times())
        # the root span encloses the request as the loop timed it
        assert seconds <= trace.wall < seconds + 0.05
    summary = spans.summarize(tracer.requests)
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_ms"))
    assert math.isclose(total_self, sum(t.wall for t in tracer.requests) * 1e3,
                        rel_tol=1e-9)


def test_quantities_recorded():
    tracer = spans.Tracer()
    _traced(tracer, cli_request("estimate", "estimate", "--x", "0.5", "--trials", "3000"))
    _traced(tracer, cli_request("interfere", "interfere", "--x", "0.5"))
    summary = spans.summarize(tracer.requests)
    assert summary["estimation.simulate_estimation.trials"] == 3000
    assert summary["gaussian_core.sample_heterodyne.samples"] == 6000
    d = fock_oracle.default_d_max(0.5)
    assert summary["fock_oracle.block_work"] == 2 * sum((2 * p + 1) ** 3
                                                        for p in range(d + 1))
    assert summary["fock_oracle.d_max_capped"] == 0


def test_checker_accepts_good_outputs(checker):
    default_trials = cli_request("estimate", "estimate", "--x", "0.9", "--nbar-t", "0.5")
    for request in REQUESTS + [default_trials]:
        code, out, _ = run_inprocess(request)
        assert checker.check(request, code, out) is None, request
    request = call_request("ou", "fiber", "simulate_ou_variances", r0=0.8, M=0.5,
                           tau=1.0, n_samples=20000, seed=3)
    code, out, _ = run_inprocess(request)
    assert checker.check(request, code, out) is None


def test_checker_rejects_corrupted_row_and_nonzero_exit(checker):
    request = cli_request("interfere", "interfere", "--x", "0.5", "--phi", "0.3")
    code, out, _ = run_inprocess(request)
    assert checker.check(request, code, out) is None
    header, row = out.decode().splitlines()
    values = row.split(",")
    values[header.split(",").index("kappa_diff")] = "1e-3"
    corrupted = f"{header}\n{','.join(values)}\n".encode()
    assert "kappa_diff" in checker.check(request, 0, corrupted)
    assert checker.check(request, 1, out) == "exit code 1"

    golden = cli_request("fiber.csv", *streams.GOLDEN_ARGS["fiber.csv"], golden="fiber.csv")
    code, out, _ = run_inprocess(golden)
    assert checker.check(golden, code, out) is None
    assert checker.check(golden, code, out.replace(b"0.5", b"0.6")).startswith(
        "golden mismatch")

    bad_json = cli_request("fiber", "fiber", "--m", "0.5", "--n", "2", "--format", "json")
    assert checker.check(bad_json, 0, b'{"rows": []}').startswith("unreadable output")

    ou = call_request("ou", "fiber", "simulate_ou_variances", r0=0.8, M=0.5, tau=1.0,
                      n_samples=20000, seed=3)
    good = fiber.simulate_ou_variances(0.8, 0.5, 1.0, 20000, 3)
    off = fiber.OUSimulation(good.Sigma_plus_sq * 1.2, good.Sigma_minus_sq, 20000)
    assert checker.check(ou, 0, off).startswith("OU variance")


def test_exit_codes_of_inprocess_requests():
    code, out, _ = run_inprocess(cli_request("x", "interfere", "--x", "0.5", "--d-max", "2"))
    assert code == 1 and out == b""
    code, _, _ = run_inprocess(cli_request("x", "discriminate", "--phases", "a,b"))
    assert code == 2


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_stream_is_a_pure_function_of_the_seed(workload):
    def take(seed, n=3):
        gen = streams.blocks(workload, seed)
        return [next(gen) for _ in range(n)]

    assert take(11) == take(11)
    assert take(11) != take(12)
    kinds = [sorted(r.kind for r in block) for block in take(5)]
    assert all(k == kinds[0] for k in kinds)  # every block holds the same kinds
    assert streams.warmup(workload) == streams.warmup(workload)
    assert {r.kind for r in streams.warmup(workload)} == set(kinds[0])


def test_import_costs_parse_nesting():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |       numpy.linalg",
        "import time:        20 |         50 |     scipy",
        "import time:        10 |        210 |   cventlab",
        "import time:         5 |        300 | cventlab.cli",
    ])
    costs = _import_costs(stderr)
    assert costs == {"cli.import_ms": 0.3, "cli.import.scipy_ms": 0.05,
                     "cli.import.numpy_ms": 0.18, "cli.import.click_ms": 0.0}


def test_every_declared_per_layer_metric_is_produced():
    """A metric named in BENCHMARK.json but never computed would read 0 forever."""
    tracer = spans.Tracer()
    requests = REQUESTS + [
        cli_request("interfere", "interfere", "--x", "0.5"),
        cli_request("crypto-errors", "crypto", "errors", "--x", "0.7"),
        call_request("mz", "interferometry", "mz_min_phase_numeric", target_q_phi=0.01,
                     x=0.3),
        call_request("ou", "fiber", "simulate_ou_variances", r0=0.8, M=0.5, tau=1.0,
                     n_samples=1000, seed=1),
        call_request("demo", "crypto", "uniform_key_eigenvalue_demo", x=0.3, a=0.5,
                     radii=(1.0, 2.0), d_max=4),
    ]
    rows = []
    for request in requests:
        code, out, _ = _traced(tracer, request)
        assert code == 0
        if request.call is None:
            rows.append((request, 1))
    produced = set(layer_metrics(tracer.requests, rows, 1))
    produced |= {_tagged(key, tag) for tag, _, keys in SWEEP for key in keys}
    produced |= set(_import_costs("")) | {"trace.overhead_pct"}
    spec = json.loads((streams.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared <= produced, sorted(declared - produced)


def test_hd_quantile():
    assert hd_quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    values = [float(v) for v in range(101)]
    assert hd_quantile(values, 0.5) == pytest.approx(50.0, abs=1e-6)
    assert 88.0 < hd_quantile(values, 0.9) < 92.0
