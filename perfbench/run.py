"""cventlab benchmark: one closed-loop client over a seeded request stream.

    python3 perfbench/run.py --workload {cli-cold,oracle-sweep,mc-bulk} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a separate traced run.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the provenance and the failed checks.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import spans
import streams
from streams import ROOT, SRC, Request, call_request, cli_request

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
TRACECHILD = Path(__file__).resolve().parent / "tracechild.py"
SETUP_REPEATS = 3  # in process: one here, two in fresh processes
COLD_SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One client, one BLAS thread: on a small shared machine a second BLAS thread
# waits on whatever else runs there, which makes runs slower and unsteady.
# Values already set in the environment win.
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# -- executing one request -------------------------------------------------

def run_inprocess(request: Request):
    """Run ``request`` in this process; returns (exit code, output, seconds).

    The output is the CLI's stdout bytes, or the library call's return value.
    A request that raises counts as exit code 1; its traceback goes to stderr.
    """
    import click

    from cventlab import cli

    stdout, result, code, error = io.StringIO(), None, 0, None
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            if request.call is None:
                cli.main(list(request.args), standalone_mode=False)
            else:
                module, function, _ = request.call
                fn = getattr(importlib.import_module(f"cventlab.{module}"), function)
                result = fn(**request.kwargs)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # a failed request must not stop the run
            code, error = 1, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if error is not None:
        print(f"perfbench: request {request.kind} raised\n{error}", file=sys.stderr)
    output = stdout.getvalue().encode("utf-8") if request.call is None else result
    return code, output, elapsed


def run_child(request: Request, trace_path: Path | None = None):
    """Run ``request`` as a fresh ``cventlab`` process; returns (exit code, stdout, seconds)."""
    if trace_path is None:
        cmd = [sys.executable, "-c", streams.CONSOLE_SCRIPT, *request.args]
    else:
        cmd = [sys.executable, str(TRACECHILD), str(trace_path), *request.args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=streams.child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, time.perf_counter() - start


# -- set-up ------------------------------------------------------------------

def import_program():
    """Import ``cventlab.cli``, refusing a copy from outside this checkout."""
    cli = importlib.import_module("cventlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported cventlab from {cli.__file__}, not from {SRC}")
    return cli


def setup_inprocess(workload: str) -> float:
    """Import ``cventlab.cli`` and run one untimed request of each kind."""
    start = time.perf_counter()
    import_program()
    for request in streams.warmup(workload):
        code, _, _ = run_inprocess(request)
        if code != 0:
            raise RuntimeError(f"warm-up request {request.kind} exited {code}")
    return time.perf_counter() - start


def setup_in_children(workload: str, repeats: int) -> list[float]:
    """The in-process set-up, repeated in fresh processes of this script."""
    cmd = [sys.executable, __file__, "--workload", workload, "--setup-only"]
    out = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        out.append(float(proc.stdout.split()[-1]))
    return out


def setup_cold(repeats: int) -> list[float]:
    """Untimed ``cventlab --version`` calls; the first fills the .pyc cache."""
    times = []
    for _ in range(repeats):
        code, _, seconds = run_child(cli_request("version", "--version"))
        if code != 0:
            raise RuntimeError(f"cventlab --version exited {code}")
        times.append(seconds)
    return times


# -- the closed loop -----------------------------------------------------------

class Loop:
    """Closed loop over whole blocks of the stream; checks each block after it ran."""

    def __init__(self, workload: str, seed: int, checker, execute):
        self.workload, self.seed = workload, seed
        self.checker, self.execute = checker, execute
        self.latencies = {False: [], True: []}  # keyed by "traced"
        self.block_seconds = {False: [], True: []}  # request time of each block
        self.attempted = 0
        self.failures: Counter = Counter()
        self.incorrect = 0  # failures other than a byte-exact golden mismatch
        self.reasons: dict[str, str] = {}
        self.rows: list[tuple[Request, int]] = []  # rows of CLI outputs in traced blocks

    def run(self, seconds: float, alternate: bool) -> None:
        """Run blocks until ``seconds`` of request time; ``alternate`` traces every other one."""
        for i, block in enumerate(streams.blocks(self.workload, self.seed)):
            traced = alternate and i % 2 == 1
            done = [(req, *self.execute(req, traced)) for req in block]
            for req, code, output, seconds_ in done:
                self.attempted += 1
                self.latencies[traced].append(seconds_)
                reason = self.checker.check(req, code, output)
                if reason is not None:
                    self.failures[req.kind] += 1
                    self.incorrect += not reason.startswith(checks.GOLDEN_MISMATCH)
                    self.reasons.setdefault(req.kind, reason)
                elif traced and req.call is None:
                    self.rows.append((req, len(self.checker.rows(req, output))))
            self.block_seconds[traced].append(sum(s for *_, s in done))
            busy = sum(map(sum, self.block_seconds.values()))
            if busy >= seconds and (not alternate or self.block_seconds[True]):
                return

    def throughput(self, traced: bool = False) -> float:
        """Requests per second of request time: block size over the median block time."""
        per_block = len(self.latencies[traced]) / len(self.block_seconds[traced])
        return per_block / statistics.median(self.block_seconds[traced])


def hd_quantile(values: list[float], p: float, grid: int = 20000) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted mean of order stats.

    It uses every sample, so a run's 90th percentile does not hinge on the
    few values beyond it.  The weight of the i-th smallest value is the mass
    of Beta((n+1)p, (n+1)(1-p)) on [i/n, (i+1)/n], integrated with the
    midpoint rule on about ``grid`` points.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)  # keeps exp in range
    per_bin = max(1, grid // n)
    weights = []
    for i in range(n):
        ts = ((i * per_bin + k + 0.5) / (n * per_bin) for k in range(per_bin))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# -- per-layer metrics -----------------------------------------------------------

def _tagged(key: str, tag: str) -> str:
    """Name of the sweep metric of span total ``key`` at point ``tag``.

    ``a.b.self_ms`` -> ``a.b.<tag>.self_ms``; ``a.b`` -> ``a.b.<tag>``.
    """
    if key in _SWEEP_NAMES:
        return _SWEEP_NAMES[key].format(tag=tag)
    if key.endswith(".self_ms"):
        return f"{key[:-len('.self_ms')]}.{tag}.self_ms"
    return f"{key}.{tag}"


def layer_metrics(traces, rows, n_blocks: int) -> dict[str, float]:
    """Per-block totals of the traced requests, and the ratios between layers."""
    total = spans.summarize(traces)
    out = {k: v / n_blocks for k, v in total.items()}
    out["cli.self_ms"] = out.get("cli.main.self_ms", 0.0)
    out["cli.rows"] = sum(n for _, n in rows) / n_blocks
    interfere_rows = sum(n for req, n in rows if req.args[:1] == ("interfere",))
    interfere_evolutions = sum(
        1 for t in traces if t.kind.startswith("interfere")
        for s in t.spans if s.name == "fock_oracle.apply_jx_evolution")
    out["fock_oracle.evolutions_per_interfere_row"] = (
        interfere_evolutions / interfere_rows if interfere_rows else 0.0)
    for metric, name, ancestor in (
        ("interferometry.mz_min_phase_numeric.evals_per_solve",
         "interferometry.mz_zero_count_probability", "interferometry.mz_min_phase_numeric"),
        ("fiber.ppt_calls_per_scan", "gaussian_core.ppt_separable",
         "fiber.scan_separability"),
    ):
        calls = total.get(f"{ancestor}.calls", 0)
        out[metric] = spans.count_under(traces, name, ancestor) / calls if calls else 0.0
    return out


# Scaling sweep of the traced run: (tag, request, span metrics reported per point).
_INTERFERE = ("fock_oracle.apply_jx_evolution.self_ms", "fock_oracle.block_work",
              "fock_oracle.d_max_capped", "interferometry.mz_zero_count_probability.self_ms")
_GRID = ("cli.main.self_ms", "estimation.simulate_estimation.self_ms",
         "gaussian_core.sample_heterodyne.self_ms")
_SCAN = ("fiber.scan_separability.self_ms", "gaussian_core.ppt_separable.self_ms",
         "gaussian_core.ppt_separable.calls")
# one request per point, so these totals are also the per-call figures
_SWEEP_NAMES = {"cli.main.self_ms": "cli.{tag}.self_ms",
                "gaussian_core.ppt_separable.calls": "fiber.ppt_calls_per_scan.{tag}"}
SWEEP = (
    [(f"x{x}", cli_request("sweep", "interfere", "--x", x, "--phi", "0.3"), _INTERFERE)
     for x in ("0.5", "0.7", "0.8", "0.9", "0.95")]
    + [(f"n{n}", req, keys) for n, m in (("1e4", 10**4), ("1e5", 10**5), ("1e6", 10**6))
       for req, keys in (
           (cli_request("sweep", "estimate", "--x", "0.5", "--trials", str(m)),
            ("estimation.simulate_estimation.self_ms",
             "gaussian_core.sample_heterodyne.self_ms")),
           (cli_request("sweep", "crypto", "simulate", "--x", "0.8", "--bits", str(m)),
            ("crypto.simulate_binary_protocol.self_ms",)),
           (call_request("sweep", "fiber", "simulate_ou_variances", r0=0.8, M=0.5,
                         tau=1.0, n_samples=m, seed=1),
            ("fiber.simulate_ou_variances.self_ms",)))]
    + [(f"steps{s}", call_request("sweep", "fiber", "scan_separability",
                                  r0=0.881373587019543, M=0.5, tau_max=3.4138244104,
                                  steps=s), _SCAN)
       for s in (64, 256, 1024)]
    + [(f"grid{g}", cli_request("sweep", "estimate", "--x", "0.9", "--nbar-t", "0.5",
                                "--range", f"nbar_t=0:1.5:{g}"), _GRID)
       for g in (1, 8, 64)]
)
SWEEP_POINT_S = 0.3  # repeat a point (up to 5 times) until this much time has passed


def sweep_metrics() -> dict[str, float]:
    """Per-layer self time at each point of the scaling sweep (median of repeats)."""
    import_program()
    out: dict[str, float] = {}
    with spans.Tracer() as tracer:
        for tag, request, keys in SWEEP:
            runs = []
            while len(runs) < 5 and sum(t.wall for t in runs) < SWEEP_POINT_S:
                with tracer.request(request.kind) as trace:
                    run_inprocess(request)
                runs.append(trace)
            totals = [spans.summarize([t]) for t in runs]
            for key in keys:
                out[_tagged(key, tag)] = statistics.median(t.get(key, 0.0) for t in totals)
    return out


def _import_costs(stderr: str) -> dict[str, float]:
    """Cumulative ms of ``cventlab.cli`` and of the outermost import of each package."""
    entries = []  # (depth, top-level package, cumulative us), in the order printed
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or not fields[0].strip().isdigit():
            continue  # header or foreign line
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(fields[1])))
    out = Counter()
    enclosing: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # parents come before children
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        package = name.split(".")[0]
        if package not in {p for _, p in enclosing}:
            out[package] += cumulative
        if depth == 1 and name == "cventlab.cli":
            out["cventlab.cli"] = cumulative
        enclosing.append((depth, package))
    return {"cli.import_ms": out["cventlab.cli"] / 1e3,
            **{f"cli.import.{p}_ms": out[p] / 1e3 for p in ("scipy", "numpy", "click")}}


def import_breakdown(repeats: int) -> dict[str, float]:
    """``python -X importtime -c 'import cventlab.cli'``: median over fresh processes."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cventlab.cli"],
                              cwd=ROOT, env=streams.child_env(), capture_output=True,
                              text=True, check=True, timeout=CHILD_TIMEOUT_S)
        samples.append(_import_costs(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- provenance ----------------------------------------------------------------

def _git_commit() -> str | None:
    if shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "cventlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_probe_ms() -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs right now."""
    start = time.perf_counter()
    total = 0
    for k in range(1_000_000):
        total += k
    return (time.perf_counter() - start) * 1e3


def provenance(workload: str, seed: int, load_at_start, probe_ms) -> dict:
    from importlib.metadata import version

    info = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "click", "jsonschema")},
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_at_start,
        "cpu_probe_ms": probe_ms,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
    if "numpy" in sys.modules:
        blas = sys.modules["numpy"].show_config(mode="dicts").get(
            "Build Dependencies", {}).get("blas", {})
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


# -- the two kinds of run --------------------------------------------------------

def _executor(workload: str, tracer, tmpdir: Path):
    """``execute(request, traced)`` for ``workload``; traced requests record spans."""
    if workload == "cli-cold":
        def execute(request, traced):
            if not traced:
                return run_child(request)
            path = tmpdir / "trace.json"
            path.unlink(missing_ok=True)
            result = run_child(request, path)
            if path.exists():  # absent when the child died before writing it
                for data in json.loads(path.read_text(encoding="utf-8")):
                    data["kind"] = request.kind
                    tracer.requests.append(spans.RequestTrace.from_json(data))
            return result
        return execute

    def execute(request, traced):
        if not traced:
            return run_inprocess(request)
        tracer.install()
        try:
            with tracer.request(request.kind):
                return run_inprocess(request)
        finally:
            tracer.uninstall()
    return execute


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_at_start = os.getloadavg()
    probe_start = cpu_probe_ms()
    if workload == "cli-cold":
        setups = [] if trace else setup_cold(COLD_SETUP_REPEATS)
        if trace:
            setup_cold(1)
    else:
        setups = [setup_inprocess(workload)]
        if not trace:
            setups += setup_in_children(workload, SETUP_REPEATS - 1)

    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        loop = Loop(workload, seed, checks.Checker(), _executor(workload, tracer, Path(tmp)))
        loop.run(seconds, alternate=trace)

    if trace:
        metrics = layer_metrics(tracer.requests, loop.rows, len(loop.block_seconds[True]))
        metrics["trace.overhead_pct"] = (
            loop.throughput(False) / loop.throughput(True) - 1.0) * 100.0
        metrics.update(sweep_metrics())
        metrics.update(import_breakdown(IMPORT_REPEATS))
    else:
        lat_ms = [s * 1e3 for s in loop.latencies[False]]
        usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": hd_quantile(lat_ms, 0.5),
            "latency_p90_ms": hd_quantile(lat_ms, 0.9),
            "throughput_rps": loop.throughput(False),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss * 1024 / 1e6,
            "ok_ratio": 1.0 - sum(loop.failures.values()) / loop.attempted,
        }
    failed = sum(loop.failures.values())
    return {
        "metrics": metrics,
        "correct": loop.incorrect == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "report": {
            "provenance": provenance(workload, seed, load_at_start,
                                     {"start": probe_start, "end": cpu_probe_ms()}),
            "blocks": {"untraced": len(loop.block_seconds[False]),
                       "traced": len(loop.block_seconds[True])},
            "requests": {"untraced": len(loop.latencies[False]),
                         "traced": len(loop.latencies[True])},
            "failed_checks": {kind: {"count": n, "reason": loop.reasons[kind]}
                              for kind, n in loop.failures.items()},
        },
    }


# -- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    needed = (SRC / "cventlab" / "cli.py", streams.GOLDEN_DIR, streams.SCHEMA_PATH,
              BENCHMARK_JSON)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a cventlab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    streams.use_checkout_source()
    for var in PINNED_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.setup_only:
        print(setup_inprocess(args.workload))
        return 0

    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {m["name"]: {"value": float(result["metrics"].get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name:60s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result["report"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
