"""Request streams of the benchmark workloads.

A stream is a sequence of blocks.  Every block of a workload holds the same
multiset of request kinds, shuffled and parameterised from one
``random.Random(seed)``, so the stream is a pure function of the workload
seed and whole blocks are comparable across runs.  The program only ever
sees the generated CLI arguments or library-call arguments.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
SCHEMA_PATH = SRC / "cventlab" / "schemas" / "cli_output.schema.json"

# What the ``cventlab`` console script runs (pyproject: cventlab.cli:main).
CONSOLE_SCRIPT = ("import sys; from cventlab.cli import main; "
                  "sys.exit(main(prog_name='cventlab'))")

WORKLOADS = ("cli-cold", "oracle-sweep", "mc-bulk")

# The README's documented examples, reproduced byte for byte from tests/golden/.
GOLDEN_ARGS = {
    "fiber.csv": ("fiber", "--gamma", "1", "--m", "0.5", "--n", "2"),
    "discriminate.csv": ("discriminate", "--phases", "0,1.5708", "--samples", "20000"),
    "crypto_simulate.csv": ("crypto", "simulate", "--x", "0.8", "--bits", "20000",
                            "--seed", "7"),
    "estimate.json": ("estimate", "--x", "0.5", "--trials", "20000", "--format", "json"),
}


@dataclass(frozen=True)
class Request:
    """One request: CLI arguments, or a library call ``module.function(**kwargs)``."""

    kind: str
    args: tuple[str, ...] = ()
    call: tuple[str, str, tuple[tuple[str, object], ...]] | None = None
    golden: str | None = None

    @property
    def kwargs(self) -> dict:
        return dict(self.call[2])


def cli_request(kind: str, *args: str, golden: str | None = None) -> Request:
    return Request(kind=kind, args=tuple(args), golden=golden)


def call_request(kind: str, module: str, function: str, **kwargs) -> Request:
    return Request(kind=kind, call=(module, function, tuple(sorted(kwargs.items()))))


def _num(value: float) -> str:
    return repr(round(value, 6))


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _fmt(rng: random.Random) -> tuple[str, str]:
    return ("--format", rng.choice(("csv", "json")))


def _cli_cold_block(rng: random.Random) -> list[Request]:
    block = [cli_request(name, *args, golden=name) for name, args in GOLDEN_ARGS.items()]
    block += [
        cli_request("estimate-range", "estimate", "--x", "0.9", "--nbar-t", "0.5",
                    "--range", "nbar_t=0:1.5:7", "--seed", _seed(rng)),
        cli_request("interfere", "interfere", "--x", "0.5", "--phi", "0.3", "--q0",
                    "0.01", "--gamma-star", "10", "--seed", _seed(rng)),
        cli_request("crypto-errors", "crypto", "errors", "--x", "0.7", "--a", "0.5",
                    "--kappa", "1.0", "--seed", _seed(rng)),
    ]
    return block


# Cost-setting parameters of oracle-sweep, one entry per group of a block:
# every block then costs the same, and the seed only jitters the values by
# 1% (so no two requests repeat) and draws the cost-free ones.
FIBER_M = (0.25, 0.5, 1.0)
CRYPTO_A_KAPPA = (((0.5, 1.0), (0.3, 0.5), (1.0, 2.0)),
                  ((1.5, 1.0), (0.8, 3.0), (2.0, 2.5)),
                  ((0.2, 0.3), (1.2, 0.8), (0.6, 1.5)))
SPECTRA = {k: [tuple(random.Random(f"spectrum:{k}:{g}").uniform(0.0, 6.283)
                     for _ in range(k)) for g in range(3)] for k in (2, 4, 8)}


def _jitter(rng: random.Random, value: float) -> str:
    return _num(value * rng.uniform(0.99, 1.01))


def _oracle_group(rng: random.Random, g: int) -> list[Request]:
    group = []
    # x = 0.9 twice, so that the 90th percentile falls among its requests
    for x in ("0.5", "0.8", "0.9", "0.9"):
        group.append(cli_request(f"interfere.x{x}", "interfere", "--x", x, "--phi",
                                 _num(rng.uniform(0.05, 1.2)), "--seed", _seed(rng),
                                 *_fmt(rng)))
    for n in ("2", "1e4", "1e6"):
        group.append(cli_request(f"fiber.n{n}", "fiber", "--gamma", "1", "--m",
                                 _jitter(rng, FIBER_M[g]), "--n", n,
                                 "--seed", _seed(rng), *_fmt(rng)))
    for k, spectra in SPECTRA.items():
        phases = ",".join(_num(p + rng.uniform(-0.01, 0.01)) for p in spectra[g])
        group.append(cli_request(f"discriminate.k{k}", "discriminate", "--phases",
                                 phases, "--seed", _seed(rng), *_fmt(rng)))
    for a, kappa in CRYPTO_A_KAPPA[g]:
        group.append(cli_request("crypto-errors", "crypto", "errors",
                                 "--x", _num(rng.uniform(0.1, 0.95)),
                                 "--a", _jitter(rng, a), "--kappa", _jitter(rng, kappa),
                                 "--seed", _seed(rng), *_fmt(rng)))
    group.append(call_request("mz_min_phase_numeric", "interferometry",
                              "mz_min_phase_numeric", target_q_phi=0.01, x=0.6))
    return group


def _oracle_sweep_block(rng: random.Random) -> list[Request]:
    # three groups of the cheap oracles per one uniform-key demo (1-2 s, the
    # costliest request), so the demo weighs on throughput without dominating
    # the request count
    block = [req for g in range(3) for req in _oracle_group(rng, g)]
    block.append(call_request("uniform_key_demo", "crypto",
                              "uniform_key_eigenvalue_demo", x=0.3, a=0.5))
    return block


def _mc_bulk_block(rng: random.Random) -> list[Request]:
    return [
        cli_request("estimate.1e6", "estimate", "--x", _num(rng.uniform(0.3, 0.9)),
                    "--nbar-t", _num(rng.uniform(0.0, 1.0)), "--trials", "1000000",
                    "--seed", _seed(rng), *_fmt(rng)),
        cli_request("crypto-simulate.1e6", "crypto", "simulate",
                    "--x", _num(rng.uniform(0.5, 0.95)), "--bits", "1000000",
                    "--seed", _seed(rng), *_fmt(rng)),
        call_request("ou.1e6", "fiber", "simulate_ou_variances",
                     r0=round(rng.uniform(0.2, 1.5), 6), M=round(rng.uniform(0.1, 2.0), 6),
                     tau=round(rng.uniform(0.1, 2.0), 6), n_samples=10**6,
                     seed=rng.randrange(2**31)),
    ]


_BLOCKS = {
    "cli-cold": _cli_cold_block,
    "oracle-sweep": _oracle_sweep_block,
    "mc-bulk": _mc_bulk_block,
}


def blocks(workload: str, seed: int):
    """Endless stream of shuffled blocks of ``workload``, fixed by ``seed``."""
    make = _BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        block = make(rng)
        rng.shuffle(block)
        yield block


def warmup(workload: str) -> list[Request]:
    """One request of each kind of ``workload``, independent of the seed."""
    seen = {}
    for request in next(blocks(workload, 0)):
        seen.setdefault(request.kind, request)
    return list(seen.values())


# The seed comes from the stream; bytecode is cached as in an installed package.
_DROPPED_ENV = ("CVENTLAB_SEED", "PYTHONDONTWRITEBYTECODE")


def child_env() -> dict:
    """Environment of a fresh cventlab process: this checkout's source, no seed override."""
    env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def use_checkout_source() -> None:
    """Import cventlab from this checkout's ``src``, never from an installed copy."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for var in _DROPPED_ENV:
        os.environ.pop(var, None)
    sys.dont_write_bytecode = False
