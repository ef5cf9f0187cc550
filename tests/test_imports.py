"""Import budget: no command loads click, scipy or dataclasses; the cold path loads no numpy.

scipy is a test-only dependency, and click is one only for the benchmark
harness.  Every CLI call is a fresh process, and importing scipy costs more
than the rest of the package together.  numpy about doubles the time of a
run that does not use it, so ``import cventlab``, ``--version``, every help
page, a refused argument, and the scalar-math commands ``fiber`` (with or
without ``--range``), ``discriminate`` and ``crypto errors`` load none of it;
the other commands load it inside their rows.  The results are NamedTuples,
so no command loads ``dataclasses`` (with ``inspect``, about 10 ms of a fresh
process).  ``json`` and ``csv`` are loaded only to write a table, so
``--version``, help pages and refusals load neither.  Each check runs in a
fresh interpreter so the modules loaded by other tests do not leak in.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# json is imported after the modules are listed, so the probe does not load it
PROBE = """
import sys
{body}
loaded = sorted(m for m in sys.modules
                if any(m == p or m.startswith(p + ".") for p in {packages!r}))
import json
print("\\nMODULES=" + json.dumps(loaded))
"""

RUN_CLI = """
from cventlab import cli
code = cli.main({args!r}, standalone_mode=False)
assert code in (None, 0), code
"""

# a bad argument exits 2 with a usage error, as on the command line
RUN_CLI_REFUSED = """
from cventlab import cli
try:
    cli.main({args!r}, standalone_mode=False)
except cli.UsageError as exc:
    assert exc.exit_code == 2, exc.exit_code
else:
    raise AssertionError("not refused")
"""

FIBER_GOLDEN = ["fiber", "--gamma", "1", "--m", "0.5", "--n", "2"]
DISCRIMINATE_GOLDEN = ["discriminate", "--phases", "0,1.5708", "--samples", "20000"]
CRYPTO_ERRORS = ["crypto", "errors", "--x", "0.7", "--a", "0.5", "--kappa", "1.0"]

SCIPY_FREE_COMMANDS = [
    ["--version"],
    FIBER_GOLDEN,
    ["crypto", "simulate", "--x", "0.8", "--bits", "20000", "--seed", "7"],
    ["estimate", "--x", "0.5", "--trials", "20000", "--format", "json"],
    ["estimate", "--x", "0.9", "--nbar-t", "0.5", "--range", "nbar_t=0:1.5:7"],
    ["interfere", "--x", "0.5", "--phi", "0.3", "--q0", "0.01", "--gamma-star", "10"],
    CRYPTO_ERRORS,
    DISCRIMINATE_GOLDEN,
]

# library oracles that no CLI command reaches
SCIPY_FREE_CALLS = [
    "from cventlab import crypto\n"
    "crypto.uniform_key_eigenvalue_demo(0.3, 0.5, radii=(1.0, 2.0), d_max=4)",
    "from cventlab import interferometry\n"
    "interferometry.mz_min_phase_numeric(0.01, 0.6)",
]

HELP_PAGES = [[*command.split(), "--help"] for command in (
    "", "estimate", "discriminate", "interfere", "crypto", "crypto errors",
    "crypto simulate", "fiber")]

NUMPY_FREE_COMMANDS = [
    ["--version"],
    FIBER_GOLDEN,
    ["fiber", "--m", "0.5", "--n", "2", "--range", "m=0.25:1:4"],
    DISCRIMINATE_GOLDEN,
    CRYPTO_ERRORS,
    *HELP_PAGES,
]

NUMPY_FREE_REFUSALS = [
    ["fiber", "--m", "abc"],  # the conversion of an option
    ["estimate", "--x", "nan"],  # the table's finiteness check of a grid point
    ["crypto", "simulate", "--a", "0.5"],  # a required option missing
]

# every kind of refusal the parser makes, and one of the table
REFUSALS = [
    *NUMPY_FREE_REFUSALS,
    ["estimate", "--trials", "1.5"],
    ["fiber", "--m", "0.5", "--n", "2", "--format", "xml"],
    ["--bogus", "1"],
    ["nosuch"],
    ["fiber", "--m"],
    ["fiber", "--m", "0.5", "--n", "2", "extra"],
    ["fiber", "--gama", "1"],  # with its suggestions
    [],
]


def modules_after(body: str, *packages: str) -> list[str]:
    """Run ``body`` in a fresh interpreter; return the modules of ``packages`` it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body, packages=packages)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.rstrip().splitlines()[-1]
    assert last.startswith("MODULES="), proc.stdout
    return json.loads(last[len("MODULES="):])


@pytest.mark.parametrize("module", ["cventlab", "cventlab.cli"])
def test_import_loads_no_scipy(module):
    assert modules_after(f"import {module}", "scipy") == []


@pytest.mark.parametrize("args", SCIPY_FREE_COMMANDS, ids=" ".join)
def test_command_loads_no_scipy(args):
    assert modules_after(RUN_CLI.format(args=args), "scipy") == []


@pytest.mark.parametrize("body", SCIPY_FREE_CALLS, ids=lambda b: b.split("\n")[1])
def test_oracle_call_loads_no_scipy(body):
    assert modules_after(body, "scipy") == []


@pytest.mark.parametrize("module", ["cventlab", "cventlab.cli"])
def test_import_loads_no_numpy(module):
    assert modules_after(f"import {module}", "numpy") == []


@pytest.mark.parametrize("args", NUMPY_FREE_COMMANDS, ids=" ".join)
def test_command_loads_no_numpy(args):
    assert modules_after(RUN_CLI.format(args=args), "numpy") == []


@pytest.mark.parametrize("args", NUMPY_FREE_REFUSALS, ids=" ".join)
def test_refused_argument_loads_no_numpy(args):
    assert modules_after(RUN_CLI_REFUSED.format(args=args), "numpy") == []


def test_probe_sees_numpy_loaded_in_a_row():
    # the estimate row draws samples: the probe must report numpy there
    args = ["estimate", "--x", "0.5", "--trials", "10"]
    assert "numpy" in modules_after(RUN_CLI.format(args=args), "numpy")


def test_import_loads_no_click():
    assert modules_after("import cventlab.cli", "click") == []


def test_commands_load_no_click():
    # --version, every help page and every README command, in one interpreter
    body = "\n".join(RUN_CLI.format(args=args) for args in SCIPY_FREE_COMMANDS + HELP_PAGES)
    assert modules_after(body, "click") == []


def test_refusals_load_no_click():
    body = "\n".join(RUN_CLI_REFUSED.format(args=args) for args in REFUSALS)
    assert modules_after(body, "click") == []


def test_commands_without_a_table_load_no_json_or_csv():
    # --version, every help page and every refusal, in one interpreter
    body = "\n".join([RUN_CLI.format(args=["--version"]),
                      *(RUN_CLI.format(args=args) for args in HELP_PAGES),
                      *(RUN_CLI_REFUSED.format(args=args) for args in REFUSALS)])
    assert modules_after(body, "json", "csv") == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_probe_sees_the_output_format_loaded(fmt):
    args = ["fiber", "--m", "0.5", "--n", "2", "--format", fmt]
    assert fmt in modules_after(RUN_CLI.format(args=args), "json", "csv")


def test_numpy_free_commands_load_no_dataclasses():
    body = "\n".join([*(RUN_CLI.format(args=args) for args in NUMPY_FREE_COMMANDS),
                      *(RUN_CLI_REFUSED.format(args=args) for args in REFUSALS)])
    assert modules_after(body, "dataclasses") == []


def test_commands_load_no_dataclasses_beyond_numpy():
    # every README command, with the library modules whose results they
    # print; whatever numpy itself loads is not the package's to remove
    body = "\n".join(["import cventlab.crypto, cventlab.discrimination, cventlab.estimation",
                      *(RUN_CLI.format(args=args) for args in SCIPY_FREE_COMMANDS)])
    numpy_own = modules_after("import numpy.linalg, numpy.random", "dataclasses")
    assert modules_after(body, "dataclasses") == numpy_own
