"""Import budget: no command and no library oracle loads scipy.

scipy is a test-only dependency.  Every CLI call is a fresh process, and
importing scipy costs more than the rest of the package together.  Each check
runs in a fresh interpreter so the modules loaded by other tests do not leak
in.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
{body}
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("\\nSCIPY_MODULES=" + json.dumps(loaded))
"""

RUN_CLI = """
from cventlab import cli
code = cli.main({args!r}, standalone_mode=False)
assert code in (None, 0), code
"""

SCIPY_FREE_COMMANDS = [
    ["--version"],
    ["fiber", "--gamma", "1", "--m", "0.5", "--n", "2"],
    ["crypto", "simulate", "--x", "0.8", "--bits", "20000", "--seed", "7"],
    ["estimate", "--x", "0.5", "--trials", "20000", "--format", "json"],
    ["estimate", "--x", "0.9", "--nbar-t", "0.5", "--range", "nbar_t=0:1.5:7"],
    ["interfere", "--x", "0.5", "--phi", "0.3", "--q0", "0.01", "--gamma-star", "10"],
    ["crypto", "errors", "--x", "0.7", "--a", "0.5", "--kappa", "1.0"],
    ["discriminate", "--phases", "0,1.5708", "--samples", "20000"],
]

# library oracles that no CLI command reaches
SCIPY_FREE_CALLS = [
    "from cventlab import crypto\n"
    "crypto.uniform_key_eigenvalue_demo(0.3, 0.5, radii=(1.0, 2.0), d_max=4)",
    "from cventlab import interferometry\n"
    "interferometry.mz_min_phase_numeric(0.01, 0.6)",
]


def scipy_modules_after(body: str) -> list[str]:
    """Run ``body`` in a fresh interpreter; return the scipy modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.rstrip().splitlines()[-1]
    assert last.startswith("SCIPY_MODULES="), proc.stdout
    return json.loads(last[len("SCIPY_MODULES="):])


@pytest.mark.parametrize("module", ["cventlab", "cventlab.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_modules_after(f"import {module}") == []


@pytest.mark.parametrize("args", SCIPY_FREE_COMMANDS, ids=" ".join)
def test_command_loads_no_scipy(args):
    assert scipy_modules_after(RUN_CLI.format(args=args)) == []


@pytest.mark.parametrize("body", SCIPY_FREE_CALLS, ids=lambda b: b.split("\n")[1])
def test_oracle_call_loads_no_scipy(body):
    assert scipy_modules_after(body) == []
