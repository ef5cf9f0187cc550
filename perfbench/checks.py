"""Output checks of benchmark requests.

A request passes when it exits with code 0 and its output holds:

* golden examples match ``tests/golden/`` byte for byte;
* JSON output validates against ``cli_output.schema.json``;
* oracle columns sit within the tolerances of ``tests/test_acceptance.py``
  (``kappa_diff``, ``tau_diff`` and ``eve_diff`` below 1e-8, the brute-force
  error probability within 1e-6 of the hull's);
* Monte Carlo columns sit within 5 standard errors of the closed form.  Eve's
  empirical error is only bounded below by ``eve_bound`` (her threshold
  receiver reaches it only as x -> 1), so that check is one-sided.

Library calls are checked against an independent recomputation.
"""

from __future__ import annotations

import csv
import io
import json
import math

from streams import GOLDEN_DIR, SCHEMA_PATH, Request

GOLDEN_MISMATCH = "golden mismatch"
ORACLE_TOL = 1e-8
P_E_TOL = 1e-6
N_SE = 5.0


def _arg(args: tuple[str, ...], flag: str) -> str | None:
    return args[args.index(flag) + 1] if flag in args else None


def _float(value) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


class Checker:
    """Checks request outputs; ``check`` returns None or the reason for failure."""

    def __init__(self):
        import jsonschema

        self._validator = jsonschema.Draft202012Validator(
            json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))
        self._golden = {p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()}

    def check(self, request: Request, exit_code: int, output) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            if request.call is not None:
                return self._check_call(request, output)
            return self._check_cli(request, output)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def rows(self, request: Request, stdout: bytes) -> list[dict]:
        text = stdout.decode("utf-8")
        if _arg(request.args, "--format") == "json":
            doc = json.loads(text)
            errors = sorted(e.message for e in self._validator.iter_errors(doc))
            if errors:
                raise ValueError(f"schema: {errors[0]}")
            return doc["rows"]
        return list(csv.DictReader(io.StringIO(text)))

    # -- CLI output ----------------------------------------------------------

    def _check_cli(self, request: Request, stdout: bytes) -> str | None:
        if request.golden is not None and stdout != self._golden[request.golden]:
            return f"{GOLDEN_MISMATCH}: {request.golden}"
        rows = self.rows(request, stdout)
        if not rows:
            return "no rows"
        for row in rows:
            reason = self._check_row(request, row)
            if reason:
                return reason
        return None

    def _check_row(self, request: Request, row: dict) -> str | None:
        for col in ("kappa_diff", "tau_diff"):
            value = _float(row.get(col))
            if value is not None and not abs(value) < ORACLE_TOL:
                return f"{col} = {value}"
        if "r_bruteforce" in row:
            r_bf = min(float(row["r_bruteforce"]), 1.0)
            p_bf = 0.5 * (1.0 - math.sqrt(1.0 - r_bf * r_bf))
            if not abs(float(row["p_e"]) - p_bf) < P_E_TOL:
                return f"p_e {row['p_e']} vs brute force {p_bf}"
        if "eve_gaussian_key_oracle" in row:
            if not abs(float(row["eve_diff"])) < ORACLE_TOL:
                return f"eve_diff = {row['eve_diff']}"
        if "bob_empirical" in row:
            n = float(row["bits"])
            for col, p, two_sided in (("bob_diff", float(row["bob_analytic"]), True),
                                      ("eve_diff", float(row["eve_bound"]), False)):
                diff, se = float(row[col]), math.sqrt(p * (1.0 - p) / n)
                if diff < -N_SE * se or (two_sided and diff > N_SE * se):
                    return f"{col} = {diff} beyond {N_SE:g} standard errors ({se:.3g})"
        if "diff_entangled" in row:
            n = int(_arg(request.args, "--trials") or self._default_trials())
            for col, var in (("diff_entangled", "sigma2_sq"),
                             ("diff_unentangled", "sigma1_sq")):
                # |z - alpha|^2 of a circular complex Gaussian has sd = its mean
                se = float(row[var]) / math.sqrt(n)
                if not abs(float(row[col])) <= N_SE * se:
                    return f"{col} = {row[col]} beyond {N_SE:g} standard errors"
        return None

    @staticmethod
    def _default_trials() -> int:
        from cventlab import cli

        return next(p.default for p in cli.estimate.params if p.name == "trials")

    # -- library calls -------------------------------------------------------

    def _check_call(self, request: Request, result) -> str | None:
        kw = request.kwargs
        function = request.call[1]
        if function == "mz_min_phase_numeric":
            from cventlab import interferometry

            if not 0.0 < result < math.pi / 4.0:
                return f"phi = {result} outside (0, pi/4)"
            leak = 1.0 - interferometry.mz_zero_count_probability(kw["x"], result)
            if not abs(leak - kw["target_q_phi"]) < ORACLE_TOL:
                return f"Q_phi({result}) = {leak}, target {kw['target_q_phi']}"
        elif function == "uniform_key_eigenvalue_demo":
            if not (len(result) > 1 and min(result) > 0
                    and all(a > b for a, b in zip(result, result[1:]))):
                return f"maxima {result} not positive and decreasing"
        elif function == "simulate_ou_variances":
            from cventlab import fiber

            exact = fiber.evolve_variances(kw["r0"], kw["M"], kw["tau"])
            for sim, ref in ((result.Sigma_plus_sq, exact.Sigma_plus_sq),
                             (result.Sigma_minus_sq, exact.Sigma_minus_sq)):
                # mean of q^2 for Gaussian q: sd = sqrt(2) * variance
                if not abs(sim - ref) <= N_SE * ref * math.sqrt(2.0 / kw["n_samples"]):
                    return f"OU variance {sim} vs {ref}"
        else:
            return f"no check for {function}"
        return None
