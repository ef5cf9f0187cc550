"""Command-line front end emitting closed-form results next to oracle values.

Every subcommand produces a deterministic table (CSV or JSON) for a fixed
seed; sweep syntax ``--range key=start:stop:steps`` expands a scalar
parameter into a grid with one row per point.  Where an independent oracle
exists, its value and the difference from the closed form are extra columns.

A command is its options plus a row function ``row(g, seed)`` of one grid
point ``g``, a dict of option values.  ``_table`` adds the common options and
owns the run: seed, grid, rows, exit code of a failure, ``meta`` and output.

This module imports no numpy; a grid axis is ``gaussian_core._linspace``.
Only the rows that need it load it, so ``--version``, help, argument errors,
``fiber``, ``discriminate`` and ``crypto errors`` run without it.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import sys

import click

from cventlab import __version__
from cventlab import fiber as fiber_mod
from cventlab import gaussian_core
from cventlab import interferometry as itf

DEFAULT_SEED = 20020521  # documented default; override with --seed or CVENTLAB_SEED
SEED_ENV_VAR = "CVENTLAB_SEED"
_SEED = click.IntRange(min=0)  # the values of --seed and CVENTLAB_SEED alike
# the most points of a --range grid; its rows are all kept until output, at
# about 1.5 kB each in CSV and 3.8 kB in JSON, so at most about 0.4 GB
_MAX_POINTS = 10**5


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
    try:
        return _SEED.convert(env, None, None)
    except click.BadParameter:
        raise click.BadParameter(f"{SEED_ENV_VAR} must be an integer >= 0, got {env!r}") from None


def _finite(name: str, value):
    """The value itself, unless it is a float nan or +-inf (a bad argument)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise click.BadParameter(f"{name} must be finite, got {value}")
    return value


def _grid(params: dict, ranges: tuple[str, ...]) -> list[dict]:
    """Cartesian product of the swept parameters, in the order given.

    Each point holds all of ``params`` in their order, as ints for an int option.
    A grid of more than ``_MAX_POINTS`` points is refused before any is computed.
    """
    int_keys = {p.name for p in click.get_current_context().command.params
                if isinstance(p.type, click.types.IntParamType)}
    axes = {}
    size = 1
    for spec in ranges:
        try:
            key, rng = spec.split("=", 1)
            start, stop, steps = rng.split(":")
            start, stop, steps = float(start), float(stop), int(steps)
            if steps < 0:
                raise ValueError(steps)
        except ValueError:
            raise click.BadParameter(
                f"range must look like key=start:stop:steps, got {spec!r}"
            )
        if steps == 0:
            raise click.BadParameter(f"range {spec!r} has no points")
        key = key.strip()
        if key not in params:
            raise click.BadParameter(f"unknown sweep key {key!r}")
        if key in axes:
            raise click.BadParameter(f"sweep key {key!r} is given twice")
        size *= steps
        if size > _MAX_POINTS:
            raise click.BadParameter(
                f"range {spec!r} is too large: the grid has {size} points, "
                f"more than {_MAX_POINTS}")
        _finite(key, start)  # linspace would start an infinite span with 0 inf = nan
        _finite(key, stop)
        values = gaussian_core._linspace(start, stop, steps)
        if key in int_keys:
            for value in values:
                if not value.is_integer():
                    raise click.BadParameter(f"{key} takes integers, got {value}")
            values = [int(value) for value in values]
        axes[key] = values
    for key, value in params.items():
        for point in axes.get(key, [value]):
            _finite(key, point)
    return [dict(params, **dict(zip(axes, point)))
            for point in itertools.product(*axes.values())]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.12g}"
    return str(value)


def _emit(rows: list[dict], meta: dict, fmt: str, output: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
        text = buf.getvalue()
    else:
        # JSON has no nan or inf: nan becomes null and +-inf "inf", as in CSV
        clean_rows = [
            {k: v if not isinstance(v, float) or math.isfinite(v)
             else None if math.isnan(v) else "inf"
             for k, v in row.items()}
            for row in rows
        ]
        text = json.dumps({"meta": meta, "rows": clean_rows}, indent=2) + "\n"
    if output == "-":
        click.echo(text, nl=False, file=sys.stdout)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.BadParameter(f"{exc.strerror}: {output!r}", param_hint="'--output'")


def _table(command: str):
    """Make ``row(g, seed, **inputs)`` the callback of the table ``command``.

    The options of string type, which a linspace cannot sweep, are the
    ``inputs``: each row gets them as given, and a numerical failure names
    them instead of the grid point.
    """

    def decorate(row):
        @click.option("--range", "ranges", multiple=True, metavar="KEY=START:STOP:STEPS",
                      help="Sweep a parameter over a linear grid; may be repeated.")
        @click.option("--seed", type=_SEED, default=None,
                      help=f"RNG seed (default {DEFAULT_SEED}; env {SEED_ENV_VAR} overrides).")
        @click.option("--output", default="-", show_default=True,
                      help="Output path, or - for stdout.")
        @click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                      show_default=True, help="Output format.")
        @functools.wraps(row)
        def run(fmt, output, seed, ranges, **options):
            seed = _resolve_seed(seed)
            # declared order, not the command line's, which is the order of options
            declared = [p for p in click.get_current_context().command.params
                        if p.name in options]
            inputs = {p.name: options[p.name] for p in declared
                      if isinstance(p.type, click.types.StringParamType)}
            params = {p.name: options[p.name] for p in declared if p.name not in inputs}
            rows = []
            try:
                for g in _grid(params, ranges):
                    rows.append(row(g, seed, **inputs))
            except (ArithmeticError, MemoryError, itf.TruncationError,
                    gaussian_core.NonPhysicalStateError) as exc:
                # the text names neither the command nor the input it failed at
                shown = ", ".join(f"{k}={_fmt(v)}" for k, v in (inputs or g).items()
                                  if v is not None)
                click.echo(f"numerical failure: {command} at {shown}: {exc}", file=sys.stderr)
                sys.exit(1)
            except ValueError as exc:  # the library's domain checks on its arguments
                raise click.BadParameter(str(exc)) from exc
            meta = {"command": command, "seed": seed, "params": params,
                    "n_rows": len(rows), "version": __version__}
            _emit(rows, meta, fmt, output)

        return run

    return decorate


@click.group()
@click.version_option(__version__)
def main():
    """Closed-form results of the toolkit, each next to its oracle value."""


@main.command()
@click.option("--x", type=float, required=True, help="Probe Schmidt parameter.")
@click.option("--nbar-t", "nbar_t", type=float, default=0.0, show_default=True,
              help="Total Gaussian channel noise.")
@click.option("--alpha", type=float, default=1.0, show_default=True,
              help="True displacement amplitude (real).")
@click.option("--trials", type=int, default=100_000, show_default=True)
@_table("estimate")
def estimate(g, seed):
    """Displacement estimation: twin-beam vs vacuum probe variances."""
    from cventlab import estimation as est
    setting = est.EstimationSetting(x=g["x"], nbar_T=g["nbar_t"], alpha=g["alpha"])
    v = est.conditional_variance(setting)
    sim = est.simulate_estimation(setting, g["trials"], seed)
    return {
        "x": g["x"],
        "nbar_T": g["nbar_t"],
        "sigma2_sq": v.entangled,
        "sigma1_sq": v.unentangled,
        "convenient": est.entanglement_convenient(setting),
        "threshold_nbar": est.convenience_threshold(g["x"]),
        "rms_entangled": sim.rms_entangled,
        "rms_unentangled": sim.rms_unentangled,
        "diff_entangled": sim.rms_entangled * sim.rms_entangled - v.entangled,
        "diff_unentangled": sim.rms_unentangled * sim.rms_unentangled - v.unentangled,
    }


@main.command()
@click.option("--phases", required=True,
              help="Comma-separated eigenphases of U2^dag U1, in radians.")
@click.option("--samples", type=int, default=100_000, show_default=True,
              help="Unused: the exact minimum-norm-point oracle draws no "
                   "samples (must be >= 1).")
@_table("discriminate")
def discriminate(g, seed, phases):
    """Minimum-error discrimination of two unitaries from their eigenphases."""
    from cventlab import discrimination as disc
    try:
        phase_list = tuple(_finite("--phases", float(p)) for p in phases.split(","))
    except ValueError:
        raise click.BadParameter(f"--phases must be comma-separated floats, got {phases!r}")
    spectrum = disc.EigenphaseSpectrum(phase_list)
    polygon = disc.build_polygon(spectrum)
    r_bf = disc.brute_force_min_overlap(spectrum, g["samples"])
    copies = disc.copies_for_exact(polygon)
    return {
        "phases": ";".join(f"{p:.12g}" for p in polygon.phases),
        "r": polygon.r,
        "delta": polygon.delta,
        "p_e": disc.min_error_probability(polygon),
        "r_bruteforce": r_bf,
        "r_diff": r_bf - polygon.r,
        "spread_formula_p_e": disc.spread_formula_error(polygon.delta),
        "copies_for_exact": copies if copies is not None else "unbounded",
    }


@main.command()
@click.option("--x", type=float, required=True, help="Twin-beam Schmidt parameter.")
@click.option("--phi", type=float, default=0.1, show_default=True,
              help="Perturbation phase.")
@click.option("--q0", type=float, default=0.01, show_default=True,
              help="False-alarm probability (ideal scheme).")
@click.option("--gamma-star", type=float, default=10.0, show_default=True,
              help="Acceptance ratio (ideal scheme).")
@click.option("--d-max", type=int, default=None, help="Fock truncation override.")
@_table("interfere")
def interfere(g, seed):
    """Phase detection: ideal NP scheme and Mach-Zehnder zero-count scheme."""
    from cventlab import fock_oracle
    n_mean = gaussian_core.TwinBeamParams.from_x(g["x"]).N
    kappa_closed = itf.twin_beam_overlap_sq(n_mean, g["phi"])
    d = g["d_max"] if g["d_max"] is not None else fock_oracle.default_d_max(g["x"])
    # first, so that a truncation tail above tolerance fails before any evolution
    p_zero = itf.mz_zero_count_probability(g["x"], g["phi"], d)
    probe = fock_oracle.twin_beam_fock(g["x"], d)
    evolved = fock_oracle.apply_jx_evolution(probe, g["phi"])
    kappa = abs(fock_oracle.overlap(probe.diag, evolved))
    kappa_oracle = kappa * kappa
    phi_min = (
        itf.min_detectable_phase_ideal(g["q0"], g["gamma_star"], n_mean)
        if n_mean > 0 else None
    )
    return {
        "x": g["x"],
        "phi": g["phi"],
        "N": n_mean,
        "kappa_sq": kappa_closed,
        "kappa_sq_oracle": kappa_oracle,
        "kappa_diff": kappa_oracle - kappa_closed,
        "phi_min_ideal": phi_min,
        "p_zero_count": p_zero,
        "q_phi_mz": 1.0 - p_zero,
    }


@main.group()
def crypto():
    """Twin-beam secret-key communication."""


@crypto.command("errors")
@click.option("--x", type=float, required=True)
@click.option("--a", type=float, default=0.5, show_default=True,
              help="Symbol amplitude (z1 = a, z0 = -a).")
@click.option("--kappa", type=float, default=1.0, show_default=True,
              help="Gaussian key variance.")
@_table("crypto-errors")
def crypto_errors(g, seed):
    """Closed-form error probabilities for Bob and Eve."""
    from cventlab import crypto as crypto_mod
    margin = crypto_mod.security_margin(g["x"], g["kappa"], g["a"])
    eve = margin.eve_err
    eve_oracle = 0.5 * (1.0 - crypto_mod.splus_numeric(g["a"], g["kappa"]))
    return {
        "x": g["x"],
        "a": g["a"],
        "kappa": g["kappa"],
        "bob_ideal": crypto_mod.bob_ideal_error(g["x"], -g["a"], g["a"]),
        "coherent": crypto_mod.coherent_error(-g["a"], g["a"]),
        "bob_heterodyne": margin.bob_err,
        "eve_gaussian_key": eve,
        "eve_gaussian_key_oracle": eve_oracle,
        "eve_diff": eve_oracle - eve,
        "eve_uniform_key": crypto_mod.eve_error_uniform(),
        "two_sigma_x_sq": 2.0 * crypto_mod.receiver_variance(g["x"]),
        "secure": margin.secure,
    }


@crypto.command("simulate")
@click.option("--x", type=float, required=True)
@click.option("--a", type=float, default=0.5, show_default=True)
@click.option("--kappa", type=float, default=1.0, show_default=True)
@click.option("--bits", type=int, default=100_000, show_default=True)
@_table("crypto-simulate")
def crypto_simulate(g, seed):
    """Monte Carlo of the binary protocol against the closed forms."""
    from cventlab import crypto as crypto_mod
    config = crypto_mod.ProtocolConfig(x=g["x"], a=g["a"], kappa_key=g["kappa"])
    sim = crypto_mod.simulate_binary_protocol(config, g["bits"], seed)
    margin = crypto_mod.security_margin(g["x"], g["kappa"], g["a"])
    bob, eve = margin.bob_err, margin.eve_err
    return {
        "x": g["x"],
        "a": g["a"],
        "kappa": g["kappa"],
        "bits": g["bits"],
        "bob_analytic": bob,
        "bob_empirical": sim.bob_empirical_err,
        "bob_diff": sim.bob_empirical_err - bob,
        "eve_bound": eve,
        "eve_empirical": sim.eve_empirical_err,
        "eve_diff": sim.eve_empirical_err - eve,
    }


@main.command()
@click.option("--gamma", type=float, default=1.0, show_default=True,
              help="Fiber damping rate.")
@click.option("--m", type=float, required=True,
              help="Background thermal photons M.")
@click.option("--n", type=float, default=None,
              help="Twin-beam mean photon number N (alternative to --r0).")
@click.option("--r0", type=float, default=None,
              help="Twin-beam squeezing parameter (alternative to --n).")
@_table("fiber")
def fiber(g, seed):
    """Separability threshold of a twin-beam in noisy fibers."""
    # per grid point, so that sweeping the option not given is caught too
    if (g["n"] is None) == (g["r0"] is None):
        raise ValueError("give exactly one of --n or --r0")
    if g["r0"] is not None:
        beam = gaussian_core.TwinBeamParams(g["r0"])
        n_mean = beam.N
    else:
        beam = gaussian_core.TwinBeamParams.from_mean_photons(g["n"])
        n_mean = g["n"]  # as given, not recomputed from r0
    r = beam.r0
    t_s = fiber_mod.separability_time(g["gamma"], g["m"], n_mean)
    tau_s = fiber_mod.separability_time_rescaled(g["m"], r)
    if math.isinf(tau_s):
        scan_tau = None
        diff = None
    else:
        scan_tau = fiber_mod.scan_separability(r, g["m"], tau_max=2.0 * tau_s + 1.0,
                                               steps=256)
        diff = scan_tau - tau_s if scan_tau is not None else None
    return {
        "gamma": g["gamma"],
        "M": g["m"],
        "N": n_mean,
        "r0": r,
        "t_s": t_s,
        "tau_s": tau_s,
        "tau_s_scan": scan_tau,
        "tau_diff": diff,
        "t_s_large_N": fiber_mod.separability_time_large_n(g["gamma"], g["m"]),
    }


if __name__ == "__main__":
    main()
