"""Command-line front end emitting closed-form results next to oracle values.

Every subcommand produces a deterministic table (CSV or JSON) for a fixed
seed; sweep syntax ``--range key=start:stop:steps`` expands a scalar
parameter into a grid with one row per point.  Where an independent oracle
exists, its value and the difference from the closed form are extra columns.

A command is a table of its options plus a row function ``row(g, seed)`` of
one grid point ``g``, a dict of option values.  One parser reads every
command line against those tables, and ``_run`` owns the rest: seed, grid,
rows, exit code of a failure, ``meta`` and output.  A refused command line
raises ``UsageError``, which the console script prints as a usage line, a
help hint and ``Error: ...``, and exits 2 on.

This module imports no numpy; a grid axis is ``gaussian_core._linspace``.
Only the rows that need it load it, so ``--version``, help, argument errors,
``fiber``, ``discriminate`` and ``crypto errors`` run without it.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import sys
from typing import Callable, NamedTuple

from cventlab import __version__
from cventlab import fiber as fiber_mod
from cventlab import gaussian_core
from cventlab import interferometry as itf

DEFAULT_SEED = 20020521  # documented default; override with --seed or CVENTLAB_SEED
SEED_ENV_VAR = "CVENTLAB_SEED"
# the most points of a --range grid; its rows are all kept until output, at
# about 1.5 kB each in CSV and 3.8 kB in JSON, so at most about 0.4 GB
_MAX_POINTS = 10**5
_WIDTH = 78  # of a help page: 80 columns less a margin of 2, on any terminal


class UsageError(SystemExit):
    """A refused command line: exit code 2, shown on stderr by the console script.

    It is a SystemExit, as a numerical failure's exit 1 is, so that a caller
    in the same process reads every exit code from ``code``.  ``head`` is
    what stderr shows above ``Error: <message>``: the usage line and help
    hint of the command refused, or "" for a malformed option.  A bare group
    has no message, and its head is its help page.
    """

    exit_code = 2

    def __init__(self, message: str, head: str | None = None):
        super().__init__(self.exit_code)
        self.message = message
        self.head = head

    def show(self) -> None:
        error = f"Error: {self.message}\n" if self.message else ""
        sys.stderr.write((self.head or "") + error)


class Option(NamedTuple):
    """``--flag VALUE`` of a command, read into ``name``.

    ``type`` is float, int, str, ``_seed`` or a tuple of choices, which
    converts or admits a value; a flag of type None takes no value.
    A ``default`` other than None is shown on the help page.
    """

    flag: str
    name: str
    type: object
    default: object = None
    required: bool = False
    help: str = ""


class Command(NamedTuple):
    """A table command: its options, its own then the common ones, and its row
    function ``row(g, seed, **inputs)``."""

    path: tuple[str, ...]
    params: tuple[Option, ...]
    row: Callable


def _seed(text: str) -> int:
    """The value of --seed and of CVENTLAB_SEED alike: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer range.") from None
    if value < 0:
        raise ValueError(f"{value} is not in the range x>=0.")
    return value


_RANGE = Option("--range", "ranges", str,
                help="Sweep a parameter over a linear grid; may be repeated.")
_COMMON = (
    _RANGE,
    Option("--seed", "seed", _seed,
           help=f"RNG seed (default {DEFAULT_SEED}; env {SEED_ENV_VAR} overrides)."),
    Option("--output", "output", str, "-", help="Output path, or - for stdout."),
    Option("--format", "fmt", ("csv", "json"), "csv", help="Output format."),
)
_HELP = Option("--help", "help", None, help="Show this message and exit.")
_VERSION = Option("--version", "version", None, help="Show the version and exit.")
_METAVARS = {float: "FLOAT", int: "INTEGER", str: "TEXT", _seed: "INTEGER RANGE"}

_COMMANDS: dict[tuple[str, ...], Command] = {}
_GROUPS = {
    (): "Closed-form results of the toolkit, each next to its oracle value.",
    ("crypto",): "Twin-beam secret-key communication.",
}


def _command(path: str, *options: Option):
    """Register the row function below as the command ``path`` with ``options``."""

    def register(row) -> Command:
        command = Command(tuple(path.split()), options + _COMMON, row)
        _COMMANDS[command.path] = command
        return command

    return register


# -- reading a command line ----------------------------------------------------

def main(args=None, prog_name: str | None = None, standalone_mode: bool = True):
    """Run ``cventlab ARGS``; ``args`` defaults to ``sys.argv[1:]``.

    Returns None once the output is written, and a numerical failure exits 1
    through SystemExit.  A refused command line raises UsageError; in
    standalone mode, as in the console script, it is shown and exits 2.
    """
    prog = prog_name or os.path.basename(sys.argv[0])
    args = list(sys.argv[1:] if args is None else args)
    if not standalone_mode:
        return _dispatch(prog, args)
    try:
        _dispatch(prog, args)
    except UsageError as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except BrokenPipeError:
        # the reader of stdout is gone: exit 1 quietly, and point stdout at
        # devnull so that the interpreter's flush at exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _dispatch(prog: str, args: list[str]) -> None:
    """Walk the groups down to a command, then read and run it."""
    path: tuple[str, ...] = ()
    try:
        while path in _GROUPS:
            if not args:
                raise UsageError("", _help_page(prog, path) + "\n")
            given, args = _scan(args, _options(path), False)
            if given:  # --help or --version, the first given
                print(_help_page(prog, path) if given[0][0] is _HELP
                      else f"{prog}, version {__version__}")
                return
            if not args:
                raise UsageError("Missing command.")
            children = _children(path)
            if args[0] not in children:
                raise _no_such("command", args[0], children)
            path, args = path + (args[0],), args[1:]
        command = _COMMANDS[path]
        given, extra = _scan(args, _options(path), True)
        if any(option is _HELP for option, _ in given):
            print(_help_page(prog, path))
            return
        values = _values(command, given)
        if extra:
            raise UsageError(f"Got unexpected extra argument{'s' if len(extra) > 1 else ''} "
                             f"({' '.join(extra)})")
        _run(command, values)
    except UsageError as exc:
        if exc.head is None:
            exc.head = (f"{_usage(prog, path)}\n"
                        f"Try '{' '.join((prog, *path))} --help' for help.\n\n")
        raise


def _scan(args: list[str], options, interspersed: bool):
    """The (option, text) pairs given in ``args``, in order, and the other args.

    A command's options may come after its other args; a group's end at its
    command name, and ``--`` ends either.  An unknown option, a missing value
    and a value given to a flag are refused.
    """
    by_flag = {option.flag: option for option in options}
    given, rest = [], []
    tokens = iter(args)
    for arg in tokens:
        if arg == "--":
            break
        if arg[:1] != "-" or arg == "-":
            rest.append(arg)
            if not interspersed:
                break
            continue
        flag, eq, text = arg.partition("=")
        option = by_flag.get(flag)
        if option is None:
            if arg[:2] == "--":
                raise _no_such("option", flag, by_flag)
            raise UsageError(f"No such option {arg[:2]!r}.")
        if option.type is None:
            if eq:
                raise UsageError(f"Option {flag!r} does not take a value.", "")
            text = None
        elif not eq:
            text = next(tokens, None)
            if text is None:
                raise UsageError(f"Option {flag!r} requires an argument.", "")
        given.append((option, text))
    return given, rest + list(tokens)


def _no_such(kind: str, name: str, known) -> UsageError:
    from difflib import get_close_matches

    near = sorted(get_close_matches(name, known))
    message = f"No such {kind} {name!r}."
    if len(near) == 1:
        message += f" Did you mean {near[0]!r}?"
    elif near:
        message += f" (Did you mean one of: {', '.join(map(repr, near))}?)"
    return UsageError(message)


def _values(command: Command, given) -> dict:
    """Each option's value: the given ones converted in the order first given, then defaults.

    The last value of an option wins, except for --range, which keeps them all.
    """
    texts = {}
    for option, text in given:
        texts[option] = texts.get(option, ()) + (text,) if option is _RANGE else text
    values = {}
    for option in [*texts, *(o for o in command.params if o not in texts)]:
        if option in texts:
            try:
                values[option.name] = _convert(option, texts[option])
            except ValueError as exc:
                raise UsageError(f"Invalid value for '{option.flag}': {exc}") from None
        elif option.required:
            raise UsageError(f"Missing option '{option.flag}'.")
        else:
            values[option.name] = option.default
    return values


def _convert(option: Option, text):
    """``text`` as a value of ``option``; a ValueError says why not."""
    kind = option.type
    if kind is str:
        return text
    if isinstance(kind, tuple):
        if text in kind:
            return text
        raise ValueError(f"{text!r} is not one of {', '.join(map(repr, kind))}.")
    try:
        return kind(text)
    except ValueError:
        if kind is _seed:
            raise
        name = "float" if kind is float else "integer"
        raise ValueError(f"{text!r} is not a valid {name}.") from None


# -- help pages ------------------------------------------------------------------

def _options(path: tuple[str, ...]) -> tuple[Option, ...]:
    """The options of a group or command, --help last."""
    if path in _COMMANDS:
        return (*_COMMANDS[path].params, _HELP)
    return (_VERSION, _HELP) if path == () else (_HELP,)


def _children(path: tuple[str, ...]) -> list[str]:
    n = len(path)
    return sorted({p[n] for p in (*_GROUPS, *_COMMANDS) if len(p) > n and p[:n] == path})


def _doc(path: tuple[str, ...]) -> str:
    return _GROUPS[path] if path in _GROUPS else _COMMANDS[path].row.__doc__


def _usage(prog: str, path: tuple[str, ...]) -> str:
    tail = " COMMAND [ARGS]..." if path in _GROUPS else ""
    return f"Usage: {' '.join((prog, *path))} [OPTIONS]{tail}"


def _help_page(prog: str, path: tuple[str, ...]) -> str:
    """The help page of a group or command: usage, docstring, options and commands."""
    import textwrap

    def rows(pairs) -> str:
        width = min(max(len(first) for first, _ in pairs), 30)
        return "\n".join(textwrap.fill(second, _WIDTH, initial_indent=f"  {first:<{width}}  ",
                                       subsequent_indent=" " * (width + 4))
                         for first, second in pairs)

    sections = [_usage(prog, path),
                textwrap.fill(_doc(path), _WIDTH, initial_indent="  ", subsequent_indent="  "),
                "Options:\n" + rows([_help_row(option) for option in _options(path)])]
    if path in _GROUPS:
        children = _children(path)
        limit = _WIDTH - 6 - max(map(len, children))
        sections.append("Commands:\n" + rows([
            (name, textwrap.shorten(_doc(path + (name,)), limit, placeholder="...",
                                    break_on_hyphens=False))
            for name in children]))
    return "\n\n".join(sections)


def _help_row(option: Option) -> tuple[str, str]:
    kind = option.type
    if option is _RANGE:
        metavar = "KEY=START:STOP:STEPS"
    elif isinstance(kind, tuple):
        metavar = f"[{'|'.join(kind)}]"
    else:
        metavar = _METAVARS.get(kind, "")  # none for a flag
    extra = [f"default: {option.default}"] if option.default is not None else []
    if kind is _seed:
        extra.append("x>=0")
    if option.required:
        extra.append("required")
    text = f"{option.help}  [{'; '.join(extra)}]".lstrip() if extra else option.help
    return f"{option.flag} {metavar}".rstrip(), text


# -- running a command -------------------------------------------------------------

def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
    try:
        return _seed(env)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer >= 0, got {env!r}") from None


def _finite(name: str, value):
    """The value itself, unless it is a float nan or +-inf (a bad argument)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _grid(params: dict, ranges: tuple[str, ...], int_keys: set[str]) -> list[dict]:
    """Cartesian product of the swept parameters, in the order given.

    Each point holds all of ``params`` in their order, as ints for the
    ``int_keys``.  A grid of more than ``_MAX_POINTS`` points is refused
    before any is computed.
    """
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
            raise ValueError(f"range must look like key=start:stop:steps, got {spec!r}") from None
        if steps == 0:
            raise ValueError(f"range {spec!r} has no points")
        key = key.strip()
        if key not in params:
            raise ValueError(f"unknown sweep key {key!r}")
        if key in axes:
            raise ValueError(f"sweep key {key!r} is given twice")
        size *= steps
        if size > _MAX_POINTS:
            raise ValueError(
                f"range {spec!r} is too large: the grid has {size} points, "
                f"more than {_MAX_POINTS}")
        _finite(key, start)  # linspace would start an infinite span with 0 inf = nan
        _finite(key, stop)
        values = gaussian_core._linspace(start, stop, steps)
        if key in int_keys:
            for value in values:
                if not value.is_integer():
                    raise ValueError(f"{key} takes integers, got {value}")
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
    # csv and json are imported here, so --version, help and refusals load neither
    if fmt == "csv":
        import csv
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
        import json
        text = json.dumps({"meta": meta, "rows": clean_rows}, indent=2) + "\n"
    if output == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"Invalid value for '--output': {exc.strerror}: {output!r}") from None


def _run(command: Command, values: dict) -> None:
    """Seed, grid, rows, exit code of a failure, ``meta`` and output of ``command``.

    The options of string type, which a linspace cannot sweep, are the
    ``inputs``: each row gets them as given, and a numerical failure names
    them instead of the grid point.
    """
    own = command.params[:-len(_COMMON)]
    inputs = {o.name: values[o.name] for o in own if o.type is str}
    params = {o.name: values[o.name] for o in own if o.type is not str}
    int_keys = {o.name for o in own if o.type is int}
    name = "-".join(command.path)
    rows = []
    try:
        seed = _resolve_seed(values["seed"])
        for g in _grid(params, values["ranges"] or (), int_keys):
            rows.append(command.row(g, seed, **inputs))
    except (ArithmeticError, MemoryError, itf.TruncationError,
            gaussian_core.NonPhysicalStateError) as exc:
        # the text names neither the command nor the input it failed at
        shown = ", ".join(f"{k}={_fmt(v)}" for k, v in (inputs or g).items() if v is not None)
        print(f"numerical failure: {name} at {shown}: {exc}", file=sys.stderr)
        sys.exit(1)
    except ValueError as exc:  # the grid's, the seed's and the library's domain checks
        raise UsageError(f"Invalid value: {exc}") from exc
    meta = {"command": name, "seed": seed, "params": params,
            "n_rows": len(rows), "version": __version__}
    _emit(rows, meta, values["fmt"], values["output"])


# -- the commands ------------------------------------------------------------------

@_command(
    "estimate",
    Option("--x", "x", float, required=True, help="Probe Schmidt parameter."),
    Option("--nbar-t", "nbar_t", float, 0.0, help="Total Gaussian channel noise."),
    Option("--alpha", "alpha", float, 1.0, help="True displacement amplitude (real)."),
    Option("--trials", "trials", int, 100_000),
)
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


@_command(
    "discriminate",
    Option("--phases", "phases", str, required=True,
           help="Comma-separated eigenphases of U2^dag U1, in radians."),
    Option("--samples", "samples", int, 100_000,
           help="Unused: the exact minimum-norm-point oracle draws no samples (must be >= 1)."),
)
def discriminate(g, seed, phases):
    """Minimum-error discrimination of two unitaries from their eigenphases."""
    from cventlab import discrimination as disc
    try:
        phase_list = tuple(float(p) for p in phases.split(","))
    except ValueError:
        raise ValueError(f"--phases must be comma-separated floats, got {phases!r}") from None
    for p in phase_list:
        _finite("--phases", p)
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


@_command(
    "interfere",
    Option("--x", "x", float, required=True, help="Twin-beam Schmidt parameter."),
    Option("--phi", "phi", float, 0.1, help="Perturbation phase."),
    Option("--q0", "q0", float, 0.01, help="False-alarm probability (ideal scheme)."),
    Option("--gamma-star", "gamma_star", float, 10.0, help="Acceptance ratio (ideal scheme)."),
    Option("--d-max", "d_max", int, help="Fock truncation override."),
)
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


@_command(
    "crypto errors",
    Option("--x", "x", float, required=True),
    Option("--a", "a", float, 0.5, help="Symbol amplitude (z1 = a, z0 = -a)."),
    Option("--kappa", "kappa", float, 1.0, help="Gaussian key variance."),
)
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
        "coherent": crypto_mod.bob_ideal_error(0.0, -g["a"], g["a"]),
        "bob_heterodyne": margin.bob_err,
        "eve_gaussian_key": eve,
        "eve_gaussian_key_oracle": eve_oracle,
        "eve_diff": eve_oracle - eve,
        "eve_uniform_key": crypto_mod.eve_error_uniform(),
        "two_sigma_x_sq": 2.0 * crypto_mod.receiver_variance(g["x"]),
        "secure": margin.secure,
    }


@_command(
    "crypto simulate",
    Option("--x", "x", float, required=True),
    Option("--a", "a", float, 0.5),
    Option("--kappa", "kappa", float, 1.0),
    Option("--bits", "bits", int, 100_000),
)
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


@_command(
    "fiber",
    Option("--gamma", "gamma", float, 1.0, help="Fiber damping rate."),
    Option("--m", "m", float, required=True, help="Background thermal photons M."),
    Option("--n", "n", float, help="Twin-beam mean photon number N (alternative to --r0)."),
    Option("--r0", "r0", float, help="Twin-beam squeezing parameter (alternative to --n)."),
)
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
