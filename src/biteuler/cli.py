"""Command-line front end: config parsing, experiment dispatch, CSV/JSON
emission, catalog listing.

Value precedence, lowest to highest: built-in defaults, config file
(INI-style, one section per command), environment variables with prefix
``BITEULER_`` (flag name upper-cased, dashes to underscores), command-line
flags.  Every flag but ``--config`` has an environment form: the config
file is named by the flag alone, and ``BITEULER_CONFIG`` is not read.
Each setting's type, choices and default are declared once, in
``_SETTINGS``; config-file and environment values are parsed by that same
declaration, so a bad one is rejected just like a bad flag.  Unknown config
keys are hard errors.

Exit codes: 0 when the run completed and every requested assertion passed;
2 when a requested assertion failed (e.g. fitted rate outside the expected
band); 1 for usage or runtime errors.

Floats are emitted with 17 significant digits so every value round-trips
exactly.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .core import (ErrorTable, GridSpec, RateFit, validate_start,
                   worker_count)
from .diagnostics import _finals, _Paths
from .experiments import (ConvergenceConfig, divergence_comparison, fit_rate,
                          moment_sweep, strong_error)
from .models import catalog, check_conditions
from .schemes import OVERFLOW_CAP, SchemeKind
from .brownian import generate_path, dump_increments
from .taming import TamingParams, verify_taming_bounds

ENV_PREFIX = "BITEULER_"

CSV_HEADER = "scheme,model,r,N,M,seed,sup_error,std_error,overflow_fraction"

_SCHEMES = {k.value: k for k in SchemeKind}


def _fmt(x: float) -> str:
    """17 significant digits: shortest representation that round-trips."""
    return format(x, ".17g")


class UsageError(Exception):
    pass


class AssertionFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# emission


def _json_default(obj):
    """``default=`` of json.dumps: arrays as nested lists, numpy scalars as
    Python ones and dataclasses as field dicts."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _render(fmt: str, payload, csv_header: str = "", csv_rows=(),
            indent: Optional[int] = 2) -> str:
    """``payload`` as sorted-key JSON, or ``csv_header`` and ``csv_rows`` as
    CSV with every float to 17 significant digits."""
    if fmt == "json":
        return json.dumps(payload, default=_json_default, indent=indent,
                          sort_keys=True) + "\n"
    if fmt != "csv":
        raise UsageError(f"unknown format {fmt!r}")
    lines = [csv_header]
    for row in csv_rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _write(text: str, path: Optional[str]) -> None:
    """Write ``text`` to the file ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _write_payload(payload, fmt: str, path: Optional[str],
                   csv_header: str = "", csv_rows=()) -> None:
    _write(_render(fmt, payload, csv_header, csv_rows), path)


def emit(table: ErrorTable, fmt: str, path: Optional[str],
         fit: RateFit) -> None:
    """Write an error table and its rate fit as CSV or JSON.

    CSV uses the fixed header above; the rate fit rides along as a JSON
    sidecar file ``<path>.ratefit.json`` with keys slope/intercept/residual.
    JSON mirrors the full report including per-gridpoint errors.
    """
    payload = {"table": table, "rate_fit": fit}
    rows = [[table.scheme, table.model, table.r, row.N, row.M, row.seed,
             row.sup_error, row.std_error, row.overflow_fraction]
            for row in table.rows]
    _write_payload(payload, fmt, path, CSV_HEADER, rows)
    if fmt == "csv":
        sidecar = {"slope": fit.slope, "intercept": fit.intercept,
                   "residual": fit.residual}
        _write(_render("json", sidecar, indent=None),
               None if path is None else path + ".ratefit.json")


# ---------------------------------------------------------------------------
# settings: each flag declared once; config and environment values are
# parsed by the same declaration


def _list_of(cast):
    """``type=`` for a nonempty comma-separated list such as ``1,0.1,0.01``."""
    def parse(text: str) -> tuple:
        values = tuple(cast(v) for v in text.split(",") if v)
        if not values:
            raise ValueError(f"empty list {text!r}")
        return values
    parse.__name__ = f"comma-separated {cast.__name__}"  # names it in errors
    return parse


def _ns(text: str) -> tuple[int, ...]:
    try:
        ns = _list_of(int)(text)
    except ValueError:
        ns = ()
    if not ns or min(ns) < 1:
        raise argparse.ArgumentTypeError(
            f"expected positive integers such as 16,32,64, got {text!r}")
    return ns


def _finite(text: str) -> float:
    """``type=`` of an assertion's bound: a NaN or infinite one would
    decide the assertion whatever the run gives."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _band(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(_finite, text.split(":"))
        if lo <= hi:
            return lo, hi
    except (ValueError, argparse.ArgumentTypeError):
        pass
    raise argparse.ArgumentTypeError(
        f"bad band {text!r}, expected LO:HI with finite LO <= HI")


_SETTINGS = {
    "--config": dict(help="INI config file; environment and flags override it"),
    "--seed": dict(type=int, default=42, help="random seed"),
    "--threads": dict(type=int, default=1, help="worker threads; 0 means all cores"),
    "--output": dict(help="output path; stdout when unset"),
    "--format": dict(choices=("csv", "json"), default="json", help="output format"),
    "--model": dict(help="model name, see `biteuler catalog` (required)"),
    "--scheme": dict(choices=sorted(_SCHEMES), default="bit", help="stepping scheme"),
    "--N": dict(type=int, default=64, help="time steps"),
    "--Ns": dict(type=_ns, help="comma-separated time steps (required)"),
    "--N-ref": dict(type=int, default=0,
                    help="fine reference only: its steps; 0 means 8 * max(Ns)"),
    "--M": dict(type=int, default=1000, help="Monte Carlo paths"),
    "--T": dict(type=float, default=1.0, help="time horizon"),
    "--r": dict(type=float, default=2.0, help="L^r error exponent"),
    "--x0": dict(type=_list_of(float),
                 help="comma-separated start state; the model's when unset; "
                      "a negative one is given as --x0=-1,2"),
    "--reference": dict(choices=("auto", "exact", "fine"), default="auto",
                        help="auto: exact when the model has a closed form, "
                             "otherwise a fine-grid run of the same scheme"),
    "--expect-slope": dict(type=_band, metavar="LO:HI",
                           help="exit 2 unless the fitted slope lies in [LO, HI]"),
    "--expect-contrast": dict(action="store_true",
                              help="exit 2 unless Euler explodes somewhere and the "
                                   "stopped scheme never overflows"),
    "--max-ratio": dict(type=_finite,
                        help="exit 2 if max/min of E[U(Y_T)] exceeds this"),
    "--dump-increments": dict(help="write path 0's increments to this binary file"),
    "--h-values": dict(type=_list_of(float), default="1,0.1,0.01",
                       help="comma-separated scales"),
    "--m-values": dict(type=_list_of(int), default="1,5",
                       help="comma-separated dimensions"),
    "--samples": dict(type=int, default=100000, help="Monte Carlo samples"),
    "--n-points": dict(type=int, default=10000, help="sampled states"),
    "--radius": dict(type=float, default=10.0, help="sampling radius"),
    "--strict": dict(action="store_true",
                     help="exit 2 if any checked bound or condition fails"),
}

_COMMON = ("--config", "--seed", "--threads", "--output", "--format")
_ENSEMBLE = ("--model", "--M", "--T", "--x0")


def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The ``biteuler`` parser and, by command name, its subparsers."""
    p = argparse.ArgumentParser(prog="biteuler", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in _COMMANDS.items():
        sp = sub.add_parser(
            name, help=help_, description=help_,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for flag in flags + _COMMON:
            sp.add_argument(flag, **_SETTINGS[flag])
    # structured text unless a format or an output file is asked for
    sub.choices["catalog"].set_defaults(format=None)
    return p, sub.choices


def _layered_settings(command: str, parser: argparse.ArgumentParser,
                      config: Optional[str]) -> dict:
    """The config-file, then environment, values of ``command``'s settings,
    each parsed by ``parser`` as its flag would be; an on/off switch is on
    for 1/true/yes/on."""
    flags = {f.lstrip("-").replace("-", "_"): f
             for f in _COMMANDS[command][2] + _COMMON if f != "--config"}
    texts = []  # (where, dest, text), lowest precedence first
    if config:
        cp = configparser.ConfigParser()
        cp.optionxform = str  # keys are case-sensitive flag names (N vs n)
        if not cp.read(config):
            raise UsageError(f"config file {config!r} not found")
        for section in cp.sections():
            if section not in _COMMANDS and section != "common":
                raise UsageError(f"unknown config section [{section}]")
        for section in ("common", command):
            if cp.has_section(section):
                for key, text in cp.items(section):
                    dest = key.replace("-", "_")
                    where = f"config key {key!r} in [{section}]"
                    if dest not in flags:
                        raise UsageError(f"unknown {where}")
                    texts.append((where, dest, text))
    for dest in flags:
        env_key = ENV_PREFIX + dest.upper()
        if env_key in os.environ:
            texts.append((env_key, dest, os.environ[env_key]))
    parser.exit_on_error = False  # raise instead, so the error names its source
    values = {}
    for where, dest, text in texts:
        flag = flags[dest]
        if _SETTINGS[flag].get("action") == "store_true":
            argv = [flag] if text.lower() in ("1", "true", "yes", "on") else []
        else:
            argv = [f"{flag}={text}"]
        try:
            values[dest] = getattr(parser.parse_args(argv), dest)
        except argparse.ArgumentError as exc:
            raise UsageError(f"{where}: {exc}") from None
    return values


def _require_model(s: argparse.Namespace):
    if not s.model:
        raise UsageError("missing required --model")
    cat = catalog()
    if s.model not in cat:
        raise UsageError(f"unknown model {s.model!r}; see `biteuler catalog`")
    return cat[s.model]


def _require_ns(s: argparse.Namespace) -> tuple[int, ...]:
    if s.Ns is None:
        raise UsageError("missing --Ns")
    return s.Ns


def _start(s: argparse.Namespace, entry) -> np.ndarray:
    return np.asarray(entry.default_x0 if s.x0 is None else s.x0, dtype=float)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_catalog(s: argparse.Namespace) -> None:
    rows = []
    payload = {}
    for name, entry in sorted(catalog().items()):
        info = {
            "d": entry.model.d, "m": entry.model.m,
            "exact_solution": entry.model.exact_solution is not None,
            "lyapunov": entry.model.lyapunov is not None,
            "default_x0": list(map(float, entry.default_x0)),
            "admissible_region": entry.admissible_region,
            "notes": entry.notes,
        }
        payload[name] = info
        rows.append(f"{name}: d={info['d']} m={info['m']} "
                    f"exact={info['exact_solution']} lyapunov={info['lyapunov']} "
                    f"x0={info['default_x0']}\n    {entry.notes}")
    if s.format == "csv":
        raise UsageError("catalog writes JSON or text, not CSV")
    if s.output or s.format:
        _write_payload(payload, "json", s.output)
    else:
        sys.stdout.write("\n".join(rows) + "\n")


def _cmd_simulate(s: argparse.Namespace) -> None:
    entry = _require_model(s)
    model = entry.model
    x0 = validate_start(model, _start(s, entry), s.M)
    grid = GridSpec(T=s.T, N=s.N)
    kind = _SCHEMES[s.scheme]
    if s.dump_increments:
        dump_increments(generate_path(s.T, s.N, model.m, s.seed, 0),
                        s.dump_increments)
    paths = _Paths(model, x0, grid.T, s.seed, ((kind, grid.N),), grid.N)
    [(final, tau, overflow)] = _finals(paths, s.M).values()
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("bd,bd->b", final, final))
    norms = np.fmin(norms, OVERFLOW_CAP)  # NaN and inf saturate at the cap
    payload = {
        "model": model.name, "scheme": s.scheme, "N": s.N, "M": s.M,
        "T": s.T, "seed": s.seed,
        "final_norm_mean": float(np.mean(norms)),
        "stopped_fraction": float(np.mean(tau < s.N)),
        "overflow_fraction": float(np.mean(overflow)),
    }
    _write_payload(payload, s.format, s.output,
                   csv_header="model,scheme,N,M,seed,final_norm_mean,"
                              "stopped_fraction,overflow_fraction",
                   csv_rows=[[payload["model"], payload["scheme"], s.N, s.M,
                              s.seed, payload["final_norm_mean"],
                              payload["stopped_fraction"],
                              payload["overflow_fraction"]]])


def _cmd_convergence(s: argparse.Namespace) -> None:
    entry = _require_model(s)
    ns = _require_ns(s)
    # a rate fit is always produced, so the resolutions must be at least
    # three strictly increasing powers of two
    if len(ns) < 3 or any(n & (n - 1) for n in ns) \
            or any(b <= a for a, b in zip(ns, ns[1:])):
        raise UsageError("Ns must be at least three strictly increasing "
                         "powers of two")
    reference, n_ref = s.reference, s.N_ref
    if reference == "auto":
        reference = "exact" if entry.model.exact_solution is not None else "fine"
    if reference == "fine" and n_ref == 0:
        n_ref = 8 * max(ns)
    config = ConvergenceConfig(
        model=s.model, scheme=_SCHEMES[s.scheme], Ns=ns, M=s.M, seed=s.seed,
        N_ref=n_ref, r=s.r, reference=reference, x0=s.x0, T=s.T,
        threads=s.threads)
    table = strong_error(config)
    fit = fit_rate(table)
    emit(table, s.format, s.output, fit)
    if s.expect_slope:
        lo, hi = s.expect_slope
        if not lo <= fit.slope <= hi:
            raise AssertionFailed(
                f"fitted slope {fit.slope:.4f} outside [{lo}, {hi}]")


def _cmd_divergence(s: argparse.Namespace) -> None:
    entry = _require_model(s)
    ns = _require_ns(s)
    report = divergence_comparison(entry.model, ns, s.M, _start(s, entry),
                                   s.seed, T=s.T, threads=s.threads)
    rows = [[r.scheme, report.model, r.N, report.M, report.seed,
             r.overflow_fraction, r.explode_fraction, r.second_moment_capped]
            for r in report.rows]
    _write_payload({"divergence": report}, s.format, s.output,
                   csv_header="scheme,model,N,M,seed,overflow_fraction,"
                              "explode_fraction,second_moment_capped",
                   csv_rows=rows)
    if s.expect_contrast:
        em_explodes = any(r.explode_fraction > 0 for r in report.rows
                          if r.scheme == "em")
        bit_clean = all(r.overflow_fraction == 0 for r in report.rows
                        if r.scheme == "bit")
        if not (em_explodes and bit_clean):
            raise AssertionFailed(
                f"divergence contrast not observed (em explodes: {em_explodes}, "
                f"bit clean: {bit_clean})")


def _cmd_moments(s: argparse.Namespace) -> None:
    entry = _require_model(s)
    model = entry.model
    if model.lyapunov is None:
        raise UsageError(f"model {s.model!r} ships no Lyapunov data")
    ns = _require_ns(s)
    report = moment_sweep(model, model.lyapunov, ns, s.M, s.seed,
                          _start(s, entry), T=s.T, threads=s.threads)
    rows = [[model.name, r.N, report.M, report.seed, r.eu_estimate,
             r.eu_stderr, r.exp_estimate, r.exp_stderr, r.bound]
            for r in report.rows]
    _write_payload({"moments": report}, s.format, s.output,
                   csv_header="model,N,M,seed,eu_estimate,eu_stderr,"
                              "exp_estimate,exp_stderr,moment_bound",
                   csv_rows=rows)
    if s.max_ratio is not None and report.ratio > s.max_ratio:
        raise AssertionFailed(
            f"E[U] max/min ratio {report.ratio:.4f} exceeds {s.max_ratio}")


def _cmd_taming_check(s: argparse.Namespace) -> None:
    reports = []
    all_ok = True
    for h in s.h_values:
        for m in s.m_values:
            rep = verify_taming_bounds(TamingParams(h=h, m=m), s.samples,
                                       s.seed)
            all_ok = all_ok and rep.all_passed
            reports.append(rep)
    rows = [[r.params.h, r.params.m, r.linf.estimate, r.linf.bound,
             r.linf_pathwise_fraction, r.jacobian.estimate, r.jacobian.bound,
             r.laplacian.estimate, r.laplacian.bound, str(r.all_passed)]
            for r in reports]
    _write_payload({"taming_checks": reports}, s.format, s.output,
                   csv_header="h,m,linf_estimate,linf_bound,linf_fraction,"
                              "jacobian_estimate,jacobian_bound,"
                              "laplacian_estimate,laplacian_bound,all_passed",
                   csv_rows=rows)
    if s.strict and not all_ok:
        raise AssertionFailed("a claimed taming bound failed its Monte Carlo check")


def _cmd_check_conditions(s: argparse.Namespace) -> None:
    entry = _require_model(s)
    model = entry.model
    if model.lyapunov is None:
        raise UsageError(f"model {s.model!r} ships no Lyapunov data")
    report = check_conditions(model, model.lyapunov, s.T, s.radius,
                              s.n_points, seed=s.seed)
    _write_payload({"conditions": report}, s.format, s.output,
                   csv_header="condition,n_checked,n_violations,worst_margin",
                   csv_rows=[[c.name, c.n_checked, c.n_violations, c.worst_margin]
                             for c in (report.generator, report.monotonicity,
                                       report.coercivity)])
    if s.strict and not report.passed:
        raise AssertionFailed(f"{report.total_violations} condition violations")


# command -> (implementation, help, flags besides _COMMON)
_COMMANDS = {
    "simulate": (_cmd_simulate, "run an ensemble and print a summary",
                 _ENSEMBLE + ("--scheme", "--N", "--dump-increments")),
    "convergence": (_cmd_convergence, "strong-error table and rate fit",
                    _ENSEMBLE + ("--scheme", "--Ns", "--N-ref", "--r",
                                 "--reference", "--expect-slope")),
    "divergence": (_cmd_divergence, "Euler vs stopped-tamed explosion contrast",
                   _ENSEMBLE + ("--Ns", "--expect-contrast")),
    "moments": (_cmd_moments, "Lyapunov moment flatness sweep",
                _ENSEMBLE + ("--Ns", "--max-ratio")),
    "taming-check": (_cmd_taming_check, "Monte Carlo taming-bound checks",
                     ("--h-values", "--m-values", "--samples", "--strict")),
    "check-conditions": (_cmd_check_conditions,
                         "sampled Lyapunov condition checker",
                         ("--model", "--n-points", "--T", "--radius",
                          "--strict")),
    "catalog": (_cmd_catalog, "list the model zoo", ()),
}


def parse_settings(argv: Optional[list[str]] = None) -> argparse.Namespace:
    """The settings of one invocation, defaults < config file < environment
    < flags; argparse's SystemExit on a bad flag or on --help."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)  # checks every flag
    command = commands[args.command]
    command.set_defaults(**_layered_settings(args.command, command, args.config))
    return parser.parse_args(argv)  # flags win over the layered defaults


def main(argv: Optional[list[str]] = None) -> int:
    try:
        s = parse_settings(argv)
        worker_count(s.threads)  # a negative --threads is a usage error
        _COMMANDS[s.command][0](s)
    except SystemExit as exc:  # argparse printed help or a usage error
        return 1 if exc.code else 0
    except AssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, KeyError, OSError,
            configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
