"""Command-line front end: config parsing, experiment dispatch, CSV/JSON
emission, catalog listing.

Value precedence, lowest to highest: built-in defaults, config file
(INI-style, one section per command), environment variables with prefix
``BITEULER_`` (flag name upper-cased, dashes to underscores), command-line
flags.  Unknown config keys are hard errors.

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
import sys
from typing import Optional

import numpy as np

from .core import (ErrorRow, ErrorTable, GridSpec, RateFit, path_blocks,
                   validate_start, worker_count)
from .diagnostics import stopping_probability
from .experiments import (ConvergenceConfig, divergence_comparison, fit_rate,
                          moment_sweep, strong_error)
from .models import catalog, check_conditions, default_sampler
from .schemes import SchemeKind, run_paths
from .brownian import generate_block, generate_path, dump_increments
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


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, SchemeKind):
        return obj.value
    return obj


def table_to_csv(table: ErrorTable) -> str:
    """Render an error table with the fixed header; one line per N."""
    lines = [CSV_HEADER]
    for row in table.rows:
        lines.append(",".join([
            table.scheme, table.model, _fmt(table.r), str(row.N), str(row.M),
            str(row.seed), _fmt(row.sup_error), _fmt(row.std_error),
            _fmt(row.overflow_fraction),
        ]))
    return "\n".join(lines) + "\n"


def table_to_json(table: ErrorTable, fit: Optional[RateFit] = None) -> str:
    payload = {"table": _to_jsonable(table)}
    if fit is not None:
        payload["rate_fit"] = _to_jsonable(fit)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def table_from_json(text: str) -> ErrorTable:
    """Inverse of table_to_json (rate fit, if present, is ignored)."""
    payload = json.loads(text)["table"]
    rows = tuple(
        ErrorRow(N=r["N"], M=r["M"], sup_error=r["sup_error"],
                 std_error=r["std_error"], seed=r["seed"],
                 per_gridpoint_errors=(None if r["per_gridpoint_errors"] is None
                                       else np.array(r["per_gridpoint_errors"])),
                 overflow_fraction=r["overflow_fraction"])
        for r in payload["rows"])
    return ErrorTable(scheme=payload["scheme"], model=payload["model"],
                      r=payload["r"], rows=rows, T=payload["T"])


def emit(table: ErrorTable, fmt: str, path: Optional[str],
         fit: Optional[RateFit] = None) -> None:
    """Write an error table as CSV or JSON.

    CSV uses the fixed header above; a rate fit rides along as a JSON
    sidecar file ``<path>.ratefit.json`` with keys slope/intercept/residual.
    JSON mirrors the full report including per-gridpoint errors.
    """
    if fmt == "csv":
        text = table_to_csv(table)
    elif fmt == "json":
        text = table_to_json(table, fit)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)
    if fmt == "csv" and fit is not None:
        sidecar = json.dumps({"slope": fit.slope, "intercept": fit.intercept,
                              "residual": fit.residual}, sort_keys=True) + "\n"
        if path is None:
            sys.stdout.write(sidecar)
        else:
            with open(path + ".ratefit.json", "w") as f:
                f.write(sidecar)


def _write_payload(payload: dict, fmt: str, path: Optional[str],
                   csv_header: Optional[str] = None,
                   csv_rows: Optional[list[list]] = None) -> None:
    if fmt == "json":
        text = json.dumps(_to_jsonable(payload), indent=2, sort_keys=True) + "\n"
    else:
        if csv_header is None:
            raise UsageError("this command only supports --format json")
        lines = [csv_header]
        for row in csv_rows or []:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in row))
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# argument handling


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads; 0 means all cores (default 1)")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="biteuler", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run an ensemble and print a summary")
    sp.add_argument("--model", required=False)
    sp.add_argument("--scheme", choices=sorted(_SCHEMES), default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--M", type=int, default=None)
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--x0", default=None, help="comma-separated start state")
    sp.add_argument("--dump-increments", default=None,
                    help="write path 0's increments to this binary file")
    _add_common(sp)

    cp = sub.add_parser("convergence", help="strong-error table and rate fit")
    cp.add_argument("--model", required=False)
    cp.add_argument("--scheme", choices=sorted(_SCHEMES), default=None)
    cp.add_argument("--Ns", default=None, help="comma-separated, e.g. 16,32,64")
    cp.add_argument("--N-ref", type=int, default=None)
    cp.add_argument("--M", type=int, default=None)
    cp.add_argument("--T", type=float, default=None)
    cp.add_argument("--r", type=float, default=None)
    cp.add_argument("--reference", choices=("auto", "exact", "fine"),
                    default=None,
                    help="auto: exact when the model has a closed form, "
                         "otherwise a fine-grid run of the same scheme")
    cp.add_argument("--x0", default=None)
    cp.add_argument("--expect-slope", default=None, metavar="LO:HI",
                    help="exit 2 unless the fitted slope lies in [LO, HI]")
    _add_common(cp)

    dp = sub.add_parser("divergence", help="Euler vs stopped-tamed explosion contrast")
    dp.add_argument("--model", required=False)
    dp.add_argument("--Ns", default=None)
    dp.add_argument("--M", type=int, default=None)
    dp.add_argument("--T", type=float, default=None)
    dp.add_argument("--x0", default=None)
    dp.add_argument("--expect-contrast", action="store_true", default=None,
                    help="exit 2 unless Euler explodes somewhere and the "
                         "stopped scheme never overflows")
    _add_common(dp)

    mp = sub.add_parser("moments", help="Lyapunov moment flatness sweep")
    mp.add_argument("--model", required=False)
    mp.add_argument("--Ns", default=None)
    mp.add_argument("--M", type=int, default=None)
    mp.add_argument("--T", type=float, default=None)
    mp.add_argument("--x0", default=None)
    mp.add_argument("--max-ratio", type=float, default=None,
                    help="exit 2 if max/min of E[U(Y_T)] exceeds this")
    _add_common(mp)

    tp = sub.add_parser("taming-check", help="Monte Carlo taming-bound checks")
    tp.add_argument("--h-values", default=None, help="comma-separated scales")
    tp.add_argument("--m-values", default=None, help="comma-separated dimensions")
    tp.add_argument("--samples", type=int, default=None)
    tp.add_argument("--strict", action="store_true", default=None,
                    help="exit 2 if any claimed bound fails")
    _add_common(tp)

    kp = sub.add_parser("check-conditions", help="sampled Lyapunov condition checker")
    kp.add_argument("--model", required=False)
    kp.add_argument("--n-points", type=int, default=None)
    kp.add_argument("--T", type=float, default=None)
    kp.add_argument("--radius", type=float, default=None)
    kp.add_argument("--strict", action="store_true", default=None,
                    help="exit 2 on any violation")
    _add_common(kp)

    lp = sub.add_parser("catalog", help="list the model zoo")
    _add_common(lp)
    return p


_DEFAULTS = {
    "seed": 42, "threads": 1, "format": "json", "M": 1000, "T": 1.0,
    "N": 64, "r": 2.0, "scheme": "bit", "reference": "auto", "N_ref": 0,
    "samples": 100000, "h_values": "1,0.1,0.01", "m_values": "1,5",
    "n_points": 10000, "radius": 10.0, "strict": False,
    "expect_contrast": False,
}


def _merge_settings(args: argparse.Namespace) -> dict:
    """defaults < config file < env (BITEULER_*) < flags."""
    settings = dict(vars(args))
    command = settings.pop("command")
    known = set(settings)
    merged = {k: None for k in known}

    if args.config:
        cp = configparser.ConfigParser()
        cp.optionxform = str  # keys are case-sensitive flag names (N vs n)
        read = cp.read(args.config)
        if not read:
            raise UsageError(f"config file {args.config!r} not found")
        for section in cp.sections():
            if section not in _COMMANDS and section != "common":
                raise UsageError(f"unknown config section [{section}]")
        for section in ("common", command):
            if cp.has_section(section):
                for key, value in cp.items(section):
                    attr = key.replace("-", "_")
                    if attr not in known or attr == "config":
                        raise UsageError(
                            f"unknown config key {key!r} in [{section}]")
                    merged[attr] = value

    import os
    for attr in known:
        env_key = ENV_PREFIX + attr.upper()
        if env_key in os.environ:
            merged[attr] = os.environ[env_key]

    for attr, value in settings.items():
        if value is not None:
            merged[attr] = value

    defaulted = {attr for attr, value in merged.items() if value is None}
    for attr, value in list(merged.items()):
        if value is None and attr in _DEFAULTS:
            merged[attr] = _DEFAULTS[attr]
    merged["_defaulted"] = defaulted

    # strings from config/env into typed values
    for attr in ("seed", "threads", "M", "N", "N_ref", "samples", "n_points"):
        if isinstance(merged.get(attr), str):
            merged[attr] = int(merged[attr])
    for attr in ("T", "r", "max_ratio", "radius"):
        if isinstance(merged.get(attr), str):
            merged[attr] = float(merged[attr])
    for attr in ("strict", "expect_contrast"):
        if isinstance(merged.get(attr), str):
            merged[attr] = merged[attr].lower() in ("1", "true", "yes", "on")
    worker_count(merged["threads"])  # a negative --threads is a usage error
    merged["command"] = command
    return merged


def _parse_ns(text) -> tuple[int, ...]:
    if text is None:
        raise UsageError("missing --Ns")
    if isinstance(text, tuple):
        return text
    try:
        ns = tuple(int(v) for v in str(text).split(",") if v)
    except ValueError as exc:
        raise UsageError(f"bad --Ns value {text!r}") from exc
    if not ns or any(n < 1 for n in ns):
        raise UsageError("Ns must be positive integers")
    return ns


def _parse_x0(text, entry):
    if text is None:
        return np.asarray(entry.default_x0, dtype=float)
    return np.array([float(v) for v in str(text).split(",")], dtype=float)


def _require_model(s: dict):
    if not s.get("model"):
        raise UsageError("missing required --model")
    cat = catalog()
    if s["model"] not in cat:
        raise UsageError(f"unknown model {s['model']!r}; see `biteuler catalog`")
    return cat[s["model"]]


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad band {text!r}, expected LO:HI") from exc
    return lo, hi


# ---------------------------------------------------------------------------
# command implementations


def _cmd_catalog(s: dict) -> None:
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
    # structured text by default; JSON when asked for explicitly or to a file
    if s["output"] or "format" not in s.get("_defaulted", set()):
        _write_payload(payload, "json", s["output"])
    else:
        sys.stdout.write("\n".join(rows) + "\n")


def _cmd_simulate(s: dict) -> None:
    entry = _require_model(s)
    model = entry.model
    x0 = validate_start(model, _parse_x0(s.get("x0"), entry), s["M"])
    grid = GridSpec(T=s["T"], N=s["N"])
    kind = _SCHEMES[s["scheme"]]
    if s.get("dump_increments"):
        dump_increments(generate_path(s["T"], s["N"], model.m, s["seed"], 0),
                        s["dump_increments"])
    parts = []
    for [(_, lo, hi)] in path_blocks(s["M"]):
        dw = generate_block(s["T"], s["N"], model.m, s["seed"], lo, hi - lo)
        runs = run_paths(kind, model, grid, x0, dw)
        parts.append((runs.states[:, -1].copy(), runs.tau_index, runs.overflow))
        del dw, runs  # one block at a time: memory does not grow with M
    final, tau, overflow = (np.concatenate(p) for p in zip(*parts))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("bd,bd->b", final, final))
    norms = np.minimum(np.nan_to_num(norms, nan=1e300, posinf=1e300), 1e300)
    payload = {
        "model": model.name, "scheme": s["scheme"], "N": s["N"], "M": s["M"],
        "T": s["T"], "seed": s["seed"],
        "final_norm_mean": float(np.mean(norms)),
        "stopped_fraction": float(np.mean(tau < s["N"])),
        "overflow_fraction": float(np.mean(overflow)),
    }
    _write_payload(payload, s["format"], s["output"],
                   csv_header="model,scheme,N,M,seed,final_norm_mean,"
                              "stopped_fraction,overflow_fraction",
                   csv_rows=[[payload["model"], payload["scheme"], s["N"],
                              s["M"], s["seed"], payload["final_norm_mean"],
                              payload["stopped_fraction"],
                              payload["overflow_fraction"]]])


def _cmd_convergence(s: dict) -> None:
    entry = _require_model(s)
    ns = _parse_ns(s.get("Ns"))
    # a rate fit is always produced, so the resolutions must be strictly
    # increasing powers of two
    if any(n & (n - 1) for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise UsageError("Ns must be strictly increasing powers of two")
    x0 = s.get("x0")
    reference = s["reference"]
    n_ref = s.get("N_ref") or 0
    if reference == "auto":
        reference = "exact" if entry.model.exact_solution is not None else "fine"
    if reference == "fine" and n_ref == 0:
        n_ref = 8 * max(ns)
    config = ConvergenceConfig(
        model=s["model"], scheme=_SCHEMES[s["scheme"]], Ns=ns, M=s["M"],
        seed=s["seed"], N_ref=n_ref, r=s["r"],
        reference=reference,
        x0=None if x0 is None else tuple(_parse_x0(x0, entry)),
        T=s["T"], threads=s["threads"])
    table = strong_error(config)
    fit = fit_rate(table)
    emit(table, s["format"], s["output"], fit)
    if s.get("expect_slope"):
        lo, hi = _parse_band(s["expect_slope"])
        if not lo <= fit.slope <= hi:
            raise AssertionFailed(
                f"fitted slope {fit.slope:.4f} outside [{lo}, {hi}]")


def _cmd_divergence(s: dict) -> None:
    entry = _require_model(s)
    ns = _parse_ns(s.get("Ns"))
    x0 = _parse_x0(s.get("x0"), entry)
    report = divergence_comparison(entry.model, ns, s["M"], x0, s["seed"],
                                   T=s["T"], threads=s["threads"])
    rows = [[r.scheme, report.model, r.N, report.M, report.seed,
             r.overflow_fraction, r.explode_fraction, r.second_moment_capped]
            for r in report.rows]
    _write_payload({"divergence": report}, s["format"], s["output"],
                   csv_header="scheme,model,N,M,seed,overflow_fraction,"
                              "explode_fraction,second_moment_capped",
                   csv_rows=rows)
    if s.get("expect_contrast"):
        em_explodes = any(r.explode_fraction > 0 for r in report.rows
                          if r.scheme == "em")
        bit_clean = all(r.overflow_fraction == 0 for r in report.rows
                        if r.scheme == "bit")
        if not (em_explodes and bit_clean):
            raise AssertionFailed(
                f"divergence contrast not observed (em explodes: {em_explodes}, "
                f"bit clean: {bit_clean})")


def _cmd_moments(s: dict) -> None:
    entry = _require_model(s)
    model = entry.model
    if model.lyapunov is None:
        raise UsageError(f"model {s['model']!r} ships no Lyapunov data")
    ns = _parse_ns(s.get("Ns"))
    x0 = _parse_x0(s.get("x0"), entry)
    report = moment_sweep(model, model.lyapunov, ns, s["M"], s["seed"], x0,
                          T=s["T"], threads=s["threads"])
    rows = [[model.name, r.N, report.M, report.seed, r.eu_estimate,
             r.eu_stderr, r.exp_estimate, r.exp_stderr, r.bound]
            for r in report.rows]
    _write_payload({"moments": report}, s["format"], s["output"],
                   csv_header="model,N,M,seed,eu_estimate,eu_stderr,"
                              "exp_estimate,exp_stderr,moment_bound",
                   csv_rows=rows)
    if s.get("max_ratio") is not None and report.ratio > s["max_ratio"]:
        raise AssertionFailed(
            f"E[U] max/min ratio {report.ratio:.4f} exceeds {s['max_ratio']}")


def _cmd_taming_check(s: dict) -> None:
    hs = [float(v) for v in str(s["h_values"]).split(",") if v]
    ms = [int(v) for v in str(s["m_values"]).split(",") if v]
    reports = []
    all_ok = True
    for h in hs:
        for m in ms:
            rep = verify_taming_bounds(TamingParams(h=h, m=m),
                                       s["samples"], s["seed"])
            all_ok = all_ok and rep.all_passed
            reports.append(rep)
    rows = [[r.params.h, r.params.m, r.linf.estimate, r.linf.bound,
             r.linf_pathwise_fraction, r.jacobian.estimate, r.jacobian.bound,
             r.laplacian.estimate, r.laplacian.bound, str(r.all_passed)]
            for r in reports]
    _write_payload({"taming_checks": reports}, s["format"], s["output"],
                   csv_header="h,m,linf_estimate,linf_bound,linf_fraction,"
                              "jacobian_estimate,jacobian_bound,"
                              "laplacian_estimate,laplacian_bound,all_passed",
                   csv_rows=rows)
    if s.get("strict") and not all_ok:
        raise AssertionFailed("a claimed taming bound failed its Monte Carlo check")


def _cmd_check_conditions(s: dict) -> None:
    entry = _require_model(s)
    model = entry.model
    if model.lyapunov is None:
        raise UsageError(f"model {s['model']!r} ships no Lyapunov data")
    report = check_conditions(model, model.lyapunov, s["T"],
                              default_sampler(s["radius"]), s["n_points"],
                              seed=s["seed"])
    _write_payload({"conditions": report}, s["format"], s["output"],
                   csv_header="condition,n_checked,n_violations,worst_margin",
                   csv_rows=[[c.name, c.n_checked, c.n_violations, c.worst_margin]
                             for c in (report.generator, report.monotonicity,
                                       report.coercivity)])
    if s.get("strict") and not report.passed:
        raise AssertionFailed(f"{report.total_violations} condition violations")


_COMMANDS = {"simulate": _cmd_simulate, "convergence": _cmd_convergence,
             "divergence": _cmd_divergence, "moments": _cmd_moments,
             "taming-check": _cmd_taming_check,
             "check-conditions": _cmd_check_conditions, "catalog": _cmd_catalog}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        s = _merge_settings(args)
        _COMMANDS[s["command"]](s)
    except AssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
