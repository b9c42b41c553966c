"""Acceptance suite: one test per headline criterion, with its stated
tolerance, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line
(without -s, pytest shows the printed line for failing criteria only).
"""

import json
import math

import numpy as np
import pytest

from biteuler.cli import main
from biteuler.core import GridSpec
from biteuler.diagnostics import (AnalysisConstants, epsilon_n,
                                  stopping_probability)
from biteuler.experiments import (ConvergenceConfig, divergence_comparison,
                                  fit_rate, moment_sweep, strong_error)
from biteuler.models import catalog, model_ginzburg_landau
from biteuler.schemes import SchemeKind
from biteuler.taming import (TamingParams, tame, tame_jacobian_diag,
                             tame_laplacian, verify_taming_bounds)

SEED = 42


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}",
          flush=True)


# ---------------------------------------------------------------------------
# criterion 1 + 9 share one CLI run


@pytest.fixture(scope="module")
def criterion1_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "criterion1.csv"
    args = ["convergence", "--model", "gbm", "--scheme", "bit",
            "--Ns", "16,32,64,128,256,512,1024", "--M", "10000",
            "--seed", str(SEED), "--reference", "exact", "--format", "csv",
            "--threads", "1", "--output", str(out)]
    assert main(args) == 0
    return out


def test_criterion_1_strong_rate_gbm_exact(criterion1_csv):
    """GBM (a=0.05, b=0.2, T=1, x0=1), stopped tamed scheme against the
    closed form, Ns = 2^4..2^10, M = 10^4: fitted slope in [0.40, 0.60]."""
    fit = json.loads((criterion1_csv.parent / "criterion1.csv.ratefit.json")
                     .read_text())
    slope = fit["slope"]
    ok = 0.40 <= slope <= 0.60
    _report("1 (strong rate, GBM vs exact)", ok, f"fitted slope = {slope:.4f},"
            f" band [0.40, 0.60]")
    assert ok, (f"fitted slope {slope:.4f} outside [0.40, 0.60]; the observed "
                f"preasymptotic decay of the increment-taming error is "
                f"steeper than 1/2 at these N (see README 'Observed behavior')")


def test_criterion_9_determinism_across_threads(criterion1_csv, tmp_path):
    """The criterion-1 run repeated with threads=4 is byte-identical."""
    out4 = tmp_path / "criterion1_t4.csv"
    args = ["convergence", "--model", "gbm", "--scheme", "bit",
            "--Ns", "16,32,64,128,256,512,1024", "--M", "10000",
            "--seed", str(SEED), "--reference", "exact", "--format", "csv",
            "--threads", "4", "--output", str(out4)]
    assert main(args) == 0
    same = criterion1_csv.read_bytes() == out4.read_bytes()
    same_fit = ((criterion1_csv.parent / "criterion1.csv.ratefit.json")
                .read_bytes()
                == (tmp_path / "criterion1_t4.csv.ratefit.json").read_bytes())
    _report("9 (determinism, threads 1 vs 4)", same and same_fit,
            "CSV and rate-fit sidecar byte-identical" if same and same_fit
            else "outputs differ between thread counts")
    assert same and same_fit


def test_criterion_2_strong_rate_superlinear():
    """ginzburg_landau (alpha=beta=sigma0=1, x0=1), stopped tamed scheme
    against its own fine-grid run at N_ref = 2^13, Ns = 2^4..2^10, M = 10^4:
    fitted slope in [0.40, 0.65] and zero overflow flags."""
    config = ConvergenceConfig(
        model="ginzburg-landau", scheme=SchemeKind.STOPPED_BIT,
        Ns=(16, 32, 64, 128, 256, 512, 1024), M=10000, seed=SEED,
        reference="fine", N_ref=2**13, threads=4)
    table = strong_error(config)
    fit = fit_rate(table)
    no_overflow = all(r.overflow_fraction == 0.0 for r in table.rows)
    ok = 0.40 <= fit.slope <= 0.65 and no_overflow
    _report("2 (strong rate, superlinear self-coupled)", ok,
            f"fitted slope = {fit.slope:.4f}, band [0.40, 0.65]; "
            f"zero overflow = {no_overflow}")
    assert no_overflow
    assert 0.40 <= fit.slope <= 0.65, (
        f"fitted slope {fit.slope:.4f} outside [0.40, 0.65]; the observed "
        f"preasymptotic decay of the increment-taming error is steeper than "
        f"1/2 at these N (see README 'Observed behavior')")


def test_criterion_3_taming_bounds():
    """For h in {1, 0.1, 0.01} and m in {1, 5} at 10^5 samples: all three
    estimates below h^{1/4} sqrt(m), 52 h sqrt(m), 32 sqrt(h m) with >= 3
    stderr margin, and the sup-norm bound pathwise for 100% of samples."""
    failures = []
    for h in (1.0, 0.1, 0.01):
        for m in (1, 5):
            rep = verify_taming_bounds(TamingParams(h=h, m=m), 100000,
                                       seed=SEED)
            if rep.linf_pathwise_fraction != 1.0:
                failures.append(f"(h={h}, m={m}): sup-norm bound not pathwise")
            for name, chk in (("sup-norm", rep.linf),
                              ("jacobian", rep.jacobian),
                              ("laplacian", rep.laplacian)):
                if not (chk.passed and chk.margin_stderr >= 3.0):
                    failures.append(
                        f"(h={h}, m={m}) {name}: estimate {chk.estimate:.4f} "
                        f"vs bound {chk.bound:.4f} "
                        f"(margin {chk.margin_stderr:.1f} stderr)")
    ok = not failures
    _report("3 (taming-map norm bounds)", ok,
            "all bounds hold with >= 3 stderr margin" if ok
            else "; ".join(failures))
    assert ok, ("claimed bounds violated: " + "; ".join(failures)
                + "; the second-derivative L2 constant is unattainably small "
                  "for h <= 0.01 (see README 'Observed behavior')")


def test_criterion_4_derivative_exactness():
    """Jacobian diagonal and Laplacian match central finite differences at
    10^4 random (x, h) points, relative error < 1e-6 and < 1e-5.

    The finite differences are taken on an independent high-precision
    evaluation of the map (mpmath, 40 digits, step 1e-10 on the natural
    scale), so the comparison measures the implementation, not the
    difference quotient's own float64 roundoff.
    """
    import mpmath as mp

    mp.mp.dps = 40
    rng = np.random.Generator(np.random.Philox(key=SEED))
    n = 10000
    hs = np.exp(rng.uniform(math.log(0.01), math.log(10.0), n))
    xs = rng.standard_normal(n) * 1.2 * hs**0.25

    def pi_mp(v, h):
        return v * mp.e ** (-(v**4) / h)

    worst_j = worst_l = 0.0
    for xi, hi in zip(xs, hs):
        p = TamingParams(h=hi, m=1)
        x_mp, h_mp = mp.mpf(xi), mp.mpf(hi)
        d = mp.mpf("1e-10") * h_mp ** mp.mpf("0.25")
        fd1 = (pi_mp(x_mp + d, h_mp) - pi_mp(x_mp - d, h_mp)) / (2 * d)
        ex1 = tame_jacobian_diag(p, np.array([xi]))[0]
        if fd1 != 0:
            worst_j = max(worst_j, float(abs((mp.mpf(ex1) - fd1) / fd1)))
        fd2 = (pi_mp(x_mp + d, h_mp) - 2 * pi_mp(x_mp, h_mp)
               + pi_mp(x_mp - d, h_mp)) / d**2
        ex2 = tame_laplacian(p, np.array([xi]))[0]
        if fd2 != 0:
            worst_l = max(worst_l, float(abs((mp.mpf(ex2) - fd2) / fd2)))
    jac_ok = worst_j < 1e-6
    lap_ok = worst_l < 1e-5
    _report("4 (derivative exactness)", jac_ok and lap_ok,
            f"worst relative error: jacobian {worst_j:.2e} (< 1e-6), "
            f"laplacian {worst_l:.2e} (< 1e-5)")
    assert jac_ok and lap_ok


def test_criterion_5_moment_flatness():
    """ginzburg_landau with its shipped Lyapunov data, Ns = 2^4..2^10,
    M = 10^4: E[U(Y^N_T)] max/min ratio <= 1.25 and each estimate below its
    Gronwall bound + 3 stderr for N >= the reported crossover N0."""
    gl = catalog()["ginzburg-landau"].model
    report = moment_sweep(gl, gl.lyapunov, (16, 32, 64, 128, 256, 512, 1024),
                          10000, seed=SEED, x0=[1.0], threads=4)
    ratio_ok = report.ratio <= 1.25
    bound_ok = all(r.eu_estimate <= r.bound + 3.0 * r.eu_stderr
                   for r in report.rows if r.N >= report.n0.N0)
    ok = ratio_ok and bound_ok
    _report("5 (moment flatness)", ok,
            f"E[U] max/min ratio = {report.ratio:.4f} (<= 1.25); bound "
            f"comparisons for N >= N0 (log10 N0 = {report.n0.log10_N0:.1f}) "
            f"hold = {bound_ok}")
    assert ratio_ok, f"E[U] ratio {report.ratio:.4f} > 1.25"
    assert bound_ok


def test_criterion_6_stopping_probability_decay():
    """Estimates of P[tau^N < T] nonincreasing in N within 3 combined
    stderr across Ns = 2^4..2^12, and exactly 0 at the largest N."""
    gl = catalog()["ginzburg-landau"].model
    reports = []
    for k in range(4, 13):
        reports.append(stopping_probability(gl, GridSpec(1.0, 2**k), 10000,
                                            seed=SEED, x0=[1.0]))
    monotone = all(
        b.estimate <= a.estimate + 3.0 * math.hypot(a.stderr, b.stderr)
        for a, b in zip(reports, reports[1:]))
    zero_at_top = reports[-1].estimate == 0.0
    ok = monotone and zero_at_top
    ests = ", ".join(f"2^{k}:{r.estimate:.4f}"
                     for k, r in zip(range(4, 13), reports))
    _report("6 (stopping probability decay)", ok,
            f"nonincreasing = {monotone}, zero at N=2^12 = {zero_at_top} "
            f"({ests})")
    assert ok


def test_criterion_7_euler_divergence_contrast():
    """ginzburg_landau with x0 = 5, sigma0 = 1: the classical scheme's
    overflow/explosion fraction is positive for at least one N in the sweep
    while the stopped tamed scheme's is 0 for all N."""
    gl = catalog()["ginzburg-landau"].model
    Ns = tuple(2**k for k in range(2, 11))
    report = divergence_comparison(gl, Ns, 10000, [5.0], seed=SEED, threads=4)
    em_explodes = any(report.row(SchemeKind.EULER_MARUYAMA, n).explode_fraction > 0
                      for n in Ns)
    bit_clean = all(report.row(SchemeKind.STOPPED_BIT, n).overflow_fraction == 0.0
                    and report.row(SchemeKind.STOPPED_BIT, n).explode_fraction == 0.0
                    for n in Ns)
    ok = em_explodes and bit_clean
    em_frac = {n: report.row(SchemeKind.EULER_MARUYAMA, n).explode_fraction
               for n in Ns[:4]}
    _report("7 (divergence contrast)", ok,
            f"euler explodes somewhere = {em_explodes} (fractions {em_frac} "
            f"at coarse N), stopped scheme clean everywhere = {bit_clean}")
    assert ok


def test_criterion_8_epsilon_rate_vanishes():
    """For (c, p, T, m) = (1, 1, 1, 1), the per-N rate over N = 2^4..2^40 is
    eventually strictly decreasing with final value < 1e-2 of its peak."""
    consts = AnalysisConstants(c=1.0, p=1, T=1.0, m=1, rho=0.0, N=16)
    vals = [epsilon_n(consts.at(2**k)) for k in range(4, 41)]
    peak = max(vals)
    tail_start = vals.index(peak)
    strictly_dec = all(b < a for a, b in
                       zip(vals[tail_start:], vals[tail_start + 1:]))
    small_end = vals[-1] < 1e-2 * peak
    ok = strictly_dec and small_end
    _report("8 (per-N rate vanishes)", ok,
            f"eventually strictly decreasing = {strictly_dec}, "
            f"final/peak = {vals[-1] / peak:.2e} (< 1e-2)")
    assert ok
