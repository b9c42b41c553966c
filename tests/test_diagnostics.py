import dataclasses
import functools
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from biteuler import diagnostics
from biteuler.brownian import generate_block
from biteuler.core import GridSpec, LyapunovSpec
from biteuler.diagnostics import (AnalysisConstants, epsilon_n,
                                  exp_moment_estimate, fit_growth_constant,
                                  moment_bound, n0_for, stopping_probability)
from biteuler.models import catalog, model_gbm, model_ginzburg_landau
from biteuler.schemes import SchemeKind, run_paths
from biteuler.taming import stopping_threshold

# mpmath reference values (40 digits) for the closed-form evaluations
EPS_N16 = 1278500396.9800874
EPS_N1024 = 727151.02472121126
EPS_N2_40 = 563.38828617157606
MOMENT_BOUND_1024 = 12.631171738589982

UNIT = AnalysisConstants(c=1.0, p=1, T=1.0, m=1, rho=0.0, N=16)


def test_epsilon_n_frozen_values():
    assert epsilon_n(UNIT.at(16)) == pytest.approx(EPS_N16, rel=1e-12)
    assert epsilon_n(UNIT.at(1024)) == pytest.approx(EPS_N1024, rel=1e-12)
    assert epsilon_n(UNIT.at(2**40)) == pytest.approx(EPS_N2_40, rel=1e-12)


def test_epsilon_n_decreasing_and_vanishing():
    vals = [epsilon_n(UNIT.at(2**k)) for k in range(4, 41)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 * max(vals)


def test_epsilon_n_ratio_test():
    # eps(4N)/eps(N) < 1 across the sweep
    for k in range(4, 39):
        assert epsilon_n(UNIT.at(2 ** (k + 2))) < epsilon_n(UNIT.at(2**k))


def test_epsilon_n_asymptotic_slope_negative():
    ks = np.arange(20, 41)
    logs = np.array([math.log(epsilon_n(UNIT.at(2**int(k)))) for k in ks])
    slope = np.polyfit(ks * math.log(2.0), logs, 1)[0]
    # several competing power terms are still active at these N; the fitted
    # slope just has to be decisively negative
    assert slope < -0.05


def test_epsilon_n_overflow_reports_inf():
    big_c = AnalysisConstants(c=50.0, p=4, T=1.0, m=1, rho=0.0, N=2)
    assert epsilon_n(big_c) == math.inf


def test_moment_bound_at_zero_time():
    assert moment_bound(UNIT.at(1024), 0.0, 3.5) == pytest.approx(3.5)


def test_moment_bound_at_a_vanishing_rate_is_the_start_value():
    # T/N = 1e-600 underflows to 0 with rho = 0, so C = Cbar = 0, whose
    # C -> 0 limit EU0 + Cbar*t is EU0, where Cbar/C would divide 0 by 0
    consts = AnalysisConstants(c=1.0, p=3, T=1e-300, m=1, rho=0.0, N=10**300)
    assert moment_bound(consts, 1e-300, 2.5) == 2.5


def test_moment_bound_frozen_value_and_quadrature():
    consts = UNIT.at(1024)
    val = moment_bound(consts, 1.0, 1.0)
    assert val == pytest.approx(MOMENT_BOUND_1024, rel=1e-12)
    # quadrature oracle: EU0 e^{Ct} + int_0^t Cbar e^{C(t-s)} ds
    tn = 1.0 / 1024
    C = 2 * tn ** (15 / 16) + 32 * tn ** (13 / 32)
    Cbar = tn ** (13 / 32) * (32 + 0.5 * 4**4 * tn)
    integral, err = quad(lambda s: Cbar * math.exp(C * (1.0 - s)), 0.0, 1.0,
                         epsabs=1e-13, epsrel=1e-13)
    oracle = math.exp(C) + integral
    assert val == pytest.approx(oracle, rel=1e-10)


def test_moment_bound_gronwall_skeleton():
    # with the step terms sent to zero the bound collapses to EU0*e^{rho t}
    consts = AnalysisConstants(c=1.0, p=1, T=1.0, m=1, rho=0.7, N=2**60)
    val = moment_bound(consts, 1.0, 2.0)
    assert val == pytest.approx(2.0 * math.exp(0.7), rel=1e-3)


def test_moment_bound_small_c_limit_linear():
    # C -> 0: bound -> EU0 + Cbar*t, checked against tiny-C evaluation
    consts = AnalysisConstants(c=1.0, p=1, T=1.0, m=1, rho=0.0, N=2**200)
    v = moment_bound(consts, 1.0, 1.0)
    assert v == pytest.approx(1.0, rel=1e-8)


def test_moment_bound_overflow_is_inf():
    consts = AnalysisConstants(c=2.5, p=3, T=1.0, m=1, rho=1.5, N=16)
    assert moment_bound(consts, 1.0, 1.0) == math.inf


@pytest.mark.parametrize("t,EU0,message", [
    (math.nan, 1.0, "t must be >= 0, got nan"),
    (-1.0, 1.0, "t must be >= 0, got -1.0"),
    (1.0, math.nan, "EU0 must be >= 0, got nan"),
    (1.0, -1.0, "EU0 must be >= 0, got -1.0")])
def test_moment_bound_rejects_a_negative_or_nan_time_or_start(t, EU0, message):
    # t = NaN returned NaN and EU0 = NaN returned inf
    consts = AnalysisConstants(c=1.1, p=1, T=1.0, m=1, rho=0.0, N=2**20)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        moment_bound(consts, t, EU0)


# c != 1, p >= 2, m > 1 and T != 1, so that every exponent of c, m and T
# shows in the value; the frozen values above, at c = p = m = T = 1, pin none
EXPONENT_POINTS = [
    AnalysisConstants(c=1.3, p=2, T=2.0, m=3, rho=0.4, N=2**20),
    AnalysisConstants(c=1.1, p=3, T=0.5, m=2, rho=1.2, N=2**30),
    AnalysisConstants(c=1.6, p=2, T=3.0, m=4, rho=0.0, N=2**40)]


def _mp_constants(consts):
    """c, m, rho, T/N, N/T and T^(3/4) + sqrt(m) in mpmath numbers."""
    import mpmath as mp
    c, T, m, N, rho = (mp.mpf(v) for v in (consts.c, consts.T, consts.m,
                                          consts.N, consts.rho))
    return c, m, rho, T / N, N / T, T ** mp.mpf(0.75) + mp.sqrt(m)


@pytest.mark.parametrize("consts", EXPONENT_POINTS, ids=lambda k: f"c{k.c}")
def test_epsilon_n_equals_its_display_in_mpmath(consts):
    import mpmath as mp
    with mp.workdps(40):
        c, m, _, tn, nt, s = _mp_constants(consts)
        p, q = consts.p, lambda a, b: mp.mpf(a) / b
        expo = (4 ** (p + q(1, 2)) * c ** (2 * p + 3) * tn ** q(3, 16) * s
                + (c**2 + 3**p * c ** (2 * p + 1)) * tn ** q(31, 32))
        term_a = (4 * c ** (2 * p + 2) * 3 ** (2 * p) * nt ** q(1, 16)
                  * (2 * c ** (p + 1) * tn ** q(7, 32) * s
                     + 16 * mp.sqrt(m) * mp.sqrt(tn)))
        term_b = (104 * mp.sqrt(m) * c ** (p + 1) * tn ** q(15, 32)
                  + 2 * c ** (2 * p + 2) * 3**p * tn ** q(3, 16) * s)
        tail = 3 ** (2 * p) * 4 * c ** (4 * p + 2) * nt ** q(1, 16)
        exact = (mp.exp(expo) * tail
                 * (term_a + term_b * (term_b + 4 * c**2 * nt ** q(1, 32))))
    assert epsilon_n(consts) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("consts", EXPONENT_POINTS, ids=lambda k: f"c{k.c}")
def test_moment_bound_equals_its_display_in_mpmath(consts):
    import mpmath as mp
    t, eu0 = 0.7 * consts.T, 1.7
    with mp.workdps(40):
        c, _, rho, tn, _, _ = _mp_constants(consts)
        p = consts.p
        C = (rho + 2 * c ** (p + 3) * tn ** (mp.mpf(15) / 16)
             + 32 * c ** (3 * p + 4) * tn ** (mp.mpf(13) / 32))
        Cbar = tn ** (mp.mpf(13) / 32) * (
            32 * c ** (3 * p + 4)
            + 4 ** (p + 3) / mp.mpf(2) * c ** (p * p + 4 * p + 4) * tn**p)
        growth = mp.exp(C * mp.mpf(t))
        exact = eu0 * growth + Cbar / C * (growth - 1)
    assert moment_bound(consts, t, eu0) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("field,value,message", [
    ("c", math.nan, "c must be >= T**(1/32) = 1.0 and finite, got nan"),
    ("rho", math.nan, "rho must be >= 0 and finite, got nan"),
    ("N", math.nan, "N must be an integer, got nan"),
    ("m", math.nan, "m must be an integer, got nan"),
    ("p", math.nan, "p must be an integer, got nan")])
def test_analysis_constants_reject_nan(field, value, message):
    # c, rho and N = NaN were accepted, and epsilon_n and moment_bound then
    # returned NaN or inf
    args = dict(c=2.5, p=3, T=1.0, m=1, rho=1.5, N=16)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AnalysisConstants(**{**args, field: value})


@pytest.mark.parametrize("field,message", [
    ("c", "c must be >= T**(1/32) = 1.0 and finite, got inf"),
    ("rho", "rho must be >= 0 and finite, got inf")])
def test_analysis_constants_reject_an_infinite_c_or_rho(field, message):
    # both were accepted: moment_bound then returned NaN, and with c = inf
    # n0_for reported log10_N0 = inf, which N0Report states is finite
    args = dict(c=2.5, p=3, T=1.0, m=1, rho=1.5, N=16)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AnalysisConstants(**{**args, field: math.inf})

@pytest.mark.parametrize("T", (0.0, -1.0, math.nan))
def test_analysis_constants_and_growth_fit_reject_a_horizon_that_is_not_positive(T):
    # T = -1 raised TypeError comparing c with the complex T**(1/32); T = 0
    # was accepted, and epsilon_n and n0_for then divided by zero or took
    # the log of zero
    message = f"^T must be > 0, got {T}$"
    with pytest.raises(ValueError, match=message):
        AnalysisConstants(c=2.5, p=3, T=T, m=1, rho=1.5, N=16)
    gl = model_ginzburg_landau()
    with pytest.raises(ValueError, match=message):
        fit_growth_constant(gl, gl.lyapunov, 3, T=T)


@pytest.mark.parametrize("m", (0, -1))
def test_analysis_constants_reject_no_noise(m):
    with pytest.raises(ValueError, match=f"^m must be >= 1, got {m}$"):
        AnalysisConstants(c=2.5, p=3, T=1.0, m=m, rho=1.5, N=16)


def test_fit_growth_constant_is_minimal_with_headroom():
    gl = model_ginzburg_landau()
    c_fit = fit_growth_constant(gl, gl.lyapunov, p=3)
    lhs_lip, poly_lip, dist, lhs_gro, poly_gro = diagnostics._growth_samples(
        gl, gl.lyapunov, 3)
    # c_fit dominates both inequalities at every sample, and c_fit / 1.1
    # meets one of them with equality at some sample
    assert (lhs_lip <= c_fit * poly_lip * dist).all()
    assert (lhs_gro <= c_fit * poly_gro).all()
    tightest = max(np.max(lhs_lip / (poly_lip * dist)), np.max(lhs_gro / poly_gro))
    assert tightest == pytest.approx(c_fit / 1.1, rel=1e-12)
    assert c_fit < 3.0  # cubic drift over the radius-10 ball needs c ~ 1.4


MODELS = ("gbm", "ginzburg-landau", "vdp")


@pytest.mark.parametrize("name,p", [(name, p) for name in MODELS
                                    for p in (1, 2, 3, 4)
                                    if (name, p) != ("ginzburg-landau", 3)])
def test_fit_growth_constant_dominates_every_growth_sample(name, p):
    # the test above at every other model and degree; gbm ships no Lyapunov
    # data, so its growth side holds the drift and diffusion terms alone,
    # and its fit may sit on the T**(1/32) = 1 floor
    model = catalog()[name].model
    c_fit = fit_growth_constant(model, model.lyapunov, p)
    lhs_lip, poly_lip, dist, lhs_gro, poly_gro = diagnostics._growth_samples(
        model, model.lyapunov, p)
    assert (lhs_lip <= c_fit * poly_lip * dist).all()
    assert (lhs_gro <= c_fit * poly_gro).all()
    tightest = max(np.max(lhs_lip / (poly_lip * dist)),
                   np.max(lhs_gro / poly_gro), 1.0)
    assert c_fit == pytest.approx(1.1 * tightest, rel=1e-12)


@pytest.mark.parametrize("name", MODELS)
def test_fit_growth_constant_floors_at_the_horizon_root(name):
    # AnalysisConstants wants c >= T**(1/32), 17.8 at T = 1e40: above what
    # any model's samples need, so the fit is 1.1 times the floor
    model = catalog()[name].model
    c_fit = fit_growth_constant(model, model.lyapunov, 3, T=1e40)
    assert c_fit == 1.1 * 1e40 ** (1.0 / 32.0)
    assert AnalysisConstants(c=c_fit, p=3, T=1e40, m=model.m, rho=0.0,
                             N=16).c == c_fit


# the fitted c with the growth samples drawn at both ends of the seed range
# and between (7 is the default), as it was when they came from Philox
# keyed with the seed itself
GROWTH_PINS = {
    ("ginzburg-landau", 0): 2.4067385582153835,
    ("ginzburg-landau", 7): 2.4067401469257828,
    ("ginzburg-landau", 2**64 - 1): 2.4067405826965715,
    ("vdp", 0): 5.294348337555637,
    ("vdp", 7): 5.307854183482409,
    ("vdp", 2**64 - 1): 5.308388411347842,
}


@pytest.mark.parametrize("name,seed", GROWTH_PINS)
def test_fit_growth_constant_pinned_values(monkeypatch, name, seed):
    model = catalog()[name].model
    monkeypatch.setattr(diagnostics, "_GROWTH_SEED", seed)
    assert fit_growth_constant(model, model.lyapunov, 3) == GROWTH_PINS[name, seed]


def test_n0_inequalities_hold_from_n0_on():
    consts = AnalysisConstants(c=2.5, p=3, T=1.0, m=1, rho=0.0, N=16)
    rep = n0_for(consts)
    assert rep.log10_N0 > 10  # far beyond desk scale for honest constants

    def ok(n):
        u = math.log(n / consts.T)
        first = math.sqrt(u) <= math.log(consts.c) + u / (32 * consts.p)
        second = (consts.c**consts.p * math.exp(-u * 7 / 32)
                  * (consts.T**0.75 + 1.0)) <= math.exp(u / (32 * consts.p))
        return first and second

    if math.isfinite(rep.N0):
        assert ok(rep.N0 * 1.01)
        assert not ok(rep.N0 * 0.5)
    # gap-free regime: log c >= 8p makes the threshold inequality global
    big = AnalysisConstants(c=math.exp(25.0), p=3, T=1.0, m=1, rho=0.0, N=16)
    rep_big = n0_for(big)
    assert rep_big.threshold_fit_all_N
    assert math.isfinite(rep_big.N0)



# (c, p, T, m) and n0_for's (log N0, threshold_fit_all_N), derived by hand:
# sqrt(u) <= log c + u / (32p) in u = log(N/T) holds for every u once
# log c >= 8p, and else from u = (16p (1 + sqrt(1 - log c / (8p))))^2 on;
# the step-size fit holds from u = (p log c + log(T^{3/4} + sqrt(m))) /
# (7/32 + 1/(32p)) on.  At c = 1 and p = 2 the threshold fit rules:
# u = 64^2.  At c = e^{16} = e^{8p}, where math.log gives 8p exactly, it
# holds for all N and the step-size fit rules: u = 64 (32 + log 2) / 15.
# At c = e^9, p = 1, T = 4 and m = 9: T^{3/4} + 3 = (1 + sqrt 2)^2.
N0_POINTS = {
    (1.0, 2, 1.0, 1): (4096.0, False),
    (math.exp(16.0), 2, 1.0, 1): (64.0 * (32.0 + math.log(2.0)) / 15.0, True),
    (math.exp(9.0), 1, 4.0, 9): (
        4.0 * (9.0 + 2.0 * math.log(1.0 + math.sqrt(2.0))) + math.log(4.0), True),
}


@pytest.mark.parametrize("point", N0_POINTS)
def test_n0_for_is_the_hand_derived_crossover(point):
    c, p, T, m = point
    log_n0, no_gap = N0_POINTS[point]
    rep = n0_for(AnalysisConstants(c=c, p=p, T=T, m=m, rho=0.0, N=16))
    assert rep.threshold_fit_all_N is no_gap
    assert rep.log10_N0 == pytest.approx(log_n0 / math.log(10.0), rel=1e-12)
    expected = math.exp(log_n0) if log_n0 < 709.0 else math.inf
    assert rep.N0 == pytest.approx(expected, rel=1e-12)

def _flat_spec():
    return LyapunovSpec(
        U=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        grad_U=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        hess_U=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        U_bar=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        rho=0.0, c=4.0, p=4, q0=4.0, q1=math.inf)


def test_exp_moment_trivial_u_is_exactly_one():
    gl = model_ginzburg_landau()
    est = exp_moment_estimate(gl, _flat_spec(), GridSpec(1.0, 32), 500, seed=0,
                              x0=[1.0])
    assert est.estimate == 1.0
    assert est.stderr == 0.0


@pytest.mark.parametrize("x0", (8.0, -8.0))
def test_exp_moment_of_a_start_outside_the_threshold(x0):
    # every path stops at tau = 0 and keeps its start, so each one's value
    # is exp(U(x0)), with no integral, and the paths agree
    gl = model_ginzburg_landau()
    spec = gl.lyapunov
    assert abs(x0) > stopping_threshold(64, 1.0)
    est = exp_moment_estimate(gl, spec, GridSpec(1.0, 64), 200, seed=0,
                              x0=[x0])
    u0 = float(spec.U(np.array([x0])))
    assert est.estimate == pytest.approx(math.exp(u0), rel=1e-14)
    assert est.stderr <= 1e-15 * est.estimate
    assert est.saturated_fraction == 0.0


def test_exp_moment_saturates_overflowing_paths_at_the_cap():
    # U = 700 x^2 with no integral: exp(U(Y_T)) reaches the 1e300 cap, or
    # overflows, on the paths that end with x^2 >= log(1e300) / 700, about
    # 0.987; each counts at the cap in the mean and as saturated
    gl = model_ginzburg_landau()
    flat = _flat_spec()
    spec = LyapunovSpec(U=lambda x: 700.0 * np.sum(np.asarray(x) ** 2, axis=-1),
                        grad_U=flat.grad_U, hess_U=flat.hess_U,
                        U_bar=flat.U_bar, rho=0.0, c=4.0, p=4, q0=4.0,
                        q1=math.inf)
    grid = GridSpec(1.0, 16)
    M = 300
    dw = generate_block(1.0, 16, 1, seed=2, first_path=0, count=M)
    final = run_paths(SchemeKind.STOPPED_BIT, gl, grid, [1.0], dw).states[:, -1]
    with np.errstate(over="ignore"):
        vals = np.minimum(np.exp(spec.U(final)), 1e300)
        est = exp_moment_estimate(gl, spec, grid, M, seed=2, x0=[1.0])
    assert 0.0 < est.saturated_fraction == np.mean(vals == 1e300) < 1.0
    assert est.estimate == float(np.mean(vals))
    # a capped mean has a finite spread
    assert est.stderr == pytest.approx(
        1e300 * np.std(vals / 1e300, ddof=1) / math.sqrt(M), rel=1e-12)


def test_exp_moment_stderr_stays_finite_where_the_squares_overflow():
    # GL's spec with U = 700 x^2: no value reaches the cap, but the largest
    # pass 1.3e154, whose squared deviations overflow float64; the stderr
    # is the exact one of the sampled values, and no warning is raised
    gl = model_ginzburg_landau()
    spec = dataclasses.replace(
        gl.lyapunov, U=lambda x: 700.0 * np.asarray(x, float)[..., 0] ** 2)
    grid, M = GridSpec(1.0, 16), 300
    paths = diagnostics._Paths(gl, np.array([1.0]), 1.0, 2,
                               ((SchemeKind.STOPPED_BIT, 16),), 16)
    [vals] = diagnostics._drive(
        paths, functools.partial(diagnostics._functional, spec), M)
    vals = np.concatenate(vals)
    assert 1.4e154 < vals.max() < 1e300
    with mpmath.workdps(50):
        exact = [mpmath.mpf(float(v)) for v in vals]
        mean = mpmath.fsum(exact) / M
        var = mpmath.fsum((v - mean) ** 2 for v in exact) / (M - 1)
        stderr = float(mpmath.sqrt(var / M))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = exp_moment_estimate(gl, spec, grid, M, seed=2, x0=[1.0])
    assert est.estimate == float(np.mean(vals))
    assert est.saturated_fraction == 0.0
    assert est.stderr == pytest.approx(stderr, rel=1e-12)


def test_exp_moment_flat_across_n_and_below_rate_bound():
    gl = model_ginzburg_landau()
    spec = gl.lyapunov
    u0 = float(spec.U(np.array([1.0])))
    ests = []
    for N in (16, 64, 256):
        est = exp_moment_estimate(gl, spec, GridSpec(1.0, N), 4000, seed=3,
                                  x0=[1.0])
        ests.append(est)
        consts = AnalysisConstants(c=2.5, p=3, T=1.0, m=1, rho=spec.rho, N=N)
        eps = epsilon_n(consts)
        if math.isfinite(eps):
            assert est.estimate <= math.exp(u0) * math.exp(eps * 1.0)
    vals = [e.estimate for e in ests]
    rel = max(e.stderr / e.estimate for e in ests)
    assert max(vals) / min(vals) <= 1.0 + 6.0 * rel


def test_stopping_probability_certain_when_started_outside():
    gl = model_ginzburg_landau()
    grid = GridSpec(1.0, 16)
    x0 = [stopping_threshold(16, 1.0) + 1.0]
    rep = stopping_probability(gl, grid, 200, seed=0, x0=x0)
    assert rep.estimate == 1.0


def test_stopping_probability_zero_for_still_model():
    from biteuler.core import SdeModel

    still = SdeModel(
        name="still", d=1, m=1,
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)))
    rep = stopping_probability(still, GridSpec(1.0, 16), 200, seed=0, x0=[0.5])
    assert rep.estimate == 0.0


def test_stopping_probability_keeps_increments_not_states():
    gbm = model_gbm(a=0.05, b=1.0)
    grid = GridSpec(1.0, 2048)
    tracemalloc.start()
    try:
        rep = stopping_probability(gbm, grid, 1000, seed=3, x0=[4.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dw = generate_block(1.0, 2048, 1, seed=3, first_path=0, count=1000)
    whole = run_paths(SchemeKind.STOPPED_BIT, gbm, grid, [4.0], dw)
    p_hat = np.mean(whole.tau_index < grid.N)
    assert 0 < rep.estimate == p_hat < 1
    assert rep.stderr == math.sqrt(p_hat * (1 - p_hat) / 1000)
    # the block's (B, N, m) increments, and not its (B, N + 1, d) states too
    assert peak < 1.5 * dw.nbytes


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exp_moment_estimate_keeps_increments_not_states():
    # a whole-horizon run holds the (B, N + 1, d) states, and the estimate
    # its (B, N) integrands, beside the block's (B, N, m) increments
    gl = model_ginzburg_landau()
    peak = _peak_bytes(lambda: exp_moment_estimate(
        gl, gl.lyapunov, GridSpec(1.0, 2048), 1000, seed=3, x0=[1.0]))
    assert peak < 1.5 * 1000 * 2048 * 8


ONE_BATCH = {
    "stopping": lambda gl, grid, M: stopping_probability(
        gl, grid, M, seed=10, x0=[1.0]),
    "exp-moment-estimate": lambda gl, grid, M: exp_moment_estimate(
        gl, gl.lyapunov, grid, M, seed=10, x0=[1.0]),
}


@pytest.mark.parametrize("name", ONE_BATCH)
def test_one_batch_estimators_memory_holds_one_block(name):
    # paths are stepped in 1000-path blocks, and each block's partial is a
    # node array or a few values per path, so a second block adds next to
    # nothing to the peak; a block's stream kept alive while the next block
    # is drawn adds its window
    gl = model_ginzburg_landau()

    def run(M: int):
        ONE_BATCH[name](gl, GridSpec(1.0, 256), M)

    run(10)  # one-time allocations of a first run stay out of the comparison
    assert _peak_bytes(lambda: run(2000)) <= 1.05 * _peak_bytes(lambda: run(1000))


def _integral_only_spec():
    """U = 0, U_bar = 1, rho = 0: the functional is exp(min(j, tau) h)."""
    flat = _flat_spec()
    return LyapunovSpec(U=flat.U, grad_U=flat.grad_U, hess_U=flat.hess_U,
                        U_bar=lambda x: np.ones(np.asarray(x).shape[:-1]),
                        rho=0.0, c=4.0, p=4, q0=4.0, q1=math.inf)


def test_exp_moment_integral_counts_steps_before_tau():
    # GBM with unit volatility from 4: some paths pass the threshold midway
    gbm = model_gbm(a=0.0, b=1.0)
    spec = _integral_only_spec()
    grid = GridSpec(1.0, 100)
    M = 500
    dw = generate_block(1.0, 100, 1, seed=4, first_path=0, count=M)
    tau = run_paths(SchemeKind.STOPPED_BIT, gbm, grid, [4.0], dw).tau_index
    assert ((tau > 0) & (tau < 100)).any()
    est = exp_moment_estimate(gbm, spec, grid, M, seed=4, x0=[4.0])
    vals = np.exp(np.minimum(100, tau) * grid.h)
    assert est.estimate == pytest.approx(np.mean(vals), rel=1e-13)
    assert est.stderr == pytest.approx(np.std(vals, ddof=1) / math.sqrt(M),
                                       rel=1e-9)


# ---------------------------------------------------------------------------
# start validation at the estimators


def test_stopping_probability_takes_the_last_seed_and_reports_no_bound():
    # the report names its grid and path count; the bound's fields stay in
    # it, always None
    gl = model_ginzburg_landau()
    rep = stopping_probability(gl, GridSpec(1.0, 16), 10, seed=2**64 - 1,
                               x0=[1.0])
    assert (rep.N, rep.M, rep.bound, rep.C1) == (16, 10, None, None)


@pytest.mark.parametrize("M", (0, 1))
def test_exp_moment_estimate_rejects_fewer_than_two_paths(M):
    # with M = 0 it would return NaN, and its stderr is 0.0 for M = 1,
    # which reads as exact
    gl = model_ginzburg_landau()
    with pytest.raises(ValueError, match=f"^M must be >= 2, got {M}$"):
        exp_moment_estimate(gl, gl.lyapunov, GridSpec(1.0, 16), M, seed=0,
                            x0=[1.0])


def test_exp_moment_estimate_rejects_short_start():
    # one component for the two-dimensional vdp would broadcast to both
    vdp = catalog()["vdp"].model
    with pytest.raises(ValueError, match="2 component"):
        exp_moment_estimate(vdp, vdp.lyapunov, GridSpec(1.0, 16), 10, seed=0,
                            x0=[1.0])


STARTED = {
    "stopping": lambda gl, x0: stopping_probability(
        gl, GridSpec(1.0, 16), 10, seed=0, x0=x0),
    "exp-moment-estimate": lambda gl, x0: exp_moment_estimate(
        gl, gl.lyapunov, GridSpec(1.0, 16), 10, seed=0, x0=x0),
}


@pytest.mark.parametrize("start", (math.nan, math.inf))
@pytest.mark.parametrize("name", STARTED)
def test_estimators_reject_a_non_finite_start_before_stepping(monkeypatch,
                                                              name, start):
    # a NaN start would end in a FloatingPointError from the stepping, and
    # an infinite one would freeze every path at node 0
    def no_stepping(*args):
        raise AssertionError("a path was stepped")
    monkeypatch.setattr(diagnostics, "run_paths", no_stepping)
    gl = model_ginzburg_landau()
    with pytest.raises(ValueError,
                       match=rf"^x0 must be finite, got \[{start}\]$"):
        STARTED[name](gl, [start])


def test_stopping_probability_decays_with_n():
    # GBM with unit volatility from x0 = 4 starts near the threshold, so the
    # stopped fraction is large at coarse N and falls as the radius
    # exp(sqrt(log N)) grows; each step down must exceed 3 combined stderr
    gbm = model_gbm(0.05, 1.0)
    reps = [stopping_probability(gbm, GridSpec(1.0, 2**k), 2000, seed=42,
                                 x0=[4.0]) for k in range(4, 13, 2)]
    assert reps[0].estimate >= 0.4
    for a, b in zip(reps, reps[1:]):
        assert a.estimate - b.estimate > 3.0 * math.hypot(a.stderr, b.stderr), \
            [r.estimate for r in reps]
