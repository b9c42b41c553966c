import math
import warnings

import numpy as np
import pytest

from biteuler.taming import (TamingParams, _moment_check, stopping_threshold,
                             tame, tame_jacobian_diag, tame_laplacian,
                             verify_taming_bounds)

# High-precision reference values (mpmath, 40 digits, rounded to float64).
EXP_M1 = 0.36787944117144233          # exp(-1)
JAC_AT_1 = -1.1036383235143270        # -3*exp(-1)
LAP_AT_1 = -1.4715177646857693        # -4*exp(-1)
THRESH_1024 = 13.912237489357499      # exp(sqrt(log(1024)))
THRESH_10 = 4.560476571618193         # exp(sqrt(log(10)))


def test_tame_at_zero():
    p = TamingParams(h=0.3, m=2)
    np.testing.assert_array_equal(tame(p, np.zeros(2)), np.zeros(2))


def test_tame_closed_form_value():
    p = TamingParams(h=1.0, m=1)
    assert tame(p, np.array([1.0]))[0] == pytest.approx(EXP_M1, rel=1e-15)


def test_tame_takes_a_scalar_and_leaves_its_input():
    # a scalar gives the scalar the one-element array gives, and an array
    # input is not overwritten by the in-place evaluation
    p = TamingParams(h=0.3, m=1)
    x = np.array([0.5, -1.25, 40.0])
    before = x.copy()
    out = tame(p, x)
    assert x.tobytes() == before.tobytes()
    for v, t in zip(before, out):
        assert tame(p, float(v)) == t and np.ndim(tame(p, float(v))) == 0


def test_tame_odd_symmetry():
    rng = np.random.Generator(np.random.Philox(key=1))
    x = rng.standard_normal((1000, 3)) * 2.0
    p = TamingParams(h=0.37, m=3)
    np.testing.assert_array_equal(tame(p, -x), -tame(p, x))


@pytest.mark.parametrize("h", [1.0, 0.1, 0.01, 7.3])
def test_tame_bounded_by_quarter_root(h):
    # deterministic bound, checked by optimization over a dense 1-d grid
    p = TamingParams(h=h, m=1)
    x = np.linspace(-10 * h**0.25, 10 * h**0.25, 200001)
    assert np.abs(tame(p, x)).max() <= h**0.25


def test_tame_underflow_is_exact_zero():
    p = TamingParams(h=1.0, m=1)
    big = np.array([1e3, -1e5, 1e10])
    np.testing.assert_array_equal(tame(p, big), np.zeros(3))
    np.testing.assert_array_equal(tame_jacobian_diag(p, big), np.zeros(3))
    np.testing.assert_array_equal(tame_laplacian(p, big), np.zeros(3))
    # x**4 overflows the float range here; the limit is still an exact 0,
    # and no overflow or invalid operation surfaces, whatever the caller's
    # error state
    huge = np.array([1e100, -1e200, 1.7e308])
    with np.errstate(over="raise", invalid="raise"):
        for f in (tame, tame_jacobian_diag, tame_laplacian):
            np.testing.assert_array_equal(f(p, huge), np.zeros(3))


def test_jacobian_identity_at_zero():
    p = TamingParams(h=0.25, m=4)
    np.testing.assert_array_equal(tame_jacobian_diag(p, np.zeros(4)), np.ones(4))


def test_laplacian_zero_at_zero():
    p = TamingParams(h=0.25, m=4)
    np.testing.assert_array_equal(tame_laplacian(p, np.zeros(4)), np.zeros(4))


def test_jacobian_closed_form_value():
    p = TamingParams(h=1.0, m=1)
    assert tame_jacobian_diag(p, np.array([1.0]))[0] == pytest.approx(JAC_AT_1, rel=1e-14)


def test_laplacian_closed_form_value():
    p = TamingParams(h=1.0, m=1)
    assert tame_laplacian(p, np.array([1.0]))[0] == pytest.approx(LAP_AT_1, rel=1e-14)


def _random_scaled_points(n, seed):
    """(x, h) pairs with x in the map's natural length scale h**(1/4)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    h = np.exp(rng.uniform(math.log(0.01), math.log(10.0), n))
    x = rng.standard_normal(n) * 1.2 * h**0.25
    return x, h


def test_jacobian_matches_finite_differences():
    # central difference of tame with a step on the natural scale
    x, hs = _random_scaled_points(10000, seed=2)
    exact = np.empty_like(x)
    fd = np.empty_like(x)
    for i, (xi, hi) in enumerate(zip(x, hs)):
        p = TamingParams(h=hi, m=1)
        d = 1e-6 * hi**0.25
        exact[i] = tame_jacobian_diag(p, np.array([xi]))[0]
        fd[i] = (tame(p, np.array([xi + d]))[0] - tame(p, np.array([xi - d]))[0]) / (2 * d)
    np.testing.assert_allclose(fd, exact, rtol=1e-6, atol=1e-9)


def test_laplacian_matches_finite_differences():
    x, hs = _random_scaled_points(10000, seed=3)
    exact = np.empty_like(x)
    fd = np.empty_like(x)
    for i, (xi, hi) in enumerate(zip(x, hs)):
        p = TamingParams(h=hi, m=1)
        d = 3e-4 * hi**0.25
        f = lambda v: tame(p, np.array([v]))[0]
        exact[i] = tame_laplacian(p, np.array([xi]))[0]
        fd[i] = (f(xi + d) - 2 * f(xi) + f(xi - d)) / d**2
    # second differences are noisier; scale-aware absolute floor
    np.testing.assert_allclose(fd * hs**0.5, exact * hs**0.5, rtol=1e-5, atol=2e-7)


def _laplacian_mp(x: float, h: float) -> float:
    import mpmath as mp

    with mp.workdps(50):
        x, h = mp.mpf(x), mp.mpf(h)
        return float(mp.exp(-x**4 / h) * (16 * x**7 / h**2 - 20 * x**3 / h))


# h on both sides of sqrt(smallest normal float) = 1.4917e-154, below which
# h**2 is subnormal, and far below it
@pytest.mark.parametrize("h", (1.5e-154, 1.49e-154, 1e-156, 1e-163, 1e-200,
                               1e-300))
@pytest.mark.parametrize("scale", ("quarter-root", "square-root",
                                   "five quarter-roots"))
def test_laplacian_keeps_its_digits_when_h_squared_is_subnormal(h, scale):
    # 16 x^7 / h^2 lost digits with h^2 subnormal (2.7e-10 relative at
    # 1e-156) and was inf, with a divide-by-zero warning, or NaN once h^2
    # was 0 (1e-163 on); points at the taming scale h^(1/4) and at the
    # scale sqrt(h) that verify_taming_bounds draws at.  At 5 h^(1/4) some
    # points have u = x^4 / h past 708, where exp(-u) is subnormal or 0
    # while x^3 / h is huge: their values were 0, or off by up to 14%
    rng = np.random.Generator(np.random.Philox(key=8))
    width = {"quarter-root": 1.2 * h**0.25, "square-root": math.sqrt(h),
             "five quarter-roots": 5.0 * h**0.25}[scale]
    x = rng.standard_normal(500) * width
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tame_laplacian(TamingParams(h=h, m=1), x)
    want = [_laplacian_mp(float(v), h) for v in x]
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("h", (1.0, 0.01, 1e-50, 1e-100))
def test_laplacian_keeps_its_digits_where_exp_underflows(h):
    # exp(-u) below the smallest normal float at a moderate h: the values
    # there were 0 or lost digits (0.13 relative at 1e-50), and at 1e-100
    # some are normal floats near 1e-290
    rng = np.random.Generator(np.random.Philox(key=9))
    u = rng.uniform(700.0, 900.0, 500)
    x = (u * h) ** 0.25 * np.where(rng.random(500) < 0.5, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tame_laplacian(TamingParams(h=h, m=1), x)
    want = [_laplacian_mp(float(v), h) for v in x]
    assert sum(w != 0.0 for w in want) > 100
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


def test_laplacian_where_exp_underflows_at_a_subnormal_h_squared():
    # u = 764: exp(-u) is 0 and the value was 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tame_laplacian(TamingParams(h=1.4e-154, m=1),
                             np.array([-1.808e-38]))
    assert got[0] == pytest.approx(_laplacian_mp(-1.808e-38, 1.4e-154),
                                   rel=1e-12, abs=0.0)
    assert got[0] == pytest.approx(-1.72644e-287, rel=1e-5, abs=0.0)


def test_laplacian_bound_at_a_tiny_h_scales_as_at_a_moderate_one():
    # the samples are Z sqrt(h) with the same Z at every h, and the
    # Laplacian is -20 x^3 / h to within a factor 1 + O(x^4 / h), so its
    # L2 estimate over sqrt(h) is the same at h = 1e-300 as at 1e-100 (it
    # was NaN), and above the bound 32 sqrt(h), as at h = 0.01
    tiny = verify_taming_bounds(TamingParams(h=1e-300, m=1), 1000, 0).laplacian
    ref = verify_taming_bounds(TamingParams(h=1e-100, m=1), 1000, 0).laplacian
    assert math.isfinite(tiny.estimate)
    assert tiny.estimate / 1e-150 == pytest.approx(ref.estimate / 1e-50,
                                                   rel=1e-12)
    assert not tiny.passed and not ref.passed


def test_stopping_threshold_trivial_points():
    assert stopping_threshold(1, 1.0) == 1.0
    assert stopping_threshold(1, 1) == pytest.approx(1.0)
    # N/T = e gives exp(sqrt(1)) = e
    assert stopping_threshold(271828, 100000.0) == pytest.approx(math.e, rel=1e-5)
    # N < T is a valid grid: the radius reads |log(N/T)|, so it is at least 1
    assert stopping_threshold(1, math.e) == pytest.approx(math.e, rel=1e-15)
    assert stopping_threshold(4, 64.0) == pytest.approx(
        stopping_threshold(16, 1.0), rel=1e-15)


def test_stopping_threshold_frozen_value():
    assert stopping_threshold(1024, 1.0) == pytest.approx(THRESH_1024, rel=1e-15)
    # correctly rounded at N = 10, where the mirrored log(T/N), a log of the
    # rounded 0.1, lands one ulp away
    assert stopping_threshold(10, 1.0) == THRESH_10


def test_stopping_threshold_monotone_in_n():
    vals = [stopping_threshold(n, 1.0) for n in range(1, 4000)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_stopping_threshold_validation():
    with pytest.raises(ValueError):
        stopping_threshold(0, 1.0)
    with pytest.raises(ValueError):
        stopping_threshold(4, 0.0)


@pytest.mark.parametrize("h", (math.inf, 0.0, -1.0, math.nan))
def test_taming_params_want_a_finite_positive_h(h):
    # h = inf was accepted, and its bound checks returned NaN estimates
    with pytest.raises(ValueError, match=f"^h must be finite and > 0, got {h}$"):
        TamingParams(h=h, m=1)


def test_verify_taming_bounds_rejects_small_samples():
    with pytest.raises(ValueError):
        verify_taming_bounds(TamingParams(h=0.1, m=1), 10, seed=0)


def test_linf_bound_is_pathwise_and_strict():
    rep = verify_taming_bounds(TamingParams(h=0.01, m=3), 100000, seed=17)
    assert rep.linf_pathwise_fraction == 1.0
    assert rep.linf.passed
    # sup of |x e^{-x^4}| is (4e)^{-1/4} ~ 0.55, so the margin is wide
    assert rep.linf.estimate < 0.6 * rep.linf.bound


def test_jacobian_bound_holds_with_margin():
    for h in (1.0, 0.1, 0.01):
        rep = verify_taming_bounds(TamingParams(h=h, m=1), 100000, seed=18)
        assert rep.jacobian.passed
        assert rep.jacobian.margin_stderr > 3.0


def test_laplacian_bound_large_h():
    for h in (1.0, 0.1):
        rep = verify_taming_bounds(TamingParams(h=h, m=1), 100000, seed=19)
        assert rep.laplacian.passed
        assert rep.laplacian.margin_stderr > 3.0


def test_laplacian_bound_fails_below_crossover_scale():
    # The claimed constant 32 is below the small-h asymptotic value
    # 20*sqrt(E[Z^6]) = 20*sqrt(15) ~ 77.5 of the Laplacian's L2 norm, so
    # for h below ~0.05 the Monte Carlo estimate sits ABOVE 32*sqrt(h*m).
    # Quadrature value at h = 0.01 is 4.1888 against a bound of 3.2.
    rep = verify_taming_bounds(TamingParams(h=0.01, m=1), 100000, seed=20)
    assert not rep.laplacian.passed
    # the other two checks pass, and the report as a whole fails
    assert rep.linf.passed and rep.jacobian.passed and not rep.all_passed
    assert rep.laplacian.estimate == pytest.approx(4.1888, rel=0.02)
    assert rep.laplacian.bound == pytest.approx(3.2, rel=1e-12)



def test_moment_check_of_zero_samples_and_at_its_bound():
    # all-zero samples (the Jacobian's at h = 1e-300, where every x**4
    # underflows) give estimate and stderr 0, not a division by zero; an
    # estimate equal to its bound does not pass, and its margin is -inf
    zero = _moment_check(np.zeros(1000), 1.0)
    assert (zero.estimate, zero.stderr, zero.passed,
            zero.margin_stderr) == (0.0, 0.0, True, math.inf)
    tie = _moment_check(np.full(1000, 4.0), 2.0)
    assert (tie.estimate, tie.stderr, tie.passed,
            tie.margin_stderr) == (2.0, 0.0, False, -math.inf)


# h**(1/4) sqrt(m), 52 h sqrt(m) and 32 sqrt(h m) at (h, m), by hand
TAMING_BOUNDS = {(0.0625, 4): (1.0, 6.5, 16.0), (0.0016, 9): (0.6, 0.2496, 3.84)}


@pytest.mark.parametrize("h,m", TAMING_BOUNDS)
def test_verify_taming_bounds_reports_the_displayed_bounds(h, m):
    rep = verify_taming_bounds(TamingParams(h=h, m=m), 1000, seed=0)
    bounds = (rep.linf.bound, rep.jacobian.bound, rep.laplacian.bound)
    assert bounds == pytest.approx(TAMING_BOUNDS[h, m], rel=1e-12)

# (linf estimate, linf fraction, jacobian estimate and stderr, laplacian
# estimate and stderr) at both ends of the seed range and between, as they
# were when the samples came from Philox keyed with the seed itself
TAMING_PINS = {
    0: (0.4372812990553087, 1.0, 1.1072573944498283, 0.022176041778282068,
        5.490519232614295, 0.08830181069812588),
    7: (0.4378279658170534, 1.0, 1.1001215136532467, 0.021765568147366635,
        5.703028581506477, 0.08606739096858876),
    2**64 - 1: (0.43663800333251507, 1.0, 1.1023787361263178,
                0.02217940132290476, 5.562438731242619, 0.08689272641939787),
}


@pytest.mark.parametrize("seed", TAMING_PINS)
def test_verify_taming_bounds_pinned_values(seed):
    r = verify_taming_bounds(TamingParams(h=0.1, m=2), 1000, seed)
    assert (r.linf.estimate, r.linf_pathwise_fraction, r.jacobian.estimate,
            r.jacobian.stderr, r.laplacian.estimate,
            r.laplacian.stderr) == TAMING_PINS[seed]
