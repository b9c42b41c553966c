import math

import numpy as np
import pytest

from biteuler.brownian import generate_block
from biteuler.core import GridSpec, LyapunovSpec
from biteuler.models import (catalog, check_conditions, model_gbm,
                             model_ginzburg_landau, model_vdp,
                             tune_ginzburg_landau_spec, tune_vdp_spec)
from biteuler.schemes import SchemeKind, run_paths


def test_gbm_deterministic_cases():
    gbm = model_gbm(a=0.3, b=0.0)
    out = gbm.exact_solution(np.array([2.0]), np.array([1.0]), np.array([[0.0]]))
    assert out[0, 0] == pytest.approx(2.0 * math.exp(0.3))
    flat = model_gbm(a=0.0, b=0.0)
    out = flat.exact_solution(np.array([1.5]), np.array([0.7]), np.array([[0.3]]))
    assert out[0, 0] == pytest.approx(1.5)


def test_gbm_exact_solution_keeps_a_zero_start():
    # a zero start, of either sign, is the solution at every time, also
    # where the exponential overflows
    gbm = catalog()["gbm"].model
    for x0 in (0.0, -0.0):
        with np.errstate(over="ignore", invalid="ignore"):
            out = gbm.exact_solution(np.array([x0]), np.array([0.0, 1.0]),
                                     np.array([[0.0], [4000.0]]))
        assert out.tobytes() == np.array([[x0], [x0]]).tobytes()


def test_gbm_exact_solution_vs_euler_fine_grid():
    # fine-grid scheme as oracle for the closed form
    gbm = model_gbm(a=0.05, b=0.2)
    N = 2**12
    M = 10000
    grid = GridSpec(T=1.0, N=N)
    sq_err = 0.0
    for lo in range(0, M, 1000):
        dw = generate_block(1.0, N, 1, 77, lo, 1000)
        runs = run_paths(SchemeKind.EULER_MARUYAMA, gbm, grid, [1.0], dw)
        w_final = dw.sum(axis=1)
        exact = gbm.exact_solution(np.array([1.0]), np.array(1.0), w_final)
        sq_err += float(np.sum((runs.states[:, -1] - exact) ** 2))
    assert math.sqrt(sq_err / M) < 5e-3


def test_exact_solution_vs_stopped_bit_fine_grid():
    # validates the closed form against an independent scheme at N = 2^14
    gbm = model_gbm(a=0.05, b=0.2)
    N = 2**14
    M = 1000
    grid = GridSpec(T=1.0, N=N)
    dw = generate_block(1.0, N, 1, 78, 0, M)
    runs = run_paths(SchemeKind.STOPPED_BIT, gbm, grid, [1.0], dw)
    exact = gbm.exact_solution(np.array([1.0]), np.array(1.0), dw.sum(axis=1))
    err = math.sqrt(float(np.mean(np.sum((runs.states[:, -1] - exact) ** 2, axis=1))))
    assert err < 1e-2


def test_ginzburg_landau_drift_shape():
    gl = model_ginzburg_landau(alpha=1.0, beta=1.0, sigma0=1.0)
    assert gl.drift(np.array([0.0]))[0] == 0.0
    assert gl.drift(np.array([2.0]))[0] == pytest.approx(2.0 - 8.0)
    assert gl.diffusion(np.array([3.0]))[0, 0] == 1.0


def test_ginzburg_landau_one_sided_lipschitz():
    # <x-y, mu(x)-mu(y)> <= alpha |x-y|^2; the gap is beta*(x^2+xy+y^2) >= 0
    gl = model_ginzburg_landau()
    rng = np.random.Generator(np.random.Philox(key=12))
    x = rng.uniform(-10, 10, (20000, 1))
    y = rng.uniform(-10, 10, (20000, 1))
    lhs = np.sum((x - y) * (gl.drift(x) - gl.drift(y)), axis=1)
    assert np.all(lhs <= 1.0 * np.sum((x - y) ** 2, axis=1) + 1e-9)
    # symbolic gap check on a grid
    g = np.linspace(-10, 10, 201)
    X, Y = np.meshgrid(g, g)
    assert np.all(X**2 + X * Y + Y**2 >= -1e-12)


def test_ginzburg_landau_bit_stays_finite_while_euler_explodes():
    gl = model_ginzburg_landau()
    grid = GridSpec(T=1.0, N=1024)
    for lo in range(0, 10000, 2000):
        dw = generate_block(1.0, 1024, 1, 99, lo, 2000)
        runs = run_paths(SchemeKind.STOPPED_BIT, gl, grid, [2.0], dw)
        assert np.isfinite(runs.states).all()
        assert not runs.overflow.any()
    coarse = GridSpec(T=1.0, N=8)
    dw = generate_block(1.0, 8, 1, 99, 0, 2000)
    em = run_paths(SchemeKind.EULER_MARUYAMA, gl, coarse, [5.0], dw)
    assert em.overflow.mean() > 0


def test_vdp_drift_values():
    vdp = model_vdp()
    # second drift component at (1, 0) is -1
    mu = vdp.drift(np.array([1.0, 0.0]))
    assert mu[0] == 0.0
    assert mu[1] == pytest.approx(-1.0)


def test_vdp_origin_is_fixed_point_without_noise():
    vdp = model_vdp(a=1.0, b=1.0, c_damp=1.0, sigma0=0.0)
    grid = GridSpec(T=1.0, N=64)
    dw = generate_block(1.0, 64, 1, 3, 0, 4)
    runs = run_paths(SchemeKind.STOPPED_BIT, vdp, grid, [0.0, 0.0], dw)
    np.testing.assert_array_equal(runs.states, np.zeros_like(runs.states))


def test_shipped_lyapunov_specs_pass_checker():
    for name in ("ginzburg-landau", "vdp"):
        entry = catalog()[name]
        spec = entry.model.lyapunov
        report = check_conditions(entry.model, spec, 1.0, 10.0, 10000, seed=13)
        assert report.passed, (name, report)


def test_checker_trivial_model_no_violations():
    from biteuler.core import SdeModel

    zero = SdeModel(
        name="zero", d=1, m=1,
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)))
    # both sides of the dynamic conditions are zero; c = 4 keeps the
    # coercivity inequality (1/c)||x||^{1/c} <= 1 true on the whole ball
    spec = LyapunovSpec(
        U=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        grad_U=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        hess_U=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        U_bar=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        rho=0.0, c=4.0, p=4, q0=4.0, q1=math.inf)
    report = check_conditions(zero, spec, 1.0, 10.0, 2000, seed=1)
    assert report.passed
    assert report.generator.worst_margin == 0.0


def test_checker_flags_forced_gbm_quadratic_u():
    # generator LHS = 2 a x^2 + b^2 x^2 + 2 b^2 x^4 beats rho*x^2 for large x
    gbm = model_gbm(a=0.05, b=0.2)
    spec = LyapunovSpec(
        U=lambda x: np.sum(x * x, axis=-1),
        grad_U=lambda x: 2.0 * np.asarray(x, dtype=float),
        hess_U=lambda x: np.broadcast_to(
            2.0 * np.eye(1), np.asarray(x).shape[:-1] + (1, 1)).copy(),
        U_bar=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        rho=1.0, c=2.0, p=4, q0=4.0, q1=math.inf)
    # with rho = 1 the quartic term wins from |x| ~ 3.3 on, well inside the
    # sampled ball; larger rho only pushes the crossover outward
    report = check_conditions(gbm, spec, 1.0, 10.0, 5000, seed=3)
    assert report.generator.n_violations > 0
    # symbolic expansion oracle at x = 10
    x = np.array([10.0])
    lhs = (2 * 0.05 + 0.2**2) * 100 + 2 * 0.2**2 * 10000
    from biteuler.models import _generator_lhs
    assert _generator_lhs(gbm, spec, x) == pytest.approx(lhs)


def test_gbm_ships_without_lyapunov():
    assert catalog()["gbm"].model.lyapunov is None


def test_lyapunov_gradient_matches_finite_differences():
    for name in ("ginzburg-landau", "vdp"):
        spec = catalog()[name].model.lyapunov
        d = catalog()[name].model.d
        rng = np.random.Generator(np.random.Philox(key=8))
        x = rng.uniform(-5, 5, (500, d))
        delta = 1e-6
        for i in range(d):
            e = np.zeros(d)
            e[i] = delta
            fd = (spec.U(x + e) - spec.U(x - e)) / (2 * delta)
            np.testing.assert_allclose(fd, spec.grad_U(x)[:, i],
                                       rtol=1e-5, atol=1e-5)
            fd2 = (spec.grad_U(x + e) - spec.grad_U(x - e)) / (2 * delta)
            np.testing.assert_allclose(fd2, spec.hess_U(x)[:, :, i],
                                       rtol=1e-5, atol=1e-5)


def test_holder_triple_of_shipped_specs():
    # 1/p + 1/q0 + 1/q1 = 1/r, with 1/inf = 0, for the error norm r = 2
    # that every study uses (ConvergenceConfig's default)
    for name in ("ginzburg-landau", "vdp"):
        spec = catalog()[name].model.lyapunov
        assert 1.0 / spec.p + 1.0 / spec.q0 + 1.0 / spec.q1 == 1.0 / 2.0


def test_tuned_constants_for_nondefault_parameters():
    gl = model_ginzburg_landau(alpha=0.5, beta=2.0, sigma0=0.7)
    report = check_conditions(gl, gl.lyapunov, 1.0, 10.0, 5000, seed=5)
    assert report.passed
    vdp = model_vdp(a=0.5, b=1.0, c_damp=2.0, sigma0=0.3)
    report = check_conditions(vdp, vdp.lyapunov, 1.0, 10.0, 5000, seed=5)
    assert report.passed


def test_beta_must_be_positive():
    with pytest.raises(ValueError):
        model_ginzburg_landau(beta=0.0)


@pytest.mark.parametrize("build,args,message", [
    (tune_ginzburg_landau_spec, (1.0, 0.0, 1.0), "beta must be positive"),
    (tune_vdp_spec, (1.0, 1.0, 0.0, 0.5),
     "c_damp must be positive for dissipation"),
    (tune_vdp_spec, (1.0, 0.0, 1.0, 0.5), "b must be positive"),
    # a non-default model is tuned, so the tuner's check is the model's
    (model_vdp, (1.0, 1.0, -1.0, 0.5), "c_damp must be positive for dissipation"),
    (model_vdp, (1.0, 1.0, 1.0, -0.5), "sigma0 must be nonnegative")],
    ids=("gl-tune-beta", "vdp-tune-c_damp", "vdp-tune-b", "vdp-c_damp",
         "vdp-sigma0"))
def test_tuners_and_models_reject_parameters_out_of_range(build, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*args)


def _bar_only_spec(q1: float) -> LyapunovSpec:
    """U = 0 and U_bar = 1: the monotonicity slack is the q1 term alone."""
    return LyapunovSpec(
        U=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        grad_U=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        hess_U=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        U_bar=lambda x: np.ones(np.asarray(x).shape[:-1]),
        rho=0.5, c=4.0, p=4, q0=4.0, q1=q1)


def test_a_finite_q1_lowers_every_monotonicity_margin_by_its_slack():
    # (|U_bar(x)| + |U_bar(y)|) / (q1 * 2 e^{rho T}) = 1 / (2 e^{0.5}) at
    # q1 = 2 and T = 1, the same at every pair; the shipped specs all have
    # q1 = inf, which adds nothing
    gl = catalog()["ginzburg-landau"].model
    free = check_conditions(gl, _bar_only_spec(math.inf), 1.0, 10.0, 2000, seed=1)
    held = check_conditions(gl, _bar_only_spec(2.0), 1.0, 10.0, 2000, seed=1)
    assert (held.generator, held.coercivity) == (free.generator, free.coercivity)
    assert held.monotonicity.worst_margin == pytest.approx(
        free.monotonicity.worst_margin - 0.5 * math.exp(-0.5), rel=1e-12)


# the reports at both ends of the seed range and between, as they were when
# check_conditions keyed Philox with the seed itself: its key words [seed, 0]
# are the sampled-check generator's
CONDITION_PINS = {
    ("ginzburg-landau", 0): (-0.09375006331092156, -0.5829483732334636,
                             -0.8309916376492981),
    ("ginzburg-landau", 7): (-0.09375000976233044, -0.5201297466054852,
                             -0.8309777909361931),
    ("ginzburg-landau", 2**64 - 1): (-0.09379606300900739, -0.5273233853039263,
                                     -0.8309751573758279),
    ("vdp", 0): (-0.6752603242468415, -37.45598488913687, -1.3967768937191587),
    ("vdp", 7): (-0.5774184387748901, -34.804811852662056, -1.2486470490365869),
    ("vdp", 2**64 - 1): (-0.5768048400989737, -41.34475498895327,
                         -1.2560070194126294),
}


@pytest.mark.parametrize("name,seed", CONDITION_PINS)
def test_check_conditions_pinned_values(name, seed):
    model = catalog()[name].model
    report = check_conditions(model, model.lyapunov, 1.0, 10.0, 400, seed=seed)
    stats = (report.generator, report.monotonicity, report.coercivity)
    assert [(c.n_checked, c.n_violations) for c in stats] == [(400, 0)] * 3
    assert tuple(c.worst_margin for c in stats) == CONDITION_PINS[name, seed]


@pytest.mark.parametrize("n_points", (1, 0, -5))
def test_check_conditions_rejects_fewer_than_two_points(n_points):
    # one point makes no pair: 0 and 1 used to end in numpy's "zero-size
    # array to reduction operation", -5 in "negative dimensions"
    vdp = catalog()["vdp"].model
    with pytest.raises(ValueError, match=f"^n_points must be >= 2, got {n_points}$"):
        check_conditions(vdp, vdp.lyapunov, 1.0, 10.0, n_points)
    report = check_conditions(vdp, vdp.lyapunov, 1.0, 10.0, 2)
    assert report.monotonicity.n_checked == 2


@pytest.mark.parametrize("radius", (0.0, -1.0, math.inf, math.nan))
def test_check_conditions_rejects_a_radius_without_a_ball(radius):
    # 0 sampled only the origin, -1 a reflected ball, and inf NaN points
    vdp = catalog()["vdp"].model
    with pytest.raises(ValueError, match="^radius must be finite and > 0"):
        check_conditions(vdp, vdp.lyapunov, 1.0, radius, 400)


@pytest.mark.parametrize("T", (0.0, -1.0, math.nan))
def test_sampled_checks_reject_a_horizon_that_is_not_positive(T):
    # T = 0 divided the monotonicity slack by zero (margin -inf, passed) and
    # T = -1 reported violations that do not exist
    gl, vdp = catalog()["ginzburg-landau"].model, catalog()["vdp"].model
    message = f"^T must be > 0, got {T}$"
    for model in (gl, vdp):
        with pytest.raises(ValueError, match=message):
            check_conditions(model, model.lyapunov, T, 10.0, 400)


@pytest.mark.parametrize("name,radius", [("vdp", 1e80),
                                         ("ginzburg-landau", 1e200)])
def test_a_nan_margin_is_a_violation(name, radius):
    # the quartic terms overflow to inf - inf: a NaN margin is an inequality
    # that was not verified, and used to count as 0 violations
    model = catalog()[name].model
    with np.errstate(all="ignore"):
        report = check_conditions(model, model.lyapunov, 1.0, radius, 400)
    stats = (report.generator, report.monotonicity, report.coercivity)
    nan = [c for c in stats if math.isnan(c.worst_margin)]
    assert nan and all(c.n_violations > 0 for c in nan)
    assert not report.passed
