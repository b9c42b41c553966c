import math
import pickle
import warnings

import numpy as np
import pytest

from biteuler import models
from biteuler.brownian import generate_block
from biteuler.core import GridSpec, LyapunovSpec, SdeModel
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
    # where the exponential overflows, and computing it warns of nothing
    gbm = catalog()["gbm"].model
    for x0 in (0.0, -0.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gbm.exact_solution(np.array([x0]), np.array([0.0, 1.0]),
                                     np.array([[0.0], [4000.0]]))
        assert out.tobytes() == np.array([[x0], [x0]]).tobytes()


def test_gbm_exact_solution_overflows_from_a_nonzero_start():
    gbm = catalog()["gbm"].model
    with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
        out = gbm.exact_solution(np.array([1e-300]), np.array([0.0, 1.0]),
                                 np.array([[0.0], [4000.0]]))
    assert out.tolist() == [[1e-300], [math.inf]]


def test_gbm_exact_solution_takes_a_scalar_time():
    gbm = catalog()["gbm"].model
    w = np.array([[0.3]])
    at = gbm.exact_solution(np.array([2.0]), 0.5, w)
    assert at.tobytes() == gbm.exact_solution(np.array([2.0]), np.array(0.5),
                                              w).tobytes()
    assert at[0, 0] == pytest.approx(2.0 * math.exp(0.03 * 0.5 + 0.2 * 0.3))


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
    gl = model_ginzburg_landau()
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
    vdp = model_vdp(sigma0=0.0)
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
    vdp = model_vdp(sigma0=0.3)
    report = check_conditions(vdp, vdp.lyapunov, 1.0, 10.0, 5000, seed=5)
    assert report.passed


def test_vdp_off_the_default_sigma0_is_built_from_its_tuned_constants():
    # at sigma0 = 3 eps = 1/18 differs from u0 = 1/2 and from sigma0, which
    # at sigma0 <= 1 all coincide with 0.5 and could not tell each other apart
    vdp = model_vdp(sigma0=3.0)
    eps, u0, rho, c = tune_vdp_spec(3.0)
    spec = vdp.lyapunov
    assert (spec.rho, spec.c) == (rho, c) and eps != u0
    z = np.array([[1.5, -2.0], [0.0, 0.5]])
    x, v = z[:, 0], z[:, 1]
    np.testing.assert_allclose(spec.U(z), eps * (0.5 * x**4 + v**2 + u0),
                               rtol=1e-15)
    np.testing.assert_allclose(spec.grad_U(z),
                               eps * np.stack([2 * x**3, 2 * v], axis=-1),
                               rtol=1e-15)
    np.testing.assert_allclose(spec.hess_U(z)[:, 0, 0], 6 * eps * x**2,
                               rtol=1e-15)
    assert spec.hess_U(z)[:, 1, 1].tolist() == [2 * eps] * 2
    assert vdp.diffusion(z)[:, 1, 0].tolist() == (3.0 * x).tolist()
    report = check_conditions(vdp, spec, 1.0, 10.0, 5000, seed=5)
    assert report.passed


def test_ginzburg_landau_tuner_takes_the_quotients_supremum():
    # at eps = 1/4 the generator quotient is (1 + 2.5u - 2u**2)/(1 + u) in
    # u = x**2, largest at u = (sqrt(7) - 2)/2, which the scan's grid of
    # step 1.5e-4 misses by less than 1e-8
    eps, rho, c = tune_ginzburg_landau_spec()
    u = (math.sqrt(7.0) - 2.0) / 2.0
    top = 1.15 * (1.0 + 2.5 * u - 2.0 * u * u) / (1.0 + u)
    assert (eps, c) == (0.25, 1.15)
    assert rho <= top and rho == pytest.approx(top, rel=1e-8)


@pytest.mark.parametrize("sigma0,eps,rho", [
    (0.0, 0.5, 2.3), (0.3, 0.5, 2.3), (0.5, 0.5, 2.3), (3.0, 1 / 18, 10.35)])
def test_vdp_tuner_follows_its_formulas(sigma0, eps, rho):
    # eps = min(1/2, 1/(2 sigma0**2)), u0 = 1/2, rho = 1.15 max(2, sigma0**2),
    # and c is 1.15 times the largest local-monotonicity quotient less its
    # slack on the 401 x 401 grid of the ball, recomputed here from the
    # eigenvalues of the symmetrised drift Jacobian
    tuned = tune_vdp_spec(sigma0)
    assert tuned[:3] == pytest.approx((eps, 0.5, rho), rel=1e-15)
    X, V = np.meshgrid(np.linspace(-10.0, 10.0, 401),
                       np.linspace(-10.0, 10.0, 401), indexing="ij")
    inside = X**2 + V**2 <= 100.0
    x, v = X[inside], V[inside]
    jac = np.zeros(x.shape + (2, 2))  # of (v, v - x**3 - x**2 v)
    jac[:, 0, 1] = 1.0
    jac[:, 1, 0] = -3.0 * x**2 - 2.0 * x * v
    jac[:, 1, 1] = 1.0 - x**2
    lam = np.linalg.eigvalsh(0.5 * (jac + jac.transpose(0, 2, 1)))[:, -1]
    U = eps * (0.5 * x**4 + v**2 + 0.5)
    need = np.max(lam + 3.0 * sigma0**2 - U / (4.0 * math.exp(rho)))
    assert tuned[3] == pytest.approx(1.15 * need, rel=1e-12)


@pytest.mark.parametrize("build,args,message", [
    (model_vdp, (-0.5,), "sigma0 must be >= 0 and finite, got -0.5"),
    # NaN used to reach the tuner and fail as "c must be ...", inf as "rho"
    (model_vdp, (math.nan,), "sigma0 must be >= 0 and finite, got nan"),
    (model_vdp, (math.inf,), "sigma0 must be >= 0 and finite, got inf"),
    # a non-finite GBM coefficient used to build a model of NaN paths
    (model_gbm, (math.nan, 0.2), "a must be finite, got nan"),
    (model_gbm, (0.05, math.inf), "b must be finite, got inf"),
    (model_gbm, (0.05, -math.inf), "b must be finite, got -inf")],
    ids=("vdp-sigma0", "vdp-sigma0-nan", "vdp-sigma0-inf", "gbm-a-nan",
         "gbm-b-inf", "gbm-b-minus-inf"))
def test_models_reject_parameters_out_of_range(build, args, message):
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


@pytest.mark.parametrize("T", (1.0, 2.0))
def test_a_finite_q1_lowers_every_monotonicity_margin_by_its_slack(T):
    # (|U_bar(x)| + |U_bar(y)|) / (q1 * 2 e^{rho T}) = 1 / (2 e^{0.5 T}) at
    # q1 = 2, the same at every pair; the shipped specs all have q1 = inf,
    # which adds nothing
    gl = catalog()["ginzburg-landau"].model
    free = check_conditions(gl, _bar_only_spec(math.inf), T, 10.0, 2000, seed=1)
    held = check_conditions(gl, _bar_only_spec(2.0), T, 10.0, 2000, seed=1)
    assert (held.generator, held.coercivity) == (free.generator, free.coercivity)
    assert held.monotonicity.worst_margin == pytest.approx(
        free.monotonicity.worst_margin - 0.5 * math.exp(-0.5 * T), rel=1e-12)


def _constant_u_spec(u: float, q0: float) -> LyapunovSpec:
    """U = u and U_bar = 0: the monotonicity slack is the q0 term alone."""
    return LyapunovSpec(
        U=lambda x: np.full(np.asarray(x).shape[:-1], u),
        grad_U=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        hess_U=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        U_bar=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        rho=0.5, c=4.0, p=4, q0=q0, q1=math.inf)


@pytest.mark.parametrize("T", (1.0, 2.0))
def test_a_finite_q0_lowers_every_monotonicity_margin_by_its_slack(T):
    # (|U(x)| + |U(y)|) / (q0 T 2 e^{rho T}) = 1 / (T e^{0.5 T}) at U = 2
    # and q0 = 2, the same at every pair
    gl = catalog()["ginzburg-landau"].model
    free = check_conditions(gl, _constant_u_spec(2.0, math.inf), T, 10.0, 2000,
                            seed=1)
    held = check_conditions(gl, _constant_u_spec(2.0, 2.0), T, 10.0, 2000,
                            seed=1)
    assert held.monotonicity.worst_margin == pytest.approx(
        free.monotonicity.worst_margin - 1.0 / (T * math.exp(0.5 * T)),
        rel=1e-12)


def test_coercivity_holds_against_the_size_of_u():
    # (1/c)||x||^(1/c) <= 1 + |U(x)|: a negative U bounds as its size does
    gl = catalog()["ginzburg-landau"].model
    up, down = (check_conditions(gl, _constant_u_spec(u, 4.0), 1.0, 10.0, 400)
                for u in (5.0, -5.0))
    assert down.coercivity == up.coercivity
    assert up.coercivity.n_violations == 0


def test_generator_lhs_adds_u_bar():
    # every term but U_bar is zero for a zero model and a zero U
    zero = SdeModel(
        name="zero", d=1, m=1,
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)))
    x = np.array([[0.5], [-3.0]])
    assert models._generator_lhs(zero, _bar_only_spec(2.0), x).tolist() == [1.0, 1.0]


def test_pair_gaps_drop_coincident_pairs():
    # a coincident pair has no quotient: 0/0 would count as a violation
    gl = catalog()["ginzburg-landau"].model
    x = np.array([[1.0], [2.0], [-3.0]])
    y = np.array([[1.0], [0.0], [-3.0]])
    xs, ys, dz, dmu, dsig = models._pair_gaps(gl, x, y)
    assert (xs.tolist(), ys.tolist(), dz.tolist()) == ([[2.0]], [[0.0]], [[2.0]])
    assert dmu.tolist() == [[-6.0]] and dsig.tolist() == [[[0.0]]]


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


@pytest.mark.parametrize("name,additive", [("gbm", False),
                                           ("ginzburg-landau", True),
                                           ("vdp", False)])
def test_additive_noise_is_declared_where_sigma_takes_one_value(name, additive):
    # run_paths reads a declared model's sigma at one state per call, so a
    # wrong declaration would silently change results
    model = catalog()[name].model
    pts = models._sample_ball(np.random.default_rng(0), 2000, model.d,
                              models._RADIUS)
    sigma = model.diffusion(pts)
    assert bool((sigma == sigma[0]).all()) is additive
    assert model.additive_noise is additive


def _callables(model) -> dict:
    """Every callable of a model and of its Lyapunov data, by name."""
    spec = model.lyapunov
    named = {"drift": model.drift, "diffusion": model.diffusion,
             "exact_solution": model.exact_solution}
    if spec is not None:
        named.update(U=spec.U, grad_U=spec.grad_U, hess_U=spec.hess_U,
                     U_bar=spec.U_bar)
    return {k: f for k, f in named.items() if f is not None}


PICKLED_MODELS = {"gbm": lambda: catalog()["gbm"].model,
                  "ginzburg-landau": lambda: catalog()["ginzburg-landau"].model,
                  "vdp": lambda: catalog()["vdp"].model,
                  "gbm-0.3-0.1": lambda: model_gbm(0.3, 0.1),
                  "vdp-sigma0-0.3": lambda: model_vdp(sigma0=0.3)}


@pytest.mark.parametrize("name", PICKLED_MODELS)
def test_models_and_their_specs_round_trip_through_pickle(name):
    # a worker process receives the model pickled: every callable is a
    # module-level function or a partial of one, which pickles by name
    model = PICKLED_MODELS[name]()
    back = pickle.loads(pickle.dumps(model))
    assert pickle.dumps(back) == pickle.dumps(model)
    assert (back.name, back.d, back.m, back.additive_noise) == \
        (model.name, model.d, model.m, model.additive_noise)
    if model.lyapunov is not None:
        spec = pickle.loads(pickle.dumps(model.lyapunov))
        assert pickle.dumps(spec) == pickle.dumps(model.lyapunov)
        constants = ("rho", "c", "p", "q0", "q1")
        assert [getattr(spec, k) for k in constants] == \
            [getattr(model.lyapunov, k) for k in constants]
    pts = models._sample_ball(np.random.default_rng(1), 500, model.d, 10.0)
    for key, fn in _callables(model).items():
        again = _callables(back)[key]
        if key == "exact_solution":
            t, w = np.array([0.0, 0.5]), np.stack([pts, 2.0 * pts], axis=1)
            assert again(np.ones(1), t, w).tobytes() == fn(np.ones(1), t, w).tobytes()
        else:
            assert again(pts).tobytes() == fn(pts).tobytes(), key


@pytest.mark.parametrize("name", ("gbm", "ginzburg-landau", "vdp"))
def test_run_paths_on_an_unpickled_model_gives_the_same_bits(name):
    entry = catalog()[name]
    back = pickle.loads(pickle.dumps(entry.model))
    dw = generate_block(1.0, 64, 1, 9, 0, 50)
    for kind in SchemeKind:
        runs = [run_paths(kind, m, GridSpec(1.0, 64), entry.default_x0 * 3.0, dw)
                for m in (entry.model, back)]
        assert runs[0].states.tobytes() == runs[1].states.tobytes()
        assert runs[0].tau_index.tolist() == runs[1].tau_index.tolist()
        assert runs[0].overflow.tolist() == runs[1].overflow.tolist()
