import math

import numpy as np
import pytest

from biteuler.brownian import coarsen_increments, generate_block, generate_path
from biteuler.core import GridSpec
from biteuler.models import model_gbm, model_ginzburg_landau, model_vdp
from biteuler.schemes import BatchRuns, SchemeKind, run_path, run_paths
from biteuler.taming import stopping_threshold


def _const_model(mu0=0.0, sig0=0.0):
    from biteuler.core import SdeModel

    def drift(x):
        return np.full_like(np.asarray(x, dtype=float), mu0)

    def diffusion(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (1, 1))
        out[..., 0, 0] = sig0
        return out

    return SdeModel(name="const", d=1, m=1, drift=drift, diffusion=diffusion)


def _one_step(kind, model, grid, y, dw):
    """The state after one step of the scheme from y with increment dw: a
    run_paths call continuing a single path from node 0 for one step."""
    start = BatchRuns.initial(grid, y, 1, model.d)
    dw = np.asarray(dw, dtype=float).reshape(1, 1, model.m)
    return run_paths(kind, model, grid, start, dw).states[0, -1]


def test_bit_step_hand_value():
    # d=m=1, mu=-x^3, sigma=1, T=1, N=4, y=0.5, dW=0.2:
    # 0.5 - 0.125*0.25 + 0.2*exp(-0.2^4/0.25)
    from biteuler.core import SdeModel

    model = SdeModel(
        name="cubic", d=1, m=1,
        drift=lambda x: -np.asarray(x, dtype=float) ** 3,
        diffusion=lambda x: np.ones(np.asarray(x).shape[:-1] + (1, 1)))
    grid = GridSpec(T=1.0, N=4)
    out = _one_step(SchemeKind.STOPPED_BIT, model, grid, [0.5], [0.2])
    oracle = 0.5 - 0.125 * 0.25 + 0.2 * math.exp(-0.2**4 / 0.25)
    assert out[0] == pytest.approx(oracle, rel=1e-15)
    assert out[0] == pytest.approx(0.66747408727582980, rel=1e-14)  # mpmath


def test_bit_step_freezes_beyond_threshold():
    model = _const_model(mu0=5.0, sig0=3.0)
    grid = GridSpec(T=1.0, N=4)
    thr = stopping_threshold(4, 1.0)
    y = np.array([thr * 1.01])
    out = _one_step(SchemeKind.STOPPED_BIT, model, grid, y, [0.3])
    np.testing.assert_array_equal(out, y)


def test_bit_step_zero_coefficients():
    model = _const_model()
    grid = GridSpec(T=1.0, N=4)
    y = np.array([0.7])
    np.testing.assert_array_equal(
        _one_step(SchemeKind.STOPPED_BIT, model, grid, y, [2.0]), y)


def test_em_step_linear_deterministic():
    gbm = model_gbm(a=0.3, b=0.0)
    grid = GridSpec(T=1.0, N=10)
    y = np.array([2.0])
    out = _one_step(SchemeKind.EULER_MARUYAMA, gbm, grid, y, [0.0])
    assert out[0] == pytest.approx(2.0 * (1 + 0.3 / 10), rel=1e-15)


def test_em_step_superlinear_growth():
    # cubic drift at large y grows superlinearly per step
    from biteuler.core import SdeModel

    model = SdeModel(
        name="cubic", d=1, m=1,
        drift=lambda x: np.asarray(x, dtype=float) ** 3,
        diffusion=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)))
    grid = GridSpec(T=1.0, N=4)
    y1 = _one_step(SchemeKind.EULER_MARUYAMA, model, grid, [10.0], [0.0])
    assert y1[0] == pytest.approx(10.0 + 1000.0 * 0.25)


def test_run_path_trivial_two_states():
    model = _const_model()
    grid = GridSpec(T=1.0, N=1)
    path = generate_path(1.0, 1, 1, seed=0, path_index=0)
    run = run_path(SchemeKind.STOPPED_BIT, model, grid, [0.5], path)
    np.testing.assert_array_equal(run.states, [[[0.5], [0.5]]])
    assert run.tau_index.tolist() == [1] and run.frozen.tolist() == [False]


def test_run_path_stopped_immediately():
    model = _const_model(mu0=1.0, sig0=1.0)
    grid = GridSpec(T=1.0, N=8)
    path = generate_path(1.0, 8, 1, seed=1, path_index=0)
    x0 = [stopping_threshold(8, 1.0) + 1.0]
    run = run_path(SchemeKind.STOPPED_BIT, model, grid, x0, path)
    assert run.tau_index.tolist() == [0] and run.frozen.tolist() == [True]
    np.testing.assert_array_equal(run.states, np.tile(x0, (1, 9, 1)))


def test_run_path_matches_hand_rolled_euler_loop():
    # independent straight-line reimplementation as oracle, bit for bit
    gbm = model_gbm(a=0.05, b=0.2)
    grid = GridSpec(T=1.0, N=32)
    path = generate_path(1.0, 32, 1, seed=42, path_index=7)
    run = run_path(SchemeKind.EULER_MARUYAMA, gbm, grid, [1.0], path)

    h = 1.0 / 32
    y = 1.0
    expected = [y]
    for k in range(32):
        dw = path.increments[k, 0]
        y = y + ((0.05 * y) * h + (0.2 * y) * dw)
        expected.append(y)
    np.testing.assert_array_equal(run.states[0, :, 0], expected)


def test_freeze_invariant_past_tau():
    model = model_ginzburg_landau()
    grid = GridSpec(T=1.0, N=16)
    # start far outside the threshold so freezing kicks in at index 0
    path = generate_path(1.0, 16, 1, seed=3, path_index=0)
    run = run_path(SchemeKind.STOPPED_BIT, model, grid, [20.0], path)
    assert run.tau_index.tolist() == [0]
    for k in range(16):
        np.testing.assert_array_equal(run.states[:, k + 1], run.states[:, 0])


def test_noise_contribution_bounded_by_increment_bound():
    # per-step noise norm <= ||sigma||_F * h^{1/4} * sqrt(m)
    model = model_ginzburg_landau()  # sigma = 1
    grid = GridSpec(T=1.0, N=16)
    h = grid.h
    dw = generate_block(1.0, 16, 1, seed=5, first_path=0, count=200)
    runs = run_paths(SchemeKind.STOPPED_BIT, model, grid, [1.0], dw)
    drift = model.drift(runs.states[:, :-1])
    steps = runs.states[:, 1:] - runs.states[:, :-1]
    noise = steps - np.where(
        np.abs(runs.states[:, :-1]) <= stopping_threshold(16, 1.0),
        drift * h, 0.0)
    assert np.abs(noise).max() <= h**0.25 * 1.0 + 1e-12


def test_coupling_smoke_seed_perturbation():
    # coarse and fine runs share the Brownian path; small seed change moves
    # both without breaking the pairing machinery
    model = model_ginzburg_landau()
    for seed in (1, 2):
        fine = generate_block(1.0, 64, 1, seed=seed, first_path=0, count=10)
        coarse = coarsen_increments(fine, 16)
        r_f = run_paths(SchemeKind.STOPPED_BIT, model, GridSpec(1.0, 64), [1.0], fine)
        r_c = run_paths(SchemeKind.STOPPED_BIT, model, GridSpec(1.0, 16), [1.0], coarse)
        diff = r_c.states - r_f.states[:, ::4]
        assert np.isfinite(diff).all()
        assert np.abs(diff).max() < 2.0


def test_overflow_flagged_not_raised():
    model = model_ginzburg_landau()
    # N=8 gives the cubic oscillation enough steps to leave the float range
    grid = GridSpec(T=1.0, N=8)
    dw = generate_block(1.0, 8, 1, seed=0, first_path=0, count=16)
    runs = run_paths(SchemeKind.EULER_MARUYAMA, model, grid, [5.0], dw)
    assert runs.overflow.all()
    assert np.isfinite(runs.states).all()  # frozen at last finite state
    bit = run_paths(SchemeKind.STOPPED_BIT, model, grid, [5.0], dw)
    assert not bit.overflow.any()


def test_explosion_precedes_overflow_at_coarse_n():
    # at N=4 the magnitude passes 1e10 within the horizon but the float
    # range is not yet exceeded; the path is retained, not dropped
    model = model_ginzburg_landau()
    dw = generate_block(1.0, 4, 1, seed=0, first_path=0, count=16)
    runs = run_paths(SchemeKind.EULER_MARUYAMA, model, GridSpec(1.0, 4), [5.0], dw)
    assert (np.abs(runs.states).max(axis=(1, 2)) > 1e10).all()
    assert np.isfinite(runs.states).all()


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_run_paths_gates_at_the_threshold_of_its_own_horizon(kind):
    # at T = 2 and N = 8 the threshold is exp(sqrt(log 4)) = 3.25, below
    # the T = 1 one, 4.23: a start of 3.5 is past it at node 0, and only the
    # stopped scheme holds it there; a start of 3.0 is stepped
    model = model_ginzburg_landau()
    grid = GridSpec(T=2.0, N=8)
    assert 3.0 < stopping_threshold(8, 2.0) < 3.5 < stopping_threshold(8, 1.0)
    dw = generate_block(2.0, 8, 1, seed=6, first_path=0, count=4)
    past = run_paths(kind, model, grid, [3.5], dw)
    assert past.tau_index.tolist() == [0] * 4
    held = kind is SchemeKind.STOPPED_BIT
    assert past.frozen.tolist() == [held] * 4
    assert (past.states[:, 1:] == 3.5).all() == held
    inside = run_paths(kind, model, grid, [3.0], dw)
    assert (inside.tau_index > 0).all()
    assert (inside.states[:, 1] != 3.0).all()


def test_deterministic_euler_order_one_for_ode():
    # sigma = 0, Lipschitz linear drift: both schemes are the Euler
    # method for the ODE and converge with order 1 in T/N
    gbm = model_gbm(a=1.0, b=0.0)
    x0 = [1.0]
    errs = {kind: [] for kind in SchemeKind}
    Ns = [64, 128, 256, 512, 1024, 2048]
    for N in Ns:
        grid = GridSpec(T=1.0, N=N)
        dw = np.zeros((1, N, 1))
        for kind in SchemeKind:
            runs = run_paths(kind, gbm, grid, x0, dw)
            errs[kind].append(abs(runs.states[0, -1, 0] - math.e))
    logh = np.log([1.0 / n for n in Ns])
    for kind in SchemeKind:
        slope = np.polyfit(logh, np.log(errs[kind]), 1)[0]
        assert abs(slope - 1.0) < 0.1, (kind, slope)


def test_run_path_requires_divisible_grid():
    model = _const_model()
    path = generate_path(1.0, 8, 1, seed=0, path_index=0)
    with pytest.raises(ValueError):
        run_path(SchemeKind.STOPPED_BIT, model, GridSpec(1.0, 3), [0.0], path)


@pytest.mark.parametrize("T, m, message", [
    (1.0, 1, r"^path spans T = 1.0, the grid T = 2.0$"),
    (2.0, 2, r"^path has m = 2 noise components, the model m = 1$"),
])
def test_run_path_rejects_a_path_that_does_not_fit_the_grid(T, m, message):
    # a T = 1 path used to step a T = 2 grid without complaint, and an m = 2
    # path failed inside numpy's reshape
    model = model_ginzburg_landau()
    path = generate_path(T, 8, m, seed=0, path_index=0)
    with pytest.raises(ValueError, match=message):
        run_path(SchemeKind.STOPPED_BIT, model, GridSpec(2.0, 8), [1.0], path)
    with pytest.raises(ValueError, match=r"^path's 8-step grid does not refine "
                                         r"the 3-step grid$"):
        run_path(SchemeKind.STOPPED_BIT, model, GridSpec(T, 3), [1.0],
                 generate_path(T, 8, 1, seed=0, path_index=0))


@pytest.mark.parametrize("model,x0", [
    (model_vdp(), [1.0]), (model_vdp(), [[1.0, 0.0]]),
    (model_ginzburg_landau(), [math.nan]), (model_vdp(), [0.0, math.nan])])
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_runs_reject_a_start_of_the_wrong_shape_or_nan(kind, model, x0):
    # a one-component vdp start used to be broadcast to both components; a
    # NaN start gave a NaN run flagged overflowed (Euler-Maruyama) or a
    # misleading FloatingPointError (the stopped scheme)
    path = generate_path(1.0, 8, model.m, seed=0, path_index=0)
    dw = path.increments[None]
    message = rf"^x0 must have {model.d} component\(s\), none NaN"
    with pytest.raises(ValueError, match=message):
        run_paths(kind, model, GridSpec(1.0, 8), x0, dw)
    with pytest.raises(ValueError, match=message):
        run_path(kind, model, GridSpec(1.0, 8), x0, path)
