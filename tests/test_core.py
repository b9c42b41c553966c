import dataclasses
import math
import re

import numpy as np
import pytest

from biteuler.brownian import (BlockStream, BrownianGrid, coarsen_increments,
                               generate_block, generate_path)
from biteuler.core import (ErrorRow, ErrorTable, GridSpec, LyapunovSpec,
                           validate_start, worker_count)
from biteuler.diagnostics import (AnalysisConstants, exp_moment_estimate,
                                  fit_growth_constant, stopping_probability)
from biteuler.experiments import (ConvergenceConfig, divergence_comparison,
                                  moment_sweep)
from biteuler.models import catalog, check_conditions
from biteuler.schemes import SchemeKind
from biteuler.taming import (TamingParams, stopping_threshold,
                             verify_taming_bounds)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(T=0.0, N=4)
    with pytest.raises(ValueError):
        GridSpec(T=1.0, N=0)


def _quadratic_spec(q0=4.0, q1=math.inf):
    return LyapunovSpec(
        U=lambda x: np.sum(x * x, axis=-1),
        grad_U=lambda x: 2.0 * x,
        hess_U=lambda x: np.broadcast_to(2.0 * np.eye(x.shape[-1]),
                                         x.shape[:-1] + (x.shape[-1],) * 2),
        U_bar=lambda x: np.zeros(x.shape[:-1]),
        rho=1.0, c=1.0, p=4, q0=q0, q1=q1)


def test_lyapunov_spec_validation():
    with pytest.raises(ValueError):
        _quadratic_spec(q0=-1.0)


@pytest.mark.parametrize("field,value,message", [
    ("rho", math.nan, "rho must be >= 0 and finite, got nan"),
    ("c", math.nan, "c must be > 0 and finite, got nan"),
    ("c", -1.0, "c must be > 0 and finite, got -1.0"),
    ("c", 0.0, "c must be > 0 and finite, got 0.0"),
    ("p", math.nan, "p must be an integer, got nan")])
def test_lyapunov_spec_rejects_nan_and_a_constant_c_not_above_0(field, value,
                                                                 message):
    # rho and c = NaN and c = -1 were accepted: x < bound is False for NaN
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(_quadratic_spec(), **{field: value})



@pytest.mark.parametrize("field,message", [
    ("rho", "rho must be >= 0 and finite, got inf"),
    ("c", "c must be > 0 and finite, got inf")])
def test_lyapunov_spec_rejects_an_infinite_c_or_rho(field, message):
    # both were accepted, and check_conditions then passed with 0
    # violations: the margins that c and rho scale became -inf
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(_quadratic_spec(), **{field: math.inf})

_VDP = catalog()["vdp"].model

# every check of a horizon is core._check_horizon; with T = inf the
# Lyapunov slack of check_conditions divided by exp(rho T) and passed, and
# the estimators ended in "math domain error"
HORIZON_CHECKS = {
    "GridSpec": lambda T: GridSpec(T, 4),
    "generate_block": lambda T: generate_block(T, 4, 1, 0, 0, 1),
    "stopping_threshold": lambda T: stopping_threshold(4, T),
    "AnalysisConstants": lambda T: AnalysisConstants(c=2.5, p=3, T=T, m=1,
                                                     rho=1.5, N=16),
    "fit_growth_constant": lambda T: fit_growth_constant(_VDP, _VDP.lyapunov,
                                                         3, T=T),
    "check_conditions": lambda T: check_conditions(_VDP, _VDP.lyapunov, T,
                                                   10.0, 400),
    "ConvergenceConfig": lambda T: ConvergenceConfig(
        model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=(4, 8), M=10, seed=0,
        T=T),
}


@pytest.mark.parametrize("T,message", [
    (math.inf, "T must be finite, got inf"),
    (-math.inf, "T must be > 0, got -inf"),
    (0.0, "T must be > 0, got 0.0"),
    (math.nan, "T must be > 0, got nan")])
@pytest.mark.parametrize("name", HORIZON_CHECKS)
def test_every_horizon_check_wants_a_finite_positive_T(name, T, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HORIZON_CHECKS[name](T)


_GBM = catalog()["gbm"].model
_GL = catalog()["ginzburg-landau"].model
_CONSTS = dict(c=2.5, p=3, T=1.0, m=1, rho=1.5, N=16)
_CONFIG = dict(model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=(4, 8), M=10,
               seed=0)

# {owner.setting: (floor, a call setting it)} of every count setting, each
# checked by core._check_count.  Most took 2.5 (N_ref, threads, p, m, N
# and d), or failed later, naming another argument or with a TypeError
COUNT_CHECKS = {
    "GridSpec.N": (1, lambda n: GridSpec(1.0, n)),
    "validate_start.M": (1, lambda n: validate_start(_GBM, [1.0], n)),
    "LyapunovSpec.p": (1, lambda n: dataclasses.replace(_quadratic_spec(),
                                                        p=n)),
    "SdeModel.d": (1, lambda n: dataclasses.replace(_GBM, d=n)),
    "SdeModel.m": (1, lambda n: dataclasses.replace(_GBM, m=n)),
    "worker_count.threads": (0, worker_count),
    "generate_block.N_fine": (1, lambda n: generate_block(1.0, n, 1, 0, 0, 1)),
    "generate_block.m": (1, lambda n: generate_block(1.0, 4, n, 0, 0, 1)),
    "BlockStream.count": (0, lambda n: BlockStream(4, 1, 0, 0, n)),
    "BrownianGrid.N_fine": (1, lambda n: BrownianGrid(
        1.0, n, 1, 0, 0, np.zeros((1, 1)))),
    "BrownianGrid.m": (1, lambda n: BrownianGrid(
        1.0, 1, n, 0, 0, np.zeros((1, 1)))),
    "coarsen_increments.N_coarse": (1, lambda n: coarsen_increments(
        np.zeros((4, 1)), n)),
    "TamingParams.m": (1, lambda n: TamingParams(0.1, n)),
    "stopping_threshold.N": (1, lambda n: stopping_threshold(n, 1.0)),
    "verify_taming_bounds.sample_count": (1000, lambda n: verify_taming_bounds(
        TamingParams(0.1, 1), n, 0)),
    "AnalysisConstants.m": (1, lambda n: AnalysisConstants(
        **{**_CONSTS, "m": n})),
    "AnalysisConstants.p": (1, lambda n: AnalysisConstants(
        **{**_CONSTS, "p": n})),
    "AnalysisConstants.N": (1, lambda n: AnalysisConstants(
        **{**_CONSTS, "N": n})),
    "exp_moment_estimate.M": (2, lambda n: exp_moment_estimate(
        _GL, _GL.lyapunov, GridSpec(1.0, 4), n, 0, [1.0])),
    "divergence_comparison.every N in Ns": (1, lambda n: divergence_comparison(
        _GL, (n, 4), 2, [1.0], seed=0)),
    "ConvergenceConfig.M": (10, lambda n: ConvergenceConfig(
        **{**_CONFIG, "M": n})),
    "ConvergenceConfig.N_ref": (0, lambda n: ConvergenceConfig(
        **_CONFIG, N_ref=n)),
    "ConvergenceConfig.threads": (0, lambda n: ConvergenceConfig(
        **_CONFIG, threads=n)),
    "moment_sweep.M": (2, lambda n: moment_sweep(
        _GL, _GL.lyapunov, (4,), n, seed=0, x0=[1.0])),
    "moment_sweep.threads": (0, lambda n: moment_sweep(
        _GL, _GL.lyapunov, (4,), 2, seed=0, x0=[1.0], threads=n)),
    "check_conditions.n_points": (2, lambda n: check_conditions(
        _VDP, _VDP.lyapunov, 1.0, 10.0, n)),
}


@pytest.mark.parametrize("setting", COUNT_CHECKS)
def test_every_count_setting_wants_an_integer_at_or_above_its_floor(setting):
    name = setting.split(".", 1)[1]
    least, run = COUNT_CHECKS[setting]
    with pytest.raises(ValueError,
                       match=f"^{name} must be an integer, got 2\\.5$"):
        run(2.5)
    with pytest.raises(ValueError,
                       match=f"^{name} must be >= {least}, got {least - 1}$"):
        run(least - 1)
    run(np.int64(least))  # numpy integers are integers


# the key rule's arguments: ConvergenceConfig took seed 2.5, and the key
# rule raised TypeError for a string
KEY_CHECKS = {
    "generate_block.seed": lambda s: generate_block(1.0, 4, 1, s, 0, 1),
    "BlockStream.seed": lambda s: BlockStream(4, 1, s, 0, 1),
    "generate_path.path_index": lambda s: generate_path(1.0, 4, 1, 0, s),
    "BrownianGrid.seed": lambda s: BrownianGrid(1.0, 1, 1, s, 0,
                                                np.zeros((1, 1))),
    "check_conditions.seed": lambda s: check_conditions(
        _VDP, _VDP.lyapunov, 1.0, 10.0, 400, seed=s),
    "ConvergenceConfig.seed": lambda s: ConvergenceConfig(
        **{**_CONFIG, "seed": s}),
    "stopping_probability.seed": lambda s: stopping_probability(
        _GL, GridSpec(1.0, 4), 2, s, [1.0]),
}


@pytest.mark.parametrize("value", (2.5, "7"))
@pytest.mark.parametrize("setting", KEY_CHECKS)
def test_every_seed_and_path_index_wants_an_integer(setting, value):
    name = setting.split(".", 1)[1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, "
                                         f"got {re.escape(repr(value))}$"):
        KEY_CHECKS[setting](value)


def test_derivatives_match_finite_differences():
    spec = _quadratic_spec()
    rng = np.random.Generator(np.random.Philox(key=5))
    x = rng.standard_normal((200, 3)) * 2.0
    delta = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = delta
        fd = (spec.U(x + e) - spec.U(x - e)) / (2 * delta)
        np.testing.assert_allclose(fd, spec.grad_U(x)[:, i], rtol=1e-5, atol=1e-5)


def test_error_table_is_immutable_record():
    row = ErrorRow(N=16, M=100, sup_error=0.5, std_error=0.01, seed=1)
    table = ErrorTable(scheme="bit", model="gbm", r=2.0, rows=(row,))
    assert table.rows[0].sup_error >= 0
    with pytest.raises(Exception):
        table.r = 3.0
