import dataclasses
import math
import re

import numpy as np
import pytest

from biteuler.brownian import BlockStream, generate_block
from biteuler.core import ErrorRow, ErrorTable, GridSpec, LyapunovSpec
from biteuler.diagnostics import AnalysisConstants, fit_growth_constant
from biteuler.experiments import ConvergenceConfig
from biteuler.models import catalog, check_conditions
from biteuler.schemes import SchemeKind
from biteuler.taming import stopping_threshold


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(T=0.0, N=4)
    with pytest.raises(ValueError):
        GridSpec(T=1.0, N=0)


def _quadratic_spec(q0=4.0, q1=math.inf, r=2.0):
    return LyapunovSpec(
        U=lambda x: np.sum(x * x, axis=-1),
        grad_U=lambda x: 2.0 * x,
        hess_U=lambda x: np.broadcast_to(2.0 * np.eye(x.shape[-1]),
                                         x.shape[:-1] + (x.shape[-1],) * 2),
        U_bar=lambda x: np.zeros(x.shape[:-1]),
        rho=1.0, c=1.0, p=4, q0=q0, q1=q1, r=r)


def test_holder_triple():
    spec = _quadratic_spec(q0=4.0, q1=math.inf, r=2.0)
    assert abs(spec.holder_defect()) < 1e-12
    unbalanced = _quadratic_spec(q0=8.0, q1=math.inf, r=2.0)
    assert unbalanced.holder_defect() == pytest.approx(-0.125, abs=1e-12)


def test_lyapunov_spec_validation():
    with pytest.raises(ValueError):
        _quadratic_spec(r=1.5)
    with pytest.raises(ValueError):
        _quadratic_spec(q0=-1.0)


@pytest.mark.parametrize("field,value,message", [
    ("rho", math.nan, "rho must be >= 0 and finite, got nan"),
    ("c", math.nan, "c must be > 0 and finite, got nan"),
    ("c", -1.0, "c must be > 0 and finite, got -1.0"),
    ("c", 0.0, "c must be > 0 and finite, got 0.0"),
    ("r", math.nan, "r must be >= 2, got nan"),
    ("p", math.nan, "p must be a positive integer")])
def test_lyapunov_spec_rejects_nan_and_a_constant_c_not_above_0(field, value,
                                                                 message):
    # rho, c and r = NaN and c = -1 were accepted: x < bound is False for NaN
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
    "BlockStream": lambda T: BlockStream(T, 4, 1, 0, 0, 1),
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
