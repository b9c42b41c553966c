import math

import numpy as np
import pytest

from biteuler.core import ErrorRow, ErrorTable, GridSpec, LyapunovSpec


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
