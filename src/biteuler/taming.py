"""The quartic-exponential increment-taming family and its derivatives.

The taming map acts coordinatewise, Pi(x)_i = x_i * exp(-x_i**4 / h), where
h is the per-step scale (the step size T/N of the scheme using it).  It is
odd, bounded by h**(1/4) per coordinate, and C^2 with closed-form first and
second derivatives; both are diagonal in the coordinate index, so they are
stored as vectors, never as dense matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brownian import _seed_generator
from .core import _check_count, _check_horizon

__all__ = [
    "TamingParams",
    "tame",
    "tame_jacobian_diag",
    "tame_laplacian",
    "stopping_threshold",
    "verify_taming_bounds",
    "TamingBoundsReport",
    "BoundCheck",
]


@dataclass(frozen=True)
class TamingParams:
    """Per-step scale h > 0 and noise dimension m of the taming map."""

    h: float
    m: int

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError(f"h must be finite and > 0, got {self.h}")
        _check_count("m", self.m)


_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def _quartic(x: np.ndarray, h: float) -> np.ndarray:
    # x**4/h by explicit squaring: multiplication is sign-symmetric under
    # IEEE rounding, which keeps the maps below exactly odd/even in x
    # (numpy's pow is not bitwise symmetric in the sign of its base).
    x2 = x * x
    return x2 * x2 / h


def tame(params: TamingParams, x: np.ndarray) -> np.ndarray:
    """Apply the taming map coordinatewise: x_i * exp(-x_i**4 / h).

    Total on finite inputs; for huge |x_i| the exponential underflows to 0,
    which is the correct limit.  Every output component has magnitude
    <= h**(1/4).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        u = _quartic(x, params.h)
    return x * np.exp(-u)


def tame_jacobian_diag(params: TamingParams, x: np.ndarray) -> np.ndarray:
    """Diagonal of the Jacobian: exp(-x_i**4/h) * (1 - 4*x_i**4/h).

    Off-diagonal entries are identically zero by the coordinatewise
    structure.  Where x_i**4/h overflows, the value is exactly 0 (the
    mathematical limit), never NaN.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        u = _quartic(x, params.h)
        e = np.exp(-u)
        out = e * (1.0 - 4.0 * u)
    return np.where(e == 0.0, 0.0, out)


def tame_laplacian(params: TamingParams, x: np.ndarray) -> np.ndarray:
    """Vector of second derivatives: exp(-x_i**4/h)*(16 x_i**7/h**2 - 20 x_i**3/h).

    Once h**2 is below the smallest normal float, where it loses digits,
    it is evaluated as exp(-u) a b with u = x_i**4/h, a = x_i**3/h and
    b = 16 u - 20.  Where exp(-u) is below the smallest normal float, at
    any h, a b can still lift the product into range: there it is
    sign(a b) exp(log|a| + log|b| - u), and 0 where a b overflows.
    """
    x = np.asarray(x, dtype=float)
    h = params.h
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = _quartic(x, h)
        e = np.exp(-u)
        a, b = x / h * x * x, 16.0 * u - 20.0
        if h * h < _TINY:
            out = e * a * b
        else:
            x3 = x * x * x
            out = e * (16.0 * (x3 * x3 * x) / h**2 - 20.0 * x3 / h)
        ab = a * b
        tail = np.sign(ab) * np.exp(np.log(np.abs(a)) + np.log(np.abs(b)) - u)
    return np.where(e < _TINY, np.where(np.isfinite(ab), tail, 0.0), out)


def stopping_threshold(N: int, T: float) -> float:
    """Stopping radius exp(sqrt(|log(N/T)|)) of the stopped scheme.

    Nondecreasing in N for N >= T.
    """
    _check_count("N", N)
    _check_horizon(T)
    return math.exp(math.sqrt(abs(math.log(N / T))))


@dataclass(frozen=True)
class BoundCheck:
    """One Monte Carlo bound check: estimate vs. claimed bound."""

    estimate: float
    bound: float
    stderr: float
    passed: bool

    @property
    def margin_stderr(self) -> float:
        """(bound - estimate) in stderr units; inf when stderr is zero."""
        gap = self.bound - self.estimate
        if self.stderr == 0.0:
            return math.inf if gap > 0 else -math.inf
        return gap / self.stderr


@dataclass(frozen=True)
class TamingBoundsReport:
    """Result of verify_taming_bounds.

    ``linf`` checks the pathwise bound ||Pi(W)|| <= h**(1/4)*sqrt(m)
    (deterministic, stderr 0); ``jacobian`` and ``laplacian`` check the
    claimed L2 bounds 52*h*sqrt(m) and 32*sqrt(h*m) by sample moments.
    Sampling is done at t = h, the worst case over [0, h] by monotonicity of
    the Gaussian moments involved.
    """

    params: TamingParams
    sample_count: int
    seed: int
    linf: BoundCheck
    linf_pathwise_fraction: float
    jacobian: BoundCheck
    laplacian: BoundCheck

    @property
    def all_passed(self) -> bool:
        return self.linf.passed and self.jacobian.passed and self.laplacian.passed


def _moment_check(sq_samples: np.ndarray, bound: float) -> BoundCheck:
    # Estimate sqrt(E[X]) from samples of X, stderr by the delta method.
    mean = float(np.mean(sq_samples))
    est = math.sqrt(mean)
    var = float(np.var(sq_samples, ddof=1))
    se_mean = math.sqrt(var / len(sq_samples))
    se = se_mean / (2.0 * est) if est > 0 else 0.0
    return BoundCheck(estimate=est, bound=bound, stderr=se, passed=est < bound)


def verify_taming_bounds(params: TamingParams, sample_count: int, seed: int) -> TamingBoundsReport:
    """Monte Carlo check of the three taming-map norm bounds.

    Draws ``sample_count`` Gaussian vectors W ~ Normal(0, h*I_m) and
    estimates, at t = h:

    - the pathwise sup of ||Pi(W)||          against h**(1/4)*sqrt(m),
    - the L2 norm of the operator DPi(W) - I against 52*h*sqrt(m),
    - the L2 norm of the vector LapPi(W)     against 32*sqrt(h*m).

    The first bound is deterministic and must hold for every sample; the
    other two are moment estimates reported with delta-method stderr.  The
    samples are drawn from ``brownian._seed_generator(seed)``, so
    ValueError names ``seed`` unless it is an integer in [0, 2**64).
    """
    _check_count("sample_count", sample_count, 1000)
    h, m = params.h, params.m
    rng = _seed_generator(seed)
    W = rng.standard_normal((sample_count, m)) * math.sqrt(h)

    pi = tame(params, W)
    norms = np.sqrt(np.sum(pi**2, axis=1))
    bound_linf = h**0.25 * math.sqrt(m)
    frac = float(np.mean(norms <= bound_linf))
    linf = BoundCheck(
        estimate=float(norms.max()), bound=bound_linf, stderr=0.0,
        passed=bool(norms.max() <= bound_linf),
    )

    # Operator norm of the diagonal matrix DPi - I is the max |diag - 1|.
    jd = tame_jacobian_diag(params, W)
    op_sq = np.max((jd - 1.0) ** 2, axis=1)
    jac = _moment_check(op_sq, 52.0 * h * math.sqrt(m))

    lap = tame_laplacian(params, W)
    lap_sq = np.sum(lap**2, axis=1)
    lapc = _moment_check(lap_sq, 32.0 * math.sqrt(h * m))

    return TamingBoundsReport(
        params=params, sample_count=sample_count, seed=seed,
        linf=linf, linf_pathwise_fraction=frac, jacobian=jac, laplacian=lapc,
    )
