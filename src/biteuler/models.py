"""Model zoo: drift/diffusion callables, closed forms, Lyapunov data.

Every coefficient and Lyapunov callable is a module-level function, bound
by ``functools.partial`` to the values that still vary (GBM's a and b,
VdP's sigma0 with its tuned eps and u0), so every catalog model and its
``LyapunovSpec`` pickle and can be sent to a worker process.

The Lyapunov constants of the shipped entries were fixed numerically (see
demos/tune_lyapunov_constants.py, which re-derives and prints them); the
chosen values are committed below and verified by the sampled condition
checker in the test suite.  A VdP model with a sigma0 other than the
default re-runs the same tuning at construction time.

The sampled checks (``check_conditions`` and the growth samples of
``diagnostics``) share one ball sampler, ``_sample_ball``, and one pair
rule, ``_pair_gaps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .brownian import _seed_generator
from .core import LyapunovSpec, SdeModel, _check_count, _check_horizon

__all__ = [
    "model_gbm",
    "model_ginzburg_landau",
    "model_vdp",
    "tune_ginzburg_landau_spec",
    "tune_vdp_spec",
    "check_conditions",
    "ConditionReport",
    "ConditionStats",
    "ModelCatalogEntry",
    "catalog",
]


# ---------------------------------------------------------------------------
# models


def _zero_U_bar(x):
    return np.zeros(np.shape(x)[:-1])


def _gbm_drift(a, x):
    return a * x


def _gbm_diffusion(b, x):
    x = np.asarray(x, dtype=float)
    return b * x[..., :, None]


def _gbm_exact(a, b, x0, t, w):
    x0 = np.asarray(x0, dtype=float)
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    growth = (a - 0.5 * b * b) * t[..., None] + b * w
    # a zero start stays put, also where exp overflows (0 * inf is NaN)
    return x0 * (np.exp(growth) if x0.any() else np.ones_like(growth))


def model_gbm(a: float, b: float) -> SdeModel:
    """Geometric Brownian motion dX = a X dt + b X dW (d = m = 1).

    Globally Lipschitz validation case with the closed form
    X_t = x0 * exp((a - b**2/2) t + b W_t).  Ships without Lyapunov data:
    under any quadratic U the squared-gradient generator term grows like
    x**4, so no finite rho satisfies the generator inequality.  ValueError
    names ``a`` or ``b`` unless it is finite.
    """
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return SdeModel(name="gbm", d=1, m=1, drift=partial(_gbm_drift, a),
                    diffusion=partial(_gbm_diffusion, b),
                    exact_solution=partial(_gbm_exact, a, b))


def tune_ginzburg_landau_spec() -> tuple[float, float, float]:
    """Pick (eps, rho, c) for dX = (X - X**3) dt + dW so the sampled
    checker passes with margin at T = 1.

    eps = 1/4 keeps the quartic term dominant (it is below 1/2, the drift's
    cubic coefficient over twice the noise's square); rho is 1.15 times the
    exact supremum of the generator quotient (a 1-d scan in u = x**2); c is
    1.15 times 1, which is the one-sided Lipschitz constant, the least c
    with 4*eps*c**2 >= 1 (coercivity) and T**(1/32).
    """
    eps = 0.25
    u = np.linspace(0.0, 30.0, 200001)  # the quotient peaks near u = 0.32
    lhs = 2.0 * u - 2.0 * u**2 + 1.0 + 2.0 * eps * u
    rho = 1.15 * float(np.max(lhs / (1.0 + u)))
    return eps, rho, 1.15


# eps, rho, c at T = 1: demos/tune_lyapunov_constants.py's values, rounded up
_GL_EPS, _GL_RHO, _GL_C = 0.25, 1.5, 1.5


def _gl_drift(x):
    return x - x**3


def _gl_diffusion(x):
    return np.ones(np.shape(x)[:-1] + (1, 1))


# U(x) = eps*(||x||^2 + 1).  The +1 makes U(0) > 0, which is what lets the
# Ito correction eps*sigma^2 = eps at the origin sit below rho*U(0).
def _gl_U(x):
    x = np.asarray(x, dtype=float)
    return _GL_EPS * (np.sum(x * x, axis=-1) + 1.0)


def _gl_grad_U(x):
    return 2.0 * _GL_EPS * np.asarray(x, dtype=float)


def _gl_hess_U(x):
    return np.full(np.shape(x)[:-1] + (1, 1), 2.0 * _GL_EPS)


def model_ginzburg_landau() -> SdeModel:
    """Cubic-drift testbed dX = (X - X**3) dt + dW.

    One-dimensional superlinear-drift model with additive unit noise; the
    drift is one-sided Lipschitz (<x-y, mu(x)-mu(y)> <= |x-y|**2).  Ships
    with U(x) = eps*(x**2 + 1), U_bar = 0 and checker-verified constants.
    """
    spec = LyapunovSpec(U=_gl_U, grad_U=_gl_grad_U, hess_U=_gl_hess_U,
                        U_bar=_zero_U_bar, rho=_GL_RHO, c=_GL_C, p=4,
                        q0=4.0, q1=math.inf)
    return SdeModel(name="ginzburg-landau", d=1, m=1, drift=_gl_drift,
                    diffusion=_gl_diffusion, lyapunov=spec,
                    additive_noise=True)


_RADIUS = 10.0  # of the ball the conditions are tuned and sampled in
_VDP_TUNE_POINTS = 401  # grid points per axis of tune_vdp_spec's scan


def tune_vdp_spec(sigma0: float) -> tuple[float, float, float, float]:
    """Pick (eps, u0, rho, c) for the oscillator with drift
    (v, v - x**3 - x**2 v) and diffusion (0, sigma0 x) at T = 1.

    rho covers the closed-form supremum of the generator quotient.  c must
    dominate the local-monotonicity quotient minus its Lyapunov slack over
    all pairs in the admissible ball of radius 10; since the quotient for a
    pair is a segment average of directional derivatives, its supremum is
    bounded by the pointwise worst case lambda_max(sym Dmu) +
    coef*||Dsigma||^2, which is scanned on a 401 x 401 grid (this also
    covers the near-coincident pairs the checker probes), with 15% headroom.
    """
    eps = 0.5 if sigma0 == 0 else min(0.5, 0.5 / sigma0**2)
    u0 = 0.5
    # the quotient's supremum max(2, sigma0**2 / sqrt(2 u0)), as 2 u0 = 1
    rho = 1.15 * max(2.0, sigma0**2)

    g = np.linspace(-_RADIUS, _RADIUS, _VDP_TUNE_POINTS)
    X, V = np.meshgrid(g, g, indexing="ij")
    inside = X**2 + V**2 <= _RADIUS**2
    # sym(Dmu) = [[0, j12], [j12, j22]] with j12 = (1 - 3 x^2 - 2 x v)/2
    j12 = 0.5 * (1.0 - 3.0 * X**2 - 2.0 * X * V)
    j22 = 1.0 - X**2
    lam = 0.5 * (j22 + np.sqrt(j22**2 + 4.0 * j12**2))
    coef = 3.0  # (p-1)(1+1/c)/2 with p = 4 and any c >= 1
    quot = lam + coef * sigma0**2
    slack = (eps * (0.5 * X**4 + V**2 + u0)) / (4.0 * math.exp(rho))
    # above 1 for every sigma0: at the origin lam = (1 + sqrt(2))/2 and
    # slack = eps u0 / (4 e^rho) < 0.01
    need = float(np.max(np.where(inside, quot - slack, -np.inf)))
    return eps, u0, rho, 1.15 * need


# eps, u0, rho, c at sigma0 = 0.5, printed by demos/tune_lyapunov_constants.py
_VDP_CONSTANTS = (0.5, 0.5, 2.3, 103.54939027496211)


def _vdp_drift(z):
    z = np.asarray(z, dtype=float)
    x, v = z[..., 0], z[..., 1]
    return np.stack([v, v - x**3 - x**2 * v], axis=-1)


def _vdp_diffusion(sigma0, z):
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape[:-1] + (2, 1))
    out[..., 1, 0] = sigma0 * z[..., 0]
    return out


# U(x, v) = eps*(x^4/2 + v^2 + u0): the energy-style pairing cancels the
# conservative part of the drift, leaving damping plus bounded terms.
def _vdp_U(eps, u0, z):
    z = np.asarray(z, dtype=float)
    x, v = z[..., 0], z[..., 1]
    return eps * (0.5 * x**4 + v**2 + u0)


def _vdp_grad_U(eps, z):
    z = np.asarray(z, dtype=float)
    x, v = z[..., 0], z[..., 1]
    return eps * np.stack([2.0 * x**3, 2.0 * v], axis=-1)


def _vdp_hess_U(eps, z):
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape[:-1] + (2, 2))
    out[..., 0, 0] = 6.0 * eps * z[..., 0]**2
    out[..., 1, 1] = 2.0 * eps
    return out


def model_vdp(sigma0: float = 0.5) -> SdeModel:
    """Stochastic Duffing-van der Pol oscillator, state (x, v), m = 1.

    drift(x, v) = (v, v - x**3 - x**2 v) and diffusion(x, v) =
    (0, sigma0 x).  The Lyapunov constants are committed for sigma0 = 0.5
    and tuned by ``tune_vdp_spec(sigma0)`` for any other value.
    ValueError names ``sigma0`` unless it is finite and >= 0.
    """
    if not 0 <= sigma0 < math.inf:
        raise ValueError(f"sigma0 must be >= 0 and finite, got {sigma0}")
    if sigma0 == 0.5:
        eps, u0, rho, c = _VDP_CONSTANTS
    else:
        eps, u0, rho, c = tune_vdp_spec(sigma0)
    spec = LyapunovSpec(U=partial(_vdp_U, eps, u0),
                        grad_U=partial(_vdp_grad_U, eps),
                        hess_U=partial(_vdp_hess_U, eps), U_bar=_zero_U_bar,
                        rho=rho, c=c, p=4, q0=4.0, q1=math.inf)
    return SdeModel(name="vdp", d=2, m=1, drift=_vdp_drift,
                    diffusion=partial(_vdp_diffusion, sigma0), lyapunov=spec)


# ---------------------------------------------------------------------------
# sampled condition checker


def _sample_ball(rng: np.random.Generator, n: int, d: int,
                 radius: float) -> np.ndarray:
    """n points of the centered ball of the given radius: half uniform in
    the ball, half Gaussian with scale radius/3 (clipped to the ball)."""
    n_unif = n // 2
    dirs = rng.standard_normal((n_unif, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    unif = dirs * (radius * rng.random(n_unif) ** (1.0 / d))[:, None]
    gauss = rng.standard_normal((n - n_unif, d)) * (radius / 3.0)
    nrm = np.linalg.norm(gauss, axis=1, keepdims=True)
    gauss = np.where(nrm > radius, gauss * (radius / nrm), gauss)
    return np.concatenate([unif, gauss], axis=0)


def _pair_gaps(model: SdeModel, x: np.ndarray, y: np.ndarray):
    """(x, y, x - y, drift(x) - drift(y), diffusion(x) - diffusion(y)) over
    the pairs with x != y: a coincident pair has no quotient to check."""
    keep = np.einsum("...d,...d->...", x - y, x - y) > 0
    x, y = x[keep], y[keep]
    return (x, y, x - y, model.drift(x) - model.drift(y),
            model.diffusion(x) - model.diffusion(y))


@dataclass(frozen=True)
class ConditionStats:
    """Sampled result for one condition: LHS - RHS <= 0 means pass."""

    name: str
    n_checked: int
    n_violations: int
    worst_margin: float  # max over samples of LHS - RHS (negative = slack)


def _condition_stats(name: str, margin: np.ndarray) -> ConditionStats:
    """The stats of sampled margins LHS - RHS: a margin that is not <= 0,
    NaN included, is an inequality not verified there."""
    return ConditionStats(name, margin.size, int(np.sum(~(margin <= 0))),
                          float(np.max(margin)))


@dataclass(frozen=True)
class ConditionReport:
    generator: ConditionStats
    monotonicity: ConditionStats
    coercivity: ConditionStats

    @property
    def total_violations(self) -> int:
        return (self.generator.n_violations + self.monotonicity.n_violations
                + self.coercivity.n_violations)

    @property
    def passed(self) -> bool:
        return self.total_violations == 0


def _generator_lhs(model: SdeModel, spec: LyapunovSpec, x: np.ndarray) -> np.ndarray:
    mu = model.drift(x)
    sig = model.diffusion(x)
    grad = spec.grad_U(x)
    hess = spec.hess_U(x)
    term_drift = np.einsum("...d,...d->...", grad, mu)
    term_hess = 0.5 * np.einsum("...dm,...de,...em->...", sig, hess, sig)
    sig_grad = np.einsum("...dm,...d->...m", sig, grad)
    term_grad = 0.5 * np.einsum("...m,...m->...", sig_grad, sig_grad)
    return term_drift + term_hess + term_grad + spec.U_bar(x)


def check_conditions(model: SdeModel, spec: LyapunovSpec, T: float,
                     radius: float, n_points: int,
                     seed: int = 0) -> ConditionReport:
    """Sampled check of the three Lyapunov-side conditions in the centered
    ball of the given radius.

    At each sampled point x: the generator inequality
    <grad U, mu> + (1/2)<sigma, Hess U sigma>_F + (1/2)||sigma^T grad U||^2
    + U_bar <= rho U; at each sampled pair (x, y), x != y: the
    local-monotonicity quotient against c plus its Lyapunov slack; and the
    coercivity (1/c)||x||**(1/c) <= 1 + |U(x)|.  Pairs include
    near-coincident ones (||x - y|| = 1e-3) where cancellation in the
    quotient is worst.  The points are drawn by ``_sample_ball`` from
    ``brownian._seed_generator(seed)``.  ValueError, raised before any
    draw, names ``T`` unless T > 0, ``radius`` unless it is finite and
    > 0, ``n_points`` unless it is an integer >= 2, one pair of each
    kind, and ``seed`` unless it is an integer in [0, 2**64).  Returns
    per-condition violation counts and worst margins; a NaN margin counts
    as a violation.
    """
    _check_horizon(T)
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    _check_count("n_points", n_points, 2)
    rng = _seed_generator(seed)
    d = model.d
    pts = _sample_ball(rng, n_points, d, radius)
    gen = _condition_stats(
        "generator", _generator_lhs(model, spec, pts) - spec.rho * spec.U(pts))

    n_pairs = n_points // 2
    x = _sample_ball(rng, n_pairs, d, radius)
    y = _sample_ball(rng, n_pairs, d, radius)
    dirs = rng.standard_normal((n_pairs, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    x_near = _sample_ball(rng, n_pairs, d, radius)
    x, y, dz, dmu, dsig = _pair_gaps(model, np.concatenate([x, x_near]),
                                     np.concatenate([y, x_near + 1e-3 * dirs]))
    # the local-monotonicity quotient, against c plus its Lyapunov slack
    coef = (spec.p - 1.0) * (1.0 + 1.0 / spec.c) / 2.0
    quot = ((np.einsum("...d,...d->...", dz, dmu)
             + coef * np.einsum("...dm,...dm->...", dsig, dsig))
            / np.einsum("...d,...d->...", dz, dz))
    slack = np.zeros_like(quot)
    scale = 2.0 * math.exp(spec.rho * T)
    if not math.isinf(spec.q0):
        slack = slack + (np.abs(spec.U(x)) + np.abs(spec.U(y))) / (spec.q0 * T * scale)
    if not math.isinf(spec.q1):
        slack = slack + (np.abs(spec.U_bar(x)) + np.abs(spec.U_bar(y))) / (spec.q1 * scale)
    mono = _condition_stats("local-monotonicity", quot - (spec.c + slack))

    nrm = np.linalg.norm(pts, axis=-1)
    coer = _condition_stats("coercivity", (1.0 / spec.c) * nrm ** (1.0 / spec.c)
                            - 1.0 - np.abs(spec.U(pts)))
    return ConditionReport(generator=gen, monotonicity=mono, coercivity=coer)


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class ModelCatalogEntry:
    model: SdeModel
    admissible_region: str
    default_x0: np.ndarray
    notes: str


def catalog() -> dict[str, ModelCatalogEntry]:
    """The shipped model zoo, keyed by CLI model id."""
    return {
        "gbm": ModelCatalogEntry(
            model=model_gbm(0.05, 0.2),
            admissible_region="all of R",
            default_x0=np.array([1.0]),
            notes=("closed-form solution available; no Lyapunov data (the "
                   "squared-gradient generator term is quartic under any "
                   "quadratic U, so the generator inequality fails at "
                   "infinity for every rho)"),
        ),
        "ginzburg-landau": ModelCatalogEntry(
            model=model_ginzburg_landau(),
            admissible_region="ball of radius 10 (checker sampling region)",
            default_x0=np.array([1.0]),
            notes=("cubic one-sided Lipschitz drift, additive noise; "
                   "Lyapunov constants tuned numerically, committed in "
                   "models.py"),
        ),
        "vdp": ModelCatalogEntry(
            model=model_vdp(),
            admissible_region="ball of radius 10 (checker sampling region)",
            default_x0=np.array([1.0, 0.0]),
            notes=("Duffing-van der Pol oscillator with state-proportional "
                   "noise on the velocity; energy-style Lyapunov function"),
        ),
    }
