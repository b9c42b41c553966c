"""Shared domain types: SDE models, uniform grids, error tables, and the
checks and path-block layout shared by every Monte Carlo estimator.

All state arrays are float64. Model callables are vectorized over leading
axes: ``drift`` maps ``(..., d) -> (..., d)``, ``diffusion`` maps
``(..., d) -> (..., d, m)``, and Lyapunov callables map ``(..., d)`` to
``(...)`` / ``(..., d)`` / ``(..., d, d)`` for value / gradient / Hessian.
Every type here is immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GridSpec",
    "LyapunovSpec",
    "SdeModel",
    "validate_start",
    "ErrorRow",
    "ErrorTable",
    "RateFit",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, T] with N subintervals, nodes t_k = k*T/N."""

    T: float
    N: int

    def __post_init__(self):
        _check_horizon(self.T)
        _check_count("N", self.N)

    @property
    def h(self) -> float:
        """Step size T/N."""
        return self.T / self.N


@dataclass(frozen=True)
class LyapunovSpec:
    """Lyapunov data attached to a model: U, its derivatives, and constants.

    ``c`` is the finite growth/monotonicity constant (must satisfy
    c >= T**(1/32) for the horizon it is used with), ``rho`` the finite
    generator-inequality rate, ``p`` the polynomial growth degree, and
    ``q0`` and ``q1``, each in (0, inf], divide the U and U_bar terms of
    the local-monotonicity slack (inf drops the term).
    """

    U: Callable[[np.ndarray], np.ndarray]
    grad_U: Callable[[np.ndarray], np.ndarray]
    hess_U: Callable[[np.ndarray], np.ndarray]
    U_bar: Callable[[np.ndarray], np.ndarray]
    rho: float
    c: float
    p: int
    q0: float
    q1: float

    def __post_init__(self):
        # each comparison fails for NaN
        if not 0 <= self.rho < math.inf:
            raise ValueError(f"rho must be >= 0 and finite, got {self.rho}")
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be > 0 and finite, got {self.c}")
        _check_count("p", self.p)
        if not (self.q0 > 0 and self.q1 > 0):
            raise ValueError("q0, q1 must lie in (0, inf]")


@dataclass(frozen=True)
class SdeModel:
    """An SDE dX = mu(X) dt + sigma(X) dW with optional closed-form solution.

    ``exact_solution(x0, t, W_t)`` returns the strong solution driven by the
    same Brownian path, when a closed form exists.  Callables must return
    finite values inside the model's admissible region.

    ``additive_noise`` declares that sigma does not depend on the state:
    the schemes then evaluate ``diffusion`` once per ``run_paths`` call, at
    the call's first node, and use that sigma for every step.  Nothing
    checks the declaration at run time, so a false one silently changes
    results.
    """

    name: str
    d: int
    m: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    exact_solution: Optional[Callable] = None
    lyapunov: Optional[LyapunovSpec] = None
    additive_noise: bool = False

    def __post_init__(self):
        _check_count("d", self.d)
        _check_count("m", self.m)


def _check_count(name: str, value, least=1) -> None:
    """Raise ValueError, naming ``name``, unless value is an integer (a
    Python or numpy int, or whatever else ``operator.index`` takes) of at
    least ``least``.  The one rule for every count setting."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_horizon(T: float) -> None:
    """Raise ValueError, naming ``T``, unless 0 < T < inf (NaN fails)."""
    if not T > 0:
        raise ValueError(f"T must be > 0, got {T}")
    if T == math.inf:
        raise ValueError(f"T must be finite, got {T}")


def validate_start(model: SdeModel, x0, M: int) -> np.ndarray:
    """The start state of an M-path ensemble as a float (d,) array.

    ValueError names ``x0`` unless it has exactly model.d components, all
    finite, and ``M`` unless it is an integer >= 1.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"x0 must have {model.d} component(s) for model "
                         f"{model.name!r}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"x0 must be finite, got {x.tolist()}")
    _check_count("M", M)
    return x


BLOCK_PATHS = 1000  # paths stepped together in one vectorized block


def path_blocks(M: int, n_batches: int = 1) -> list[list[tuple[int, int, int]]]:
    """Paths [0, M), split into n_batches near-equal batches, in blocks of
    at most BLOCK_PATHS consecutive paths, each a list of (batch, lo, hi)
    segments: whole batches are packed together, and a larger batch is cut
    every BLOCK_PATHS paths from its own start.  With path j's increments
    keyed by (seed, j), this layout fixes every Monte Carlo estimate."""
    edges = [round(b * M / n_batches) for b in range(n_batches + 1)]
    blocks, size = [[]], 0
    for b in range(n_batches):
        for lo in range(edges[b], edges[b + 1], BLOCK_PATHS):
            hi = min(lo + BLOCK_PATHS, edges[b + 1])
            if size + hi - lo > BLOCK_PATHS:
                blocks.append([])
                size = 0
            blocks[-1].append((b, lo, hi))
            size += hi - lo
    return [blk for blk in blocks if blk]


def worker_count(threads: int) -> int:
    """Workers for a ``threads`` setting, 0 meaning one per core;
    ValueError names ``threads`` unless it is an integer >= 0."""
    _check_count("threads", threads, 0)
    return threads or os.cpu_count() or 1


@dataclass(frozen=True)
class ErrorRow:
    """One resolution of a strong-error study."""

    N: int
    M: int
    sup_error: float
    std_error: float
    seed: int
    per_gridpoint_errors: Optional[np.ndarray] = None
    overflow_fraction: float = 0.0


@dataclass(frozen=True)
class ErrorTable:
    """Per-N strong-error estimates for one (scheme, model) pair.

    ``sup_error`` of each row is the max over grid indices k of the Monte
    Carlo estimate of the L^r norm of X_{t_k} - Y^N_{t_k} (sup of norms, not
    norm of sup).
    """

    scheme: str
    model: str
    r: float
    rows: tuple[ErrorRow, ...] = field(default_factory=tuple)
    T: float = 1.0


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(error) against log(step size)."""

    slope: float
    intercept: float
    residual: float
    points: tuple[tuple[float, float], ...]
