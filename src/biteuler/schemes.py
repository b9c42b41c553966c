"""The Euler-type update and the path drivers of the two schemes.

Schemes:

- ``EULER_MARUYAMA``: the classical explicit scheme, no taming, no stopping.
  Divergence is an expected, measured outcome, so paths that leave the
  float64 range are frozen at their last finite state and flagged rather
  than raising.
- ``STOPPED_BIT``: Brownian increments pass through the quartic-exponential
  taming map with per-step scale h = T/N, and the whole update is gated by
  the indicator ||Y_k|| <= exp(sqrt(|log(N/T)|)).  Once the norm exceeds the
  threshold the path is constant (frozen) for the rest of the horizon.

The schemes differ only in how they transform the increment and which gate
they apply, so the update mu*h + sigma@dW is written once (``_update``),
and the batched driver ``run_paths`` steps both schemes with it.  One path
is a one-row ``BatchRuns``: ``run_path`` is ``run_paths`` on one Brownian
path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .brownian import BrownianGrid, coarsen_increments
from .core import GridSpec, SdeModel
from .taming import TamingParams, stopping_threshold, tame

__all__ = [
    "SchemeKind",
    "OVERFLOW_CAP",
    "run_path",
    "run_paths",
    "BatchRuns",
]

# States whose components pass this magnitude count as diverged; estimators
# saturate flagged contributions at this value instead of propagating inf.
OVERFLOW_CAP = 1e300


class SchemeKind(enum.Enum):
    EULER_MARUYAMA = "em"
    STOPPED_BIT = "bit"


def _norm(y: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, one einsum for every d: for d = 1
    it gives sqrt(y * y) bit for bit.  ``run_paths`` gates a one-dimensional
    state on |y| instead."""
    return np.sqrt(np.einsum("...d,...d->...", y, y))


def _update(model: SdeModel, y: np.ndarray, dw: np.ndarray,
            h: float) -> np.ndarray:
    """The Euler-type update mu(y)*h + sigma(y) @ dw of both schemes;
    ``dw`` is the increment as the scheme uses it (already tamed for
    STOPPED_BIT)."""
    mu = model.drift(y)
    sigma = model.diffusion(y)
    if dw.shape[-1] == 1:
        # a one-term contraction is one product; + 0.0 turns a -0.0 product
        # into the +0.0 that einsum's zero-initialised sum returns
        noise = sigma[..., 0] * dw + 0.0
    else:
        noise = np.einsum("...dm,...m->...d", sigma, dw)
    return mu * h + noise


@dataclass(frozen=True)
class BatchRuns:
    """Vectorized ensemble of scheme runs sharing one grid.

    ``states`` has shape (B, n+1, d) and holds grid nodes start .. start+n
    (the whole grid, n = N, for a run from the initial state); ``tau_index``
    (B,) holds the first grid index whose state norm exceeds the stopping
    threshold (N if none so far); ``frozen`` marks paths whose stopping
    indicator switched off; ``overflow`` marks paths that left the float64
    range.  A run that ends before node N can be passed back to
    ``run_paths`` in place of ``x0`` to continue it.
    """

    grid: GridSpec
    states: np.ndarray
    tau_index: np.ndarray
    frozen: np.ndarray
    overflow: np.ndarray
    start: int = 0

    @classmethod
    def initial(cls, grid: GridSpec, x0, B: int, d: int) -> "BatchRuns":
        """B paths at node 0, not yet stepped."""
        y = np.broadcast_to(np.asarray(x0, dtype=float), (B, d))
        return cls(grid=grid, states=y[:, None],
                   tau_index=np.full(B, grid.N, dtype=np.int64),
                   frozen=np.zeros(B, dtype=bool),
                   overflow=np.zeros(B, dtype=bool))

    def tail(self) -> "BatchRuns":
        """The last node alone: all that a continuation reads."""
        return replace(self, states=self.states[:, -1:].copy(), start=self.end)

    @property
    def end(self) -> int:
        """Grid index of the last stored node."""
        return self.start + self.states.shape[1] - 1

    def __len__(self) -> int:
        return self.states.shape[0]


def _check_finite(path: np.ndarray, gated: np.ndarray) -> None:
    """Raise FloatingPointError if a stopped-tamed call stepped a path to a
    non-finite state.  ``path`` holds the call's nodes time-major, row 0
    the node before it, and ``gated`` the paths past the threshold there: a
    gated path is held for the whole call, so one gated at a non-finite
    state was not stepped to it."""
    # a finite sum has no non-finite term; an infinite one may come from
    # finite terms, so the exact test decides
    if np.isfinite(path[1:].sum()):
        return
    bad = ~np.isfinite(path[1:]).all(axis=(0, 2))
    held = gated & ~np.isfinite(path[0]).all(axis=-1)
    if (bad & ~held).any():
        raise FloatingPointError(
            "non-finite drift/diffusion inside the stopping region")


def run_paths(kind: SchemeKind, model: SdeModel, grid: GridSpec, x0,
              dW: np.ndarray) -> BatchRuns:
    """Drive a batch of paths through the scheme recursion.

    ``dW`` has shape (B, n, m) and holds per-step Brownian increments on the
    scheme's own grid.  With an initial state ``x0`` they must cover the
    whole grid (n = N); with a ``BatchRuns`` from an earlier call in place
    of ``x0`` they continue its paths for the next n steps, and the chained
    calls compute bit for bit what one call over all the steps computes.
    One call holds all its increments, tamed and time-major: chain calls of
    a few dozen steps over a long grid, as ``diagnostics._drive`` does.
    An initial state must have model.d components, none NaN (an infinite
    one freezes a stopped tamed path at node 0); otherwise ValueError
    names ``x0``.

    tau_index is recorded against the stopping threshold for every scheme;
    only STOPPED_BIT freezes at it.  Euler-Maruyama paths that produce
    non-finite states or pass magnitude 1e300 are frozen at their last
    finite state and flagged in ``overflow``; a STOPPED_BIT path stepped to
    a non-finite state inside the stopping region raises
    FloatingPointError.
    """
    B, n_steps, m = dW.shape
    if isinstance(x0, BatchRuns):
        prev = x0
        if prev.grid != grid or len(prev) != B:
            raise ValueError("continued runs do not match the grid or batch")
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != (model.d,) or np.isnan(x).any():
            raise ValueError(f"x0 must have {model.d} component(s), none NaN, "
                             f"for model {model.name!r}, got {x.tolist()}")
        if n_steps != grid.N:
            raise ValueError("increment array shape does not match grid/model")
        prev = BatchRuns.initial(grid, x, B, model.d)
    if m != model.m or prev.end + n_steps > grid.N:
        raise ValueError("increment array shape does not match grid/model")
    N, h, k0 = grid.N, grid.h, prev.end
    threshold = stopping_threshold(N, grid.T)
    stopped = kind is SchemeKind.STOPPED_BIT
    # for d = 1 the norm is |y|: sqrt(y*y) equals it wherever y*y neither
    # overflows nor underflows, and where it does both lie on the same side
    # of the threshold, which is at least 1 and far below 1e154
    norm = (lambda y: np.abs(y[:, 0])) if model.d == 1 else _norm

    # the call's nodes, time-major so that each step reads and writes
    # contiguous rows; row 0 is the node before the call
    path = np.empty((n_steps + 1, B, model.d))
    path[0] = prev.states[:, -1]
    exceeded = np.empty((n_steps, B), dtype=bool)
    tau = prev.tau_index.copy()
    overflow = prev.overflow.copy()
    with np.errstate(all="ignore"):
        inc = tame(TamingParams(h=h, m=m), dW) if stopped else dW
        for j, dw in enumerate(np.ascontiguousarray(inc.transpose(1, 0, 2))):
            y, y_next = path[j], path[j + 1]
            gate = np.greater(norm(y), threshold, out=exceeded[j])
            np.add(y, _update(model, y, dw, h), out=y_next)
            if not stopped:
                overflow |= ~(np.abs(y_next) <= OVERFLOW_CAP).all(axis=-1)
                gate = overflow
            np.copyto(y_next, y, where=gate[:, None])
        if stopped and n_steps:
            _check_finite(path, exceeded[0])
    hit = (tau == N) & exceeded.any(axis=0)
    if hit.any():
        tau[hit] = k0 + exceeded[:, hit].argmax(axis=0)
    states = np.ascontiguousarray(path.transpose(1, 0, 2))
    frozen = tau < N if stopped else np.zeros(B, dtype=bool)
    return BatchRuns(grid=grid, states=states, tau_index=tau, frozen=frozen,
                     overflow=overflow, start=k0)


def run_path(kind: SchemeKind, model: SdeModel, grid: GridSpec, x0,
             path: BrownianGrid) -> BatchRuns:
    """Run one path of the scheme: the one-row ``run_paths`` run on the
    increments of ``path`` summed in blocks to the grid's steps, so that
    reference and approximation can share one Brownian path.  ``path`` must
    span grid.T with model.m noise components, and grid.N must divide
    path.N_fine; otherwise ValueError names ``path``."""
    if path.T != grid.T:
        raise ValueError(f"path spans T = {path.T}, the grid T = {grid.T}")
    if path.m != model.m:
        raise ValueError(f"path has m = {path.m} noise components, "
                         f"the model m = {model.m}")
    if path.N_fine % grid.N != 0:
        raise ValueError(f"path's {path.N_fine}-step grid does not refine the "
                         f"{grid.N}-step grid")
    return run_paths(kind, model, grid, x0,
                     coarsen_increments(path.increments[None], grid.N))

