"""Quantitative side conditions as computable checks.

Implements the per-N perturbation rate eps_N driving the exponential-moment
inequality, the Gronwall-style moment bound with its explicit constants,
the intra-step temporal-regularity bound, the exponential-moment functional
estimator with stopping-time tracking, and the stopping-probability bound.

The constants (c, p) entering the bounds are proof-style growth constants:
they must dominate sampled Lipschitz/growth inequalities of the model
(checked by ``growth_preflight``), and the bounds are guaranteed only from
a crossover index N0 onward (reported by ``n0_for``; at desk-scale N the
admissibility inequalities typically do not hold yet and the bounds are
vacuously large, which the reports state rather than hide).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .brownian import BlockStream, coarsen_increments, generate_block
from .core import (GridSpec, LyapunovSpec, SchemeRun, SdeModel, path_blocks,
                   validate_start)
from .models import default_sampler
from .schemes import OVERFLOW_CAP, BatchRuns, SchemeKind, _update, run_paths
from .taming import TamingParams, stopping_threshold, tame

__all__ = [
    "AnalysisConstants",
    "epsilon_n",
    "moment_bound",
    "growth_preflight",
    "GrowthReport",
    "fit_growth_constant",
    "n0_for",
    "N0Report",
    "regularity_check",
    "regularity_sweep",
    "RegularityReport",
    "exp_moment_estimate",
    "exp_moment_supremum",
    "MomentEstimate",
    "stopping_probability",
    "StoppingReport",
]

# grid steps per run_paths call of _block_slices and of the sweeps
_SLICE_STEPS = 64


def _block_slices(kind: SchemeKind, model: SdeModel, grid: GridSpec, x0,
                  M: int, seed: int, refine: int = 1,
                  stop: Optional[int] = None):
    """Step paths [0, M) one block, then one time slice, at a time.

    Each slice runs _SLICE_STEPS steps on from the last and yields (lo,
    runs, fine): the block's first path, its nodes, the first repeating
    the previous slice's last, and its (B, refine*n, m) increments on the
    refine*N grid.  A block ends with the slice holding node ``stop`` (node
    N by default), and draws its increments slice by slice through a
    ``BlockStream`` that ends there too: a block holds its lookahead window
    and one slice, whatever N is, and draws no step past the stop slice."""
    stop = max(1, grid.N if stop is None else stop)  # node 0: the first slice
    # fine steps up to the end of the stop slice, drawn as unit normals and
    # scaled to the refine*N grid: its increments' prefix, bit for bit
    n_draw = refine * min(grid.N, -(-stop // _SLICE_STEPS) * _SLICE_STEPS)
    scale = math.sqrt(grid.T / (refine * grid.N))
    for [(_, lo, hi)] in path_blocks(M):
        stream = BlockStream(n_draw, n_draw, model.m, seed, lo, hi - lo)
        runs = BatchRuns.initial(grid, x0, hi - lo, model.d)
        while runs.end < stop:
            part = stream.draw(min(refine * _SLICE_STEPS,
                                   n_draw - refine * runs.end))
            part *= scale
            runs = run_paths(kind, model, grid, runs.tail(),
                             coarsen_increments(part, part.shape[1] // refine))
            yield lo, runs, part


@dataclass(frozen=True)
class AnalysisConstants:
    """Growth constants (c, p) with the horizon, dimensions and rate they
    are used with.  Requires c >= T**(1/32)."""

    c: float
    p: int
    T: float
    m: int
    rho: float
    N: int

    def __post_init__(self):
        if self.c < self.T ** (1.0 / 32.0):
            raise ValueError(f"c must be >= T**(1/32) = {self.T ** (1.0/32.0)}")
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.N < 1:
            raise ValueError("N must be >= 1")

    def at(self, N: int) -> "AnalysisConstants":
        return replace(self, N=N)


def epsilon_n(consts: AnalysisConstants) -> float:
    """Per-N rate in the exponential-moment inequality; tends to 0 as
    N grows (like (T/N)**(3/32) up to constants).

    Evaluated exactly as displayed; for small N the value can overflow the
    float range, in which case +inf is returned (the bound is vacuous
    there, not wrong).
    """
    c, p, T, m, N = consts.c, consts.p, consts.T, consts.m, consts.N
    rm = math.sqrt(m)
    tn = T / N
    nt = N / T
    try:
        expo = (4.0 ** (p + 0.5) * c ** (2 * p + 3) * tn ** (3.0 / 16.0)
                * (T ** 0.75 + rm)
                + (c**2 + 3.0**p * c ** (2 * p + 1)) * tn ** (31.0 / 32.0))
        lead = math.exp(expo)
        term_a = (4.0 * c ** (2 * p + 2) * 3.0 ** (2 * p) * nt ** (1.0 / 16.0)
                  * (2.0 * c ** (p + 1) * tn ** (7.0 / 32.0) * (T ** 0.75 + rm)
                     + 16.0 * rm * tn ** 0.5))
        term_b = (104.0 * rm * c ** (p + 1) * tn ** (15.0 / 32.0)
                  + 2.0 * c ** (2 * p + 2) * 3.0**p * tn ** (3.0 / 16.0)
                  * (T ** 0.75 + rm))
        bracket = term_a + term_b * (term_b + 4.0 * c**2 * nt ** (1.0 / 32.0))
        tail = 3.0 ** (2 * p) * 4.0 * c ** (4 * p + 2) * nt ** (1.0 / 16.0)
        return lead * bracket * tail
    except OverflowError:
        return math.inf


def moment_bound(consts: AnalysisConstants, t: float, EU0: float) -> float:
    """Gronwall bound EU0*e^{Ct} + (Cbar/C)(e^{Ct} - 1) on E[U(Y_t)].

    C = rho + 2 c^{p+3} (T/N)^{15/16} + 32 c^{3p+4} (T/N)^{13/32} and
    Cbar = (T/N)^{13/32} (32 c^{3p+4} + (4^{p+3}/2) c^{p^2+4p+4} (T/N)^p);
    the C -> 0 limit is EU0 + Cbar*t.  Overflowing values return +inf.
    """
    if EU0 < 0:
        raise ValueError("EU0 must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    c, p, T, N, rho = consts.c, consts.p, consts.T, consts.N, consts.rho
    tn = T / N
    try:
        C = rho + 2.0 * c ** (p + 3) * tn ** (15.0 / 16.0) \
            + 32.0 * c ** (3 * p + 4) * tn ** (13.0 / 32.0)
        Cbar = tn ** (13.0 / 32.0) * (32.0 * c ** (3 * p + 4)
                                      + 0.5 * 4.0 ** (p + 3)
                                      * c ** (p * p + 4 * p + 4) * tn**p)
        if C == 0.0:
            return EU0 + Cbar * t
        growth = math.exp(C * t)
        return EU0 * growth + Cbar / C * (growth - 1.0)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# admissibility of (c, p)


@dataclass(frozen=True)
class GrowthReport:
    """Sampled check that (c, p) dominate the model's local Lipschitz and
    polynomial-growth inequalities.  Margins are max(LHS - RHS); <= 0 means
    the inequality held at every sampled point."""

    c: float
    p: int
    n_points: int
    lipschitz_margin: float
    growth_margin: float

    @property
    def admissible(self) -> bool:
        return self.lipschitz_margin <= 0 and self.growth_margin <= 0


def _growth_lhs(model: SdeModel, spec: Optional[LyapunovSpec], x: np.ndarray) -> np.ndarray:
    mu = model.drift(x)
    sig = model.diffusion(x)
    lhs = (np.sqrt(np.einsum("...d,...d->...", mu, mu))
           + np.sqrt(np.einsum("...dm,...dm->...", sig, sig)))
    if spec is not None:
        hess = spec.hess_U(x)
        grad = spec.grad_U(x)
        lhs = (lhs + np.abs(spec.U_bar(x))
               + np.linalg.norm(hess, ord=2, axis=(-2, -1))
               + np.sqrt(np.einsum("...d,...d->...", grad, grad))
               + np.abs(spec.U(x)))
    return lhs


_GROWTH_POINTS = 10000  # default points and pairs of the growth samples
_GROWTH_SEED = 7  # Philox key of the growth samples


def _growth_samples(model: SdeModel, spec: Optional[LyapunovSpec], p: int,
                    n_points: int):
    """The sampled terms of the two growth inequalities, c left out.

    Returns (lhs_lip, poly_lip, dist, lhs_gro, poly_gro): at the sampled
    pairs (x, y) with x != y the Lipschitz inequality reads
    lhs_lip <= c * poly_lip * dist, and at the sampled points x the growth
    inequality reads lhs_gro <= c * poly_gro.
    """
    rng = np.random.Generator(np.random.Philox(key=_GROWTH_SEED))
    sample = default_sampler()
    x = sample(rng, n_points, model.d)
    y = sample(rng, n_points, model.d)
    keep = np.einsum("...d,...d->...", x - y, x - y) > 0
    x_p, y_p = x[keep], y[keep]
    dmu = model.drift(x_p) - model.drift(y_p)
    dsig = model.diffusion(x_p) - model.diffusion(y_p)
    dist = np.sqrt(np.einsum("...d,...d->...", x_p - y_p, x_p - y_p))
    lhs_lip = (np.sqrt(np.einsum("...d,...d->...", dmu, dmu))
               + np.sqrt(np.einsum("...dm,...dm->...", dsig, dsig)))
    poly_lip = (1.0 + np.linalg.norm(x_p, axis=-1) ** p
                + np.linalg.norm(y_p, axis=-1) ** p)
    poly_gro = 1.0 + np.linalg.norm(x, axis=-1) ** p
    return lhs_lip, poly_lip, dist, _growth_lhs(model, spec, x), poly_gro


def growth_preflight(model: SdeModel, spec: Optional[LyapunovSpec],
                     consts: AnalysisConstants,
                     n_points: int = _GROWTH_POINTS) -> GrowthReport:
    """Sample the two growth inequalities at n_points points/pairs drawn
    by ``default_sampler()`` from Philox key 7.

    Lipschitz: ||mu(x)-mu(y)|| + ||sigma(x)-sigma(y)||_F
               <= c (1 + ||x||^p + ||y||^p) ||x-y||;
    growth:    |U_bar| + ||Hess U|| + ||grad U|| + |U| + ||mu|| + ||sigma||_F
               <= c (1 + ||x||^p)  (the U terms are dropped when no
               Lyapunov data is supplied).
    """
    lhs_lip, poly_lip, dist, lhs_gro, poly_gro = _growth_samples(
        model, spec, consts.p, n_points)
    lip_margin = float(np.max(lhs_lip - consts.c * poly_lip * dist))
    gro_margin = float(np.max(lhs_gro - consts.c * poly_gro))
    return GrowthReport(c=consts.c, p=consts.p, n_points=n_points,
                        lipschitz_margin=lip_margin, growth_margin=gro_margin)


def fit_growth_constant(model: SdeModel, spec: Optional[LyapunovSpec], p: int,
                        T: float = 1.0) -> float:
    """1.1 times the smallest c dominating the growth inequalities for the
    given degree p, sampled as ``growth_preflight`` samples them by
    default, floored at T**(1/32)."""
    lhs_lip, poly_lip, dist, lhs_gro, poly_gro = _growth_samples(
        model, spec, p, _GROWTH_POINTS)
    c_lip = float(np.max(lhs_lip / (poly_lip * dist)))
    c_gro = float(np.max(lhs_gro / poly_gro))
    return 1.1 * max(c_lip, c_gro, T ** (1.0 / 32.0))


@dataclass(frozen=True)
class N0Report:
    """Crossover index from which the two per-N admissibility inequalities

        exp(sqrt(|log(N/T)|)) <= c (N/T)^{1/(32p)}             (threshold fit)
        c^p (T/N)^{7/32} (T^{3/4} + sqrt(m)) <= (N/T)^{1/(32p)} (step-size fit)

    hold for every larger N.  N0 can exceed the float range; log10_N0 is
    always finite.
    """

    N0: float
    log10_N0: float
    threshold_fit_all_N: bool  # no gap: the first inequality holds for all N >= T


def n0_for(consts: AnalysisConstants) -> N0Report:
    c, p, T, m = consts.c, consts.p, consts.T, consts.m
    logc = math.log(c)
    # first inequality in u = log(N/T): sqrt(u) <= logc + u/(32p)
    if logc >= 8.0 * p:
        u_thr = 0.0
        no_gap = True
    else:
        v_plus = 16.0 * p * (1.0 + math.sqrt(1.0 - logc / (8.0 * p)))
        u_thr = v_plus**2
        no_gap = False
    # second inequality: u*(7/32 + 1/(32p)) >= p*logc + log(T^{3/4}+sqrt(m))
    rhs = p * logc + math.log(T**0.75 + math.sqrt(m))
    u_step = max(rhs / (7.0 / 32.0 + 1.0 / (32.0 * p)), 0.0)
    u0 = max(u_thr, u_step, 0.0)
    log_n0 = u0 + math.log(T)
    try:
        n0 = math.exp(log_n0)
    except OverflowError:
        n0 = math.inf
    return N0Report(N0=max(n0, 1.0), log10_N0=log_n0 / math.log(10.0),
                    threshold_fit_all_N=no_gap)


# ---------------------------------------------------------------------------
# temporal regularity


@dataclass(frozen=True)
class RegularityReport:
    """Intra-step deviation check ||Y_t - Y_floor(t)|| <= bound.

    ``bound`` is 2 c^{p+1} (T/N)^{7/32} (T^{3/4} + sqrt(m)).  When the
    sampled growth preflight fails, ``constants_admissible`` is False and a
    failed sample indicates inadmissible constants rather than a bound
    violation; ``n0`` restricts the guaranteed regime to N >= N0.
    """

    n_samples: int
    n_pass: int
    max_lhs: float
    bound: float
    constants_admissible: bool
    n0: N0Report

    @property
    def all_passed(self) -> bool:
        return self.n_pass == self.n_samples


def _regularity_lhs(model: SdeModel, grid: GridSpec, states: np.ndarray,
                    incr_fine: np.ndarray) -> np.ndarray:
    """Intra-step deviations ||Y_{t_k+s_j} - Y_{t_k}|| for all fine offsets.

    states: (B, n+1, d), any n consecutive steps of a run on ``grid``;
    incr_fine: (B, refine*n, m), their fine increments.  Returns an array
    of shape (B, n, refine-1) of deviations at the interior fine nodes.
    """
    B, n = states.shape[0], states.shape[1] - 1
    refine = incr_fine.shape[1] // n
    h = grid.h
    thr = stopping_threshold(grid.N, grid.T)
    y = states[:, :-1, None]                                 # (B, n, 1, d)
    alive = np.sqrt(np.einsum("...d,...d->...", y, y)) <= thr
    partial = np.cumsum(incr_fine.reshape(B, n, refine, model.m), axis=2)
    pi = tame(TamingParams(h=h, m=model.m), partial[:, :, :-1])
    offsets = np.arange(1, refine)[:, None] * (h / refine)   # interior nodes
    upd = _update(SchemeKind.STOPPED_BIT, model, y, pi, offsets, h)
    dev = np.sqrt(np.einsum("...d,...d->...", upd, upd))     # (B, n, refine-1)
    return np.where(alive, dev, 0.0)


def regularity_bound(consts: AnalysisConstants) -> float:
    c, p, T, m, N = consts.c, consts.p, consts.T, consts.m, consts.N
    return 2.0 * c ** (p + 1) * (T / N) ** (7.0 / 32.0) * (T**0.75 + math.sqrt(m))


def regularity_check(run: SchemeRun, model: SdeModel, consts: AnalysisConstants,
                     path, samples_per_step: int = 4) -> RegularityReport:
    """Check the intra-step regularity bound along one stopped-tamed run.

    ``path`` is the BrownianGrid that drove the run; its fine grid supplies
    the intra-step Brownian values exactly (partial sums of fine
    increments), so no auxiliary bridge sampling is needed.  Each step is
    probed at the samples_per_step >= 1 interior nodes of the path
    coarsened to (samples_per_step+1) * grid.N steps, as in
    regularity_sweep, so that grid must divide path.N_fine.  The growth
    preflight runs at 2000 points.
    """
    grid = run.grid
    if samples_per_step < 1:
        raise ValueError(f"samples_per_step must be >= 1, got {samples_per_step}")
    n_probe = (samples_per_step + 1) * grid.N
    if path.N_fine % n_probe != 0:
        raise ValueError(f"the path's {path.N_fine}-step grid does not refine "
                         f"the {n_probe}-step grid of {samples_per_step} "
                         f"samples per step")
    if consts.N != grid.N:
        consts = consts.at(grid.N)
    growth = growth_preflight(model, model.lyapunov, consts, n_points=2000)
    dev = _regularity_lhs(model, grid, run.states[None],
                          coarsen_increments(path.increments[None], n_probe))
    bound = regularity_bound(consts)
    n = dev.size
    return RegularityReport(
        n_samples=n, n_pass=int(np.sum(dev <= bound)),
        max_lhs=float(dev.max()), bound=bound,
        constants_admissible=growth.admissible, n0=n0_for(consts),
    )


def regularity_sweep(model: SdeModel, consts: AnalysisConstants, grid: GridSpec,
                     x0, M: int, samples_per_step: int,
                     seed: int) -> RegularityReport:
    """Ensemble version of regularity_check: M stopped-tamed paths with
    samples_per_step >= 1 intra-step probes each."""
    if samples_per_step < 1:
        raise ValueError(f"samples_per_step must be >= 1, got {samples_per_step}")
    x0 = validate_start(model, x0, M)
    consts = consts.at(grid.N)
    growth = growth_preflight(model, model.lyapunov, consts, n_points=2000)
    refine = samples_per_step + 1
    bound = regularity_bound(consts)
    n_pass = 0
    max_lhs = 0.0
    for _, runs, fine in _block_slices(SchemeKind.STOPPED_BIT, model, grid,
                                       x0, M, seed, refine):
        dev = _regularity_lhs(model, grid, runs.states, fine)
        n_pass += int(np.sum(dev <= bound))
        max_lhs = max(max_lhs, float(dev.max()))
    return RegularityReport(n_samples=M * grid.N * samples_per_step,
                            n_pass=n_pass, max_lhs=max_lhs,
                            bound=bound, constants_admissible=growth.admissible,
                            n0=n0_for(consts))


# ---------------------------------------------------------------------------
# exponential moments and stopping probability


@dataclass(frozen=True)
class MomentEstimate:
    estimate: float
    stderr: float
    saturated_fraction: float = 0.0


def _grid_index(grid: GridSpec, t: float) -> int:
    j = round(t / grid.h)
    if not 0 <= j <= grid.N or abs(j * grid.h - t) > 1e-9 * max(grid.T, 1.0):
        raise ValueError(f"t = {t} is not a grid time of {grid}")
    return j


def _functional(spec: LyapunovSpec, runs: BatchRuns, integral: np.ndarray,
                nodes: slice, use_tau: bool, absolute: bool):
    """Per-path exp(e^{-rho (t_j ^ tau)} U(Y_j) + I_j), capped at 1e300, at
    a slice's ``nodes``, and I at its last node.  I_j is the left-endpoint
    sum_{k < min(j, tau)} e^{-rho k h} U_bar(Y_k) h, ``integral`` at the
    slice's first node.  ``absolute`` takes |U|, |U_bar|; ``use_tau`` off
    puts tau at N."""
    h = runs.grid.h
    tau = runs.tau_index if use_tau else np.full(len(runs), runs.grid.N)
    ubar = spec.U_bar(runs.states[:, :-1])
    u = spec.U(runs.states[:, nodes])
    if absolute:
        ubar, u = np.abs(ubar), np.abs(u)
    live = (tau[:, None] > np.arange(runs.start, runs.end)).astype(float)
    decay = [math.exp(-spec.rho * k * h) for k in range(runs.start, runs.end)]
    # cumsum adds one step after the other, as a per-node loop would
    integrals = np.cumsum(np.concatenate(
        [integral[:, None], live * decay * ubar * h], axis=1), axis=1)
    t_eff = np.minimum(np.arange(runs.start, runs.end + 1)[nodes], tau[:, None]) * h
    with np.errstate(over="ignore"):
        vals = np.exp(np.exp(-spec.rho * t_eff) * u + integrals[:, nodes])
    return np.minimum(vals, OVERFLOW_CAP), integrals[:, -1]


def exp_moment_estimate(kind: SchemeKind, model: SdeModel, spec: LyapunovSpec,
                        grid: GridSpec, M: int, t: float, seed: int,
                        x0) -> MomentEstimate:
    """Monte Carlo estimate of the exponential-moment functional

        E[exp(e^{-rho (t ^ tau)} U(Y_t) + int_0^{t ^ tau} e^{-rho r} U_bar(Y_r) dr)]

    with the time integral approximated by the left-endpoint rule on the
    scheme's own grid restricted to [0, t ^ tau], summed one step after the
    other as the paths are stepped slice by slice, up to t's slice only.
    Overflowing exponentials saturate at 1e300 and are counted in
    saturated_fraction.
    """
    x0 = validate_start(model, x0, M)
    j_t = _grid_index(grid, t)
    vals = np.empty(M)
    for lo, runs, _ in _block_slices(kind, model, grid, x0, M, seed, stop=j_t):
        if runs.start == 0:
            integral = np.zeros(len(runs))
        at = j_t - runs.start  # before t's slice, ``at`` selects no node
        val, integral = _functional(spec, runs, integral, slice(at, at + 1),
                                    use_tau=True, absolute=False)
        vals[lo:lo + val.size] = val.ravel()
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(M)) if M > 1 else 0.0
    return MomentEstimate(estimate=est, stderr=se,
                          saturated_fraction=float(np.mean(vals >= OVERFLOW_CAP)))


def exp_moment_supremum(kind: SchemeKind, model: SdeModel, spec: LyapunovSpec,
                        grid: GridSpec, M: int, seed: int, x0,
                        use_tau: bool = True) -> float:
    """sup over grid times of E[exp(e^{-rho (t ^ tau)}|U(Y_t)| + int |U_bar|)].

    The two suprema of this form (one for a fine-grid stand-in of the exact
    solution, one for the scheme) multiply to the constant in the
    stopping-probability bound.
    """
    x0 = validate_start(model, x0, M)
    sums = np.zeros(grid.N + 1)
    for _, runs, _ in _block_slices(kind, model, grid, x0, M, seed):
        if runs.start == 0:
            integral = np.zeros(len(runs))
        first = 1 if runs.start else 0  # else the previous slice's last node
        vals, integral = _functional(spec, runs, integral, slice(first, None),
                                     use_tau=use_tau, absolute=True)
        # summed over each node's contiguous values, as np.sum of one node
        sums[runs.start + first:runs.end + 1] += np.ascontiguousarray(vals.T).sum(1)
    return float(np.max(sums / M))


@dataclass(frozen=True)
class StoppingReport:
    """Estimated P[tau < T] with binomial stderr, and (optionally) the
    theoretical decay bound C1 * exp(1 - log(N/T)^2 / (24 c^5 e^{rho T}))."""

    N: int
    M: int
    estimate: float
    stderr: float
    bound: Optional[float] = None
    C1: Optional[float] = None


def stopping_probability(model: SdeModel, grid: GridSpec, M: int, seed: int,
                         x0, spec: Optional[LyapunovSpec] = None,
                         bound_paths: int = 1000,
                         ref_refine: int = 8) -> StoppingReport:
    """Estimate P[tau^N < T] for the stopped tamed scheme.

    The estimate is the fraction of paths whose stopping index precedes the
    final grid index.  When Lyapunov data is supplied, the report also
    evaluates the theoretical bound with C1 estimated as the product of the
    two exponential-moment suprema over bound_paths paths each (scheme at
    N, and a fine-grid run at ref_refine*N standing in for the exact
    solution), drawn at seeds seed + 1 and seed + 2, which must lie in
    [0, 2**64) too.  bound_paths and ref_refine must be >= 1.
    """
    for name, value in (("bound_paths", bound_paths), ("ref_refine", ref_refine)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if spec is not None and not seed + 2 < 1 << 64:
        # checked before any path is stepped, as the seed itself is
        raise ValueError(f"seed must be < 2**64 - 2 with spec (the bound "
                         f"draws at seed + 1 and seed + 2), got {seed}")
    x0 = validate_start(model, x0, M)
    n_stopped = 0
    for _, runs, _ in _block_slices(SchemeKind.STOPPED_BIT, model, grid, x0,
                                    M, seed):
        if runs.end == grid.N:
            n_stopped += int(np.sum(runs.tau_index < grid.N))
    p_hat = n_stopped / M
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / M)

    bound = None
    c1 = None
    if spec is not None:
        sup_y = exp_moment_supremum(SchemeKind.STOPPED_BIT, model, spec, grid,
                                    bound_paths, seed + 1, x0, use_tau=True)
        fine = GridSpec(T=grid.T, N=ref_refine * grid.N)
        sup_x = exp_moment_supremum(SchemeKind.STOPPED_BIT, model, spec, fine,
                                    bound_paths, seed + 2, x0, use_tau=False)
        c1 = sup_x * sup_y
        log_ratio = math.log(grid.N / grid.T)
        with np.errstate(over="ignore"):
            bound = float(c1 * math.exp(min(
                1.0 - log_ratio**2 / (24.0 * spec.c**5 * math.exp(spec.rho * grid.T)),
                709.0)))
    return StoppingReport(N=grid.N, M=M, estimate=p_hat, stderr=se,
                          bound=bound, C1=c1)
