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

import functools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
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

_SLICE_STEPS = 64  # steps of the finest run per chunk, unless chunk_values


@dataclass(frozen=True)
class _Paths:
    """The paths of an estimate and the runs stepped on them.  Path j is
    driven by the unit normals keyed by (seed, j) on the n_fine-step grid
    of [0, T], up to step ``horizon`` (n_fine by default), and every
    (scheme, N) of ``runs`` starts at x0.  Coupled runs step on sums of
    n_fine / N fine increments; otherwise n_fine is the largest N and run
    N on the first N normals times sqrt(T / N), ``generate_block(T, N,
    ...)`` bit for bit.  ``chunk_values`` bounds the fine values of a
    chunk; ``spec`` is the Lyapunov data the reducer reads."""

    model: SdeModel
    x0: np.ndarray
    T: float
    seed: int
    runs: tuple[tuple[SchemeKind, int], ...]
    n_fine: int
    coupled: bool = True
    horizon: Optional[int] = None
    chunk_values: int = 0
    spec: Optional[LyapunovSpec] = None


@dataclass(frozen=True)
class _Reducer:
    """An estimator's reduction of one path block.  ``init`` takes the rows
    of the block's segments; ``begin`` takes each chunk's fine increments
    (unit normals under the prefix rule), from fine step f0 on, before its
    runs step; ``update`` takes each run (scheme, N) as soon as it has
    stepped the chunk, as a BatchRuns whose first node repeats the last
    chunk's last, in the order of ``paths.runs`` grouped by N; ``partials``
    takes the runs' last nodes and returns one result per segment, here
    each run's last states, stopping indices and overflow flags.  A
    reducer keeps plain values, so it pickles."""

    def init(self, parts: list[slice]) -> SimpleNamespace:
        return SimpleNamespace(parts=parts)

    def begin(self, acc, paths: _Paths, fine: np.ndarray, f0: int) -> None:
        pass

    def update(self, acc, paths: _Paths, key: tuple, run: BatchRuns,
               fine: np.ndarray, f0: int) -> None:
        pass

    def partials(self, acc, runs: dict) -> list:
        return [{key: (run.states[p, -1], run.tau_index[p], run.overflow[p])
                 for key, run in runs.items()} for p in acc.parts]


def _time_chunk(strides: list[int], budget: int) -> int:
    """Fine steps per chunk of coupled runs with these strides: a multiple
    of every stride, or, when that exceeds ``budget``, a power of two c <=
    budget that every stride divides or is a multiple of in its
    power-of-two part.  A run whose step spans chunks then sums per-chunk
    sums, which by the pairwise-halving chain property equals coarsening
    the fine increments directly."""
    lcm = math.lcm(*strides)
    if budget >= lcm:
        return lcm * (budget // lcm)
    c = 1 << (budget.bit_length() - 1)
    if all(c % s == 0 or (s & -s) % c == 0 for s in strides):
        return c
    return lcm


def _coarsen_levels(fine: np.ndarray, counts: list[int],
                    coarsen=coarsen_increments) -> dict:
    """{n: coarsen_increments(fine, n)} for each n in counts, each summed
    from the coarsest level already built whose ratio to the fine grid is
    a power of two dividing the power-of-two part of its own ratio:
    pairwise halving then performs exactly the additions of the direct
    coarsening, at a fraction of the cost."""
    n_fine = fine.shape[1]
    levels = {n_fine: fine}
    for n in sorted(set(counts) - {n_fine}, reverse=True):
        q = n_fine // n
        src = min(k for k in levels if k % n == 0 and (q & -q) % (n_fine // k) == 0)
        levels[n] = coarsen(levels[src], n)
    return levels


def _coupled_increments(fine: np.ndarray, Ns: list[int], n_fine: int,
                        carry: dict, coarsen) -> dict:
    """{N: increments} of each N with whole steps in the fine chunk, from
    ``_coarsen_levels``.  An N whose step outlasts the chunk adds the
    chunk's sum to ``carry`` and steps on their sum once they cover it."""
    n = fine.shape[1]
    levels = _coarsen_levels(fine, [max(n * N // n_fine, 1) for N in Ns],
                             coarsen)
    dws = {}
    for N in Ns:
        stride = n_fine // N
        if n % stride == 0:
            dws[N] = levels[n // stride]
        else:
            carry[N].append(levels[1])
            if len(carry[N]) * n >= stride:
                dws[N] = coarsen(np.concatenate(carry[N], axis=1), 1)
                carry[N] = []
    return dws


def _block(paths: _Paths, reducer: _Reducer, coarsen, segs: list) -> list:
    """The reducer's partials for the segments ``segs`` of one block, whose
    normals come chunk by chunk from one ``BlockStream`` ending at the
    horizon: every run steps each chunk on from where the last one ended
    and is cut back to its last node once the reducer has seen it, so a
    block holds the stream's window, one chunk and one run's chunk of
    states, not a horizon."""
    lo, B = segs[0][1], segs[-1][2] - segs[0][1]
    model, T, n_fine = paths.model, paths.T, paths.n_fine
    horizon = paths.horizon or n_fine
    Ns = sorted({N for _, N in paths.runs})
    chunk = (_time_chunk([n_fine // N for N in Ns],
                         max(1, paths.chunk_values // (B * model.m)))
             if paths.chunk_values else n_fine // Ns[-1] * _SLICE_STEPS)
    runs = {key: BatchRuns.initial(GridSpec(T, key[1]), paths.x0, B, model.d)
            for key in paths.runs}
    by_N = {}  # the runs of each N, in the order of paths.runs
    for key in runs:
        by_N.setdefault(key[1], []).append(key)
    acc = reducer.init([slice(s_lo - lo, s_hi - lo) for _, s_lo, s_hi in segs])
    stream = BlockStream(horizon, horizon, model.m, paths.seed, lo, B)
    carry = {N: [] for N in Ns}
    for f0 in range(0, horizon, chunk):
        fine = stream.draw(min(chunk, horizon - f0))
        dws = None
        if paths.coupled:
            fine *= math.sqrt(T / n_fine)
            dws = _coupled_increments(fine, Ns, n_fine, carry, coarsen)
        reducer.begin(acc, paths, fine, f0)
        for N, keys in by_N.items():
            if dws is not None:
                dw = dws.get(N)
            else:  # the prefix rule: N's own steps from f0 on, if any are left
                dw = fine[:, :N - f0] * math.sqrt(T / N) if N > f0 else None
            for key in keys if dw is not None else ():
                run = run_paths(key[0], model, runs[key].grid, runs[key], dw)
                reducer.update(acc, paths, key, run, fine, f0)
                runs[key] = run.tail()
                del run  # one run's chunk of states at a time
        del fine, dws, dw
    return reducer.partials(acc, runs)


def _drive(paths: _Paths, reducer: _Reducer, M: int, n_batches: int = 1,
           block_map=map, coarsen=coarsen_increments) -> list:
    """(batch, partial) of each segment of ``path_blocks(M, n_batches)``,
    in path order.  ``block_map(fn, blocks)`` runs the blocks, each on its
    own, in any order; ``coarsen`` sums coupled increments."""
    blocks = path_blocks(M, n_batches)
    results = block_map(functools.partial(_block, paths, reducer, coarsen),
                        blocks)
    return [(b, part) for segs, parts in zip(blocks, results)
            for (b, _, _), part in zip(segs, parts)]


def _finals(paths: _Paths, M: int, n_batches: int = 1, block_map=map) -> dict:
    """{(scheme, N): (last states, stopping indices, overflow flags)} of
    paths [0, M), in path order."""
    parts = [part for _, part in _drive(paths, _Reducer(), M, n_batches,
                                        block_map)]
    return {key: tuple(map(np.concatenate, zip(*(p[key] for p in parts))))
            for key in parts[0]}


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


@dataclass(frozen=True)
class _Regularity(_Reducer):
    """Per segment: the intra-step probes within ``bound``, and the largest
    deviation (0 for none)."""

    bound: float

    def init(self, parts):
        return SimpleNamespace(parts=parts, counts=[(0, 0.0)] * len(parts))

    def update(self, acc, paths, key, run, fine, f0):
        dev = _regularity_lhs(paths.model, run.grid, run.states, fine)
        acc.counts = [(n + int(np.sum(dev[p] <= self.bound)),
                       max(top, float(dev[p].max())))
                      for (n, top), p in zip(acc.counts, acc.parts)]

    def partials(self, acc, runs):
        return acc.counts


def _regularity_report(model: SdeModel, consts: AnalysisConstants,
                       n_samples: int, partials: list) -> RegularityReport:
    growth = growth_preflight(model, model.lyapunov, consts, n_points=2000)
    return RegularityReport(
        n_samples=n_samples, n_pass=sum(n for n, _ in partials),
        max_lhs=max(top for _, top in partials), bound=regularity_bound(consts),
        constants_admissible=growth.admissible, n0=n0_for(consts))


def _check_samples(samples_per_step: int) -> None:
    if samples_per_step < 1:
        raise ValueError(f"samples_per_step must be >= 1, got {samples_per_step}")


def regularity_check(run: SchemeRun, model: SdeModel, consts: AnalysisConstants,
                     path, samples_per_step: int = 4) -> RegularityReport:
    """Check the intra-step regularity bound along one stopped-tamed run:
    the one-path case of regularity_sweep's reduction.

    ``path`` is the BrownianGrid that drove the run; its fine grid supplies
    the intra-step Brownian values exactly (partial sums of fine
    increments), so no auxiliary bridge sampling is needed.  Each step is
    probed at the samples_per_step >= 1 interior nodes of the path
    coarsened to (samples_per_step+1) * grid.N steps, as in
    regularity_sweep, so that grid must divide path.N_fine.
    """
    grid, consts = run.grid, consts.at(run.grid.N)
    _check_samples(samples_per_step)
    n_probe = (samples_per_step + 1) * grid.N
    if path.N_fine % n_probe != 0:
        raise ValueError(f"the path's {path.N_fine}-step grid does not refine "
                         f"the {n_probe}-step grid of {samples_per_step} "
                         f"samples per step")
    key = (SchemeKind.STOPPED_BIT, grid.N)
    one = BatchRuns(grid, run.states[None], np.array([run.tau_index]),
                    np.array([run.frozen]), np.array([run.overflow]))
    reducer = _Regularity(regularity_bound(consts))
    acc = reducer.init([slice(0, 1)])
    reducer.update(acc, _Paths(model, run.states[0], grid.T, path.seed, (key,),
                               n_probe), key, one,
                   coarsen_increments(path.increments[None], n_probe), 0)
    return _regularity_report(model, consts, grid.N * samples_per_step,
                              reducer.partials(acc, {key: one}))


def regularity_sweep(model: SdeModel, consts: AnalysisConstants, grid: GridSpec,
                     x0, M: int, samples_per_step: int,
                     seed: int) -> RegularityReport:
    """Ensemble version of regularity_check: M stopped-tamed paths with
    samples_per_step >= 1 intra-step probes each."""
    _check_samples(samples_per_step)
    x0 = validate_start(model, x0, M)
    consts = consts.at(grid.N)
    paths = _Paths(model, x0, grid.T, seed, ((SchemeKind.STOPPED_BIT, grid.N),),
                   (samples_per_step + 1) * grid.N)
    parts = _drive(paths, _Regularity(regularity_bound(consts)), M)
    return _regularity_report(model, consts, M * grid.N * samples_per_step,
                              [part for _, part in parts])


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


@dataclass(frozen=True)
class _Functional(_Reducer):
    """The functional exp(e^{-rho (t_j ^ tau)} U(Y_j) + I_j) of each path,
    capped at 1e300, with I_j = sum_{k < min(j, tau)} e^{-rho k h}
    U_bar(Y_k) h summed one step after the other: at node ``j``, path by
    path, or, for j None, with |U| and |U_bar| at every node, summed over
    each segment's paths.  ``use_tau`` off puts tau at N."""

    j: Optional[int]
    use_tau: bool = True

    def update(self, acc, paths, key, run, fine, f0):
        spec, h, N = paths.spec, run.grid.h, run.grid.N
        if run.start == 0:
            acc.integral = np.zeros(len(run))
            acc.sums = np.zeros((len(acc.parts), N + 1))  # for j None
        if self.j is None:  # every node but the last chunk's last
            nodes = slice(1 if run.start else 0, None)
        else:  # node j, none before j's chunk
            nodes = slice(self.j - run.start, self.j - run.start + 1)
        tau = run.tau_index if self.use_tau else np.full(len(run), N)
        ubar, u = spec.U_bar(run.states[:, :-1]), spec.U(run.states[:, nodes])
        if self.j is None:
            ubar, u = np.abs(ubar), np.abs(u)
        live = (tau[:, None] > np.arange(run.start, run.end)).astype(float)
        decay = [math.exp(-spec.rho * k * h) for k in range(run.start, run.end)]
        # cumsum adds one step after the other, as a per-node loop would
        integrals = np.cumsum(np.concatenate(
            [acc.integral[:, None], live * decay * ubar * h], axis=1), axis=1)
        acc.integral = integrals[:, -1]
        t_eff = np.minimum(np.arange(run.start, run.end + 1)[nodes], tau[:, None]) * h
        with np.errstate(over="ignore"):
            vals = np.exp(np.exp(-spec.rho * t_eff) * u + integrals[:, nodes])
        vals = np.minimum(vals, OVERFLOW_CAP)
        if self.j is not None:
            if vals.size:
                acc.vals = vals.ravel()
            return
        for sums, p in zip(acc.sums, acc.parts):
            # summed over each node's contiguous values, as np.sum of one node
            sums[run.start + nodes.start:run.end + 1] += \
                np.ascontiguousarray(vals[p].T).sum(1)

    def partials(self, acc, runs):
        if self.j is None:
            return list(acc.sums)
        return [acc.vals[p] for p in acc.parts]


def exp_moment_estimate(kind: SchemeKind, model: SdeModel, spec: LyapunovSpec,
                        grid: GridSpec, M: int, t: float, seed: int,
                        x0) -> MomentEstimate:
    """Monte Carlo estimate of the exponential-moment functional

        E[exp(e^{-rho (t ^ tau)} U(Y_t) + int_0^{t ^ tau} e^{-rho r} U_bar(Y_r) dr)]

    with the time integral approximated by the left-endpoint rule on the
    scheme's own grid restricted to [0, t ^ tau], summed one step after the
    other as the paths are stepped chunk by chunk, up to t's chunk only.
    Overflowing exponentials saturate at 1e300 and are counted in
    saturated_fraction.
    """
    x0 = validate_start(model, x0, M)
    j_t = _grid_index(grid, t)
    # node j_t's chunk is the last drawn and stepped (node 0's for t = 0)
    horizon = min(grid.N, -(-max(j_t, 1) // _SLICE_STEPS) * _SLICE_STEPS)
    paths = _Paths(model, x0, grid.T, seed, ((kind, grid.N),), grid.N,
                   horizon=horizon, spec=spec)
    vals = np.concatenate([v for _, v in _drive(paths, _Functional(j_t), M)])
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
    paths = _Paths(model, x0, grid.T, seed, ((kind, grid.N),), grid.N,
                   spec=spec)
    sums = sum(s for _, s in _drive(paths, _Functional(None, use_tau), M))
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
    paths = _Paths(model, x0, grid.T, seed, ((SchemeKind.STOPPED_BIT, grid.N),),
                   grid.N)
    [(_, tau, _)] = _finals(paths, M).values()
    p_hat = int(np.sum(tau < grid.N)) / M
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
