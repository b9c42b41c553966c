"""Quantitative side conditions as computable checks.

Implements the per-N perturbation rate eps_N driving the exponential-moment
inequality, the Gronwall-style moment bound with its explicit constants,
and the stopped scheme's exponential-moment functional at the horizon and
stopping probability, both stepped through one block driver.  The paper's
stopping-probability bound is not evaluated: it is at least 1 below
N* = T exp(sqrt(24 c^5 e^{rho T})) (see ``stopping_probability``).

The constants (c, p) entering the bounds are proof-style growth constants:
they must dominate sampled Lipschitz/growth inequalities of the model
(``fit_growth_constant`` fits c to the samples), and the bounds are
guaranteed only from a crossover index N0 onward (reported by ``n0_for``;
at desk-scale N the admissibility inequalities typically do not hold yet
and the bounds are vacuously large, which the reports state rather than
hide).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .brownian import (BlockStream, _seed_generator, coarsen_increments,
                       generate_block)
from .core import (GridSpec, LyapunovSpec, SdeModel, _check_count,
                   _check_horizon, path_blocks, validate_start)
from .models import _RADIUS, _pair_gaps, _sample_ball
from .schemes import OVERFLOW_CAP, BatchRuns, SchemeKind, run_paths

__all__ = [
    "AnalysisConstants",
    "epsilon_n",
    "moment_bound",
    "fit_growth_constant",
    "n0_for",
    "N0Report",
    "exp_moment_estimate",
    "MomentEstimate",
    "stopping_probability",
    "StoppingReport",
]

_SLICE_STEPS = 32  # steps of the finest run per chunk


@dataclass(frozen=True)
class _Paths:
    """The paths of an estimate and the runs stepped on them.  Path j is
    driven by the unit normals keyed by (seed, j) on the n_fine-step grid
    of [0, T], and every (scheme, N) of ``runs`` starts at x0.  Coupled
    runs step on sums of n_fine / N fine increments; otherwise n_fine is
    the largest N and run N on the first N normals times sqrt(T / N),
    ``generate_block(T, N, ...)`` bit for bit."""

    model: SdeModel
    x0: np.ndarray
    T: float
    seed: int
    runs: tuple[tuple[SchemeKind, int], ...]
    n_fine: int
    coupled: bool = True


def _one_segment(parts: list) -> None:
    """Raise ValueError unless a one-batch reducer's block is one segment."""
    if len(parts) > 1:
        raise ValueError(f"a one-batch reducer reduces a block of one "
                         f"segment, got {len(parts)}")


def _time_chunk(strides: list[int], budget: int) -> int:
    """Fine steps per chunk of runs with these strides: the largest
    multiple of every stride within ``budget``; when their lcm exceeds it,
    a power of two c <= budget that every stride divides or is a multiple
    of in its power-of-two part, or else the lcm.  A run whose step spans
    chunks then sums per-chunk sums, which by the pairwise-halving chain
    property equals coarsening the fine increments directly."""
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


def _block(paths: _Paths, reducer, coarsen, segs: list) -> list:
    """``reducer(paths, parts, steps)`` on the segments ``segs`` of one
    block: ``parts`` are the rows of its segments, one per batch-means
    batch it holds, and ``steps`` yields (key, run, fine, f0) for each run
    key = (scheme, N) as soon as it has stepped a chunk, in the order of
    ``paths.runs``: the run as a BatchRuns whose first node repeats the last
    chunk's last, and the chunk's fine increments (unit normals under the
    prefix rule) from fine step f0 on.  The reducer drops each step before
    it asks for the next and returns one partial per segment, for
    ``_drive`` to ``_add``: a per-path result is a one-element list, which
    the total concatenates.

    The normals come chunk by chunk from one ``BlockStream`` of the n_fine
    grid: every run steps each chunk on from where the last one ended and
    is cut back to its last node once the reducer has seen it, so a block
    holds the stream's window, one chunk and one run's chunk of states,
    not a horizon.  A chunk is about _SLICE_STEPS steps of the
    finest run: the stride of a coupled run N is n_fine / N, and 1 under
    the prefix rule, where every run steps on the chunk's own normals."""
    lo, B = segs[0][1], segs[-1][2] - segs[0][1]
    model, T, n_fine = paths.model, paths.T, paths.n_fine
    Ns = sorted({N for _, N in paths.runs})
    strides = [n_fine // N if paths.coupled else 1 for N in Ns]
    chunk = _time_chunk(strides, min(strides) * _SLICE_STEPS)

    def steps():
        runs = {key: BatchRuns.initial(GridSpec(T, key[1]), paths.x0, B,
                                       model.d) for key in paths.runs}
        stream = BlockStream(n_fine, model.m, paths.seed, lo, B)
        carry = {N: [] for N in Ns}
        for f0 in range(0, n_fine, chunk):
            fine = stream.draw(min(chunk, n_fine - f0))
            dws = None
            if paths.coupled:
                fine *= math.sqrt(T / n_fine)
                dws = _coupled_increments(fine, Ns, n_fine, carry, coarsen)
            for key, last in runs.items():  # paths.runs in order, each once
                N = key[1]
                if paths.coupled:
                    dw = dws.get(N)
                else:  # the prefix rule: N's steps from f0 on, if any are left
                    dw = fine[:, :N - f0] * math.sqrt(T / N) if N > f0 else None
                if dw is None:
                    continue
                run = run_paths(key[0], model, last.grid, last, dw)
                del dw
                yield key, run, fine, f0
                runs[key] = run.tail()
                del run  # one run's chunk of states at a time
            del fine, dws

    parts = [slice(s_lo - lo, s_hi - lo) for _, s_lo, s_hi in segs]
    return reducer(paths, parts, steps())


def _add(a, b):
    """a + b, entry by entry for dicts and tuples."""
    if isinstance(a, dict):
        return {k: _add(v, b[k]) for k, v in a.items()}
    if isinstance(a, tuple):
        return tuple(map(_add, a, b))
    return a + b


def _drive(paths: _Paths, reducer, M: int, n_batches: int = 1,
           block_map=map, coarsen=coarsen_increments) -> list:
    """The total of each nonempty batch of ``path_blocks(M, n_batches)``:
    its segments' partials ``_add``-ed in path order as their blocks come.
    ``reducer`` reduces one block (see ``_block``); a module-level function
    or a ``functools.partial`` of one, it pickles.  ``block_map(fn,
    blocks)`` runs the blocks in any order and yields their results in
    block order; ``coarsen`` sums coupled increments."""
    blocks = path_blocks(M, n_batches)
    results = iter(block_map(functools.partial(_block, paths, reducer, coarsen),
                             blocks))
    totals = {}
    for segs in blocks:  # no name holds a partial while the next block runs
        totals.update({b: _add(totals[b], part) if b in totals else part
                       for (b, _, _), part in zip(segs, next(results))})
    return list(totals.values())


def _last_nodes(paths: _Paths, parts: list, steps) -> list:
    """Each run's last states, stopping indices and overflow flags."""
    _one_segment(parts)
    tails = {}
    for key, run, fine, _ in steps:
        tails[key] = run.tail()
        del run, fine
    return [{key: ([run.states[:, -1]], [run.tau_index], [run.overflow])
             for key, run in tails.items()}]


def _finals(paths: _Paths, M: int, block_map=map) -> dict:
    """{(scheme, N): (last states, stopping indices, overflow flags)} of
    paths [0, M), in path order."""
    [total] = _drive(paths, _last_nodes, M, block_map=block_map)
    return {key: tuple(map(np.concatenate, fields))
            for key, fields in total.items()}


@dataclass(frozen=True)
class AnalysisConstants:
    """Growth constants (c, p) with the horizon, dimensions and rate they
    are used with.  Requires 0 < T < inf, T**(1/32) <= c < inf,
    0 <= rho < inf and integers p, m, N >= 1."""

    c: float
    p: int
    T: float
    m: int
    rho: float
    N: int

    def __post_init__(self):
        _check_horizon(self.T)  # each comparison here fails for NaN
        _check_count("m", self.m)
        if not self.T ** (1.0 / 32.0) <= self.c < math.inf:
            raise ValueError(f"c must be >= T**(1/32) = "
                             f"{self.T ** (1.0/32.0)} and finite, got {self.c}")
        _check_count("p", self.p)
        if not 0 <= self.rho < math.inf:
            raise ValueError(f"rho must be >= 0 and finite, got {self.rho}")
        _check_count("N", self.N)

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
    ValueError names ``EU0`` and ``t`` unless each is >= 0 (NaN is not).
    """
    if not EU0 >= 0:
        raise ValueError(f"EU0 must be >= 0, got {EU0}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
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


_GROWTH_POINTS = 10000  # points and pairs of the growth samples
_GROWTH_SEED = 7  # seed of the growth samples' generator


def _growth_samples(model: SdeModel, spec: Optional[LyapunovSpec], p: int):
    """The sampled terms of the two growth inequalities, c left out, at
    _GROWTH_POINTS points and pairs drawn by ``models._sample_ball`` in the
    ball of radius 10 from ``brownian._seed_generator(7)``:

    Lipschitz: ||mu(x)-mu(y)|| + ||sigma(x)-sigma(y)||_F
               <= c (1 + ||x||^p + ||y||^p) ||x-y||;
    growth:    |U_bar| + ||Hess U|| + ||grad U|| + |U| + ||mu|| + ||sigma||_F
               <= c (1 + ||x||^p)  (the U terms are dropped when no
               Lyapunov data is supplied).

    Returns (lhs_lip, poly_lip, dist, lhs_gro, poly_gro): at the sampled
    pairs (x, y) with x != y the Lipschitz inequality reads
    lhs_lip <= c * poly_lip * dist, and at the sampled points x the growth
    inequality reads lhs_gro <= c * poly_gro.
    """
    rng = _seed_generator(_GROWTH_SEED)
    x = _sample_ball(rng, _GROWTH_POINTS, model.d, _RADIUS)
    y = _sample_ball(rng, _GROWTH_POINTS, model.d, _RADIUS)
    x_p, y_p, dz, dmu, dsig = _pair_gaps(model, x, y)
    dist = np.sqrt(np.einsum("...d,...d->...", dz, dz))
    lhs_lip = (np.sqrt(np.einsum("...d,...d->...", dmu, dmu))
               + np.sqrt(np.einsum("...dm,...dm->...", dsig, dsig)))
    poly_lip = (1.0 + np.linalg.norm(x_p, axis=-1) ** p
                + np.linalg.norm(y_p, axis=-1) ** p)
    poly_gro = 1.0 + np.linalg.norm(x, axis=-1) ** p
    return lhs_lip, poly_lip, dist, _growth_lhs(model, spec, x), poly_gro


def fit_growth_constant(model: SdeModel, spec: Optional[LyapunovSpec], p: int,
                        T: float = 1.0) -> float:
    """1.1 times the smallest c dominating the growth inequalities for the
    given degree p at the points and pairs of ``_growth_samples``, floored
    at T**(1/32).  ValueError names ``T`` unless T > 0."""
    _check_horizon(T)
    lhs_lip, poly_lip, dist, lhs_gro, poly_gro = _growth_samples(model, spec, p)
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
# exponential moments and stopping probability


@dataclass(frozen=True)
class MomentEstimate:
    estimate: float
    stderr: float
    saturated_fraction: float = 0.0


def _functional(spec: LyapunovSpec, paths: _Paths, parts: list, steps) -> list:
    """The functional exp(e^{-rho (t_N ^ tau)} U(Y_N) + I) of each path at
    the last node N, capped at 1e300, with I = sum_{k < min(N, tau)}
    e^{-rho k h} U_bar(Y_k) h summed one step after the other."""
    _one_segment(parts)
    for _, run, fine, _ in steps:
        h, N, tau = run.grid.h, run.grid.N, run.tau_index
        if run.start == 0:
            integral = np.zeros(len(run))
        live = (tau[:, None] > np.arange(run.start, run.end)).astype(float)
        decay = [math.exp(-spec.rho * k * h) for k in range(run.start, run.end)]
        ubar = spec.U_bar(run.states[:, :-1])
        # cumsum adds one step after the other, as a per-node loop would
        integral = np.cumsum(np.concatenate(
            [integral[:, None], live * decay * ubar * h], axis=1), axis=1)[:, -1]
        if run.end == N:
            t_eff = np.minimum(N, tau) * h
            with np.errstate(over="ignore"):
                vals = np.exp(np.exp(-spec.rho * t_eff) * spec.U(run.states[:, -1])
                              + integral)
        del run, fine, tau, live, ubar
    return [[np.minimum(vals, OVERFLOW_CAP)]]


def exp_moment_estimate(model: SdeModel, spec: LyapunovSpec, grid: GridSpec,
                        M: int, seed: int, x0) -> MomentEstimate:
    """Monte Carlo estimate of the stopped scheme's exponential-moment
    functional at the horizon T of ``grid``

        E[exp(e^{-rho (T ^ tau)} U(Y_T) + int_0^{T ^ tau} e^{-rho r} U_bar(Y_r) dr)]

    with the time integral approximated by the left-endpoint rule on the
    scheme's own grid restricted to [0, T ^ tau], summed one step after the
    other as the paths are stepped chunk by chunk.  Overflowing
    exponentials saturate at 1e300 and are counted in saturated_fraction.
    ValueError names ``M`` unless it is an integer >= 2: one path has no
    standard error.
    """
    _check_count("M", M, 2)
    x0 = validate_start(model, x0, M)
    paths = _Paths(model, x0, grid.T, seed,
                   ((SchemeKind.STOPPED_BIT, grid.N),), grid.N)
    [vals] = _drive(paths, functools.partial(_functional, spec), M)
    vals = np.concatenate(vals)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(M))
    return MomentEstimate(estimate=est, stderr=se,
                          saturated_fraction=float(np.mean(vals >= OVERFLOW_CAP)))


@dataclass(frozen=True)
class StoppingReport:
    """Estimated P[tau < T] with binomial stderr.  ``bound`` and ``C1`` are
    always None: perfbench's digests of the stopping sweep are pinned on a
    dump of every field, so they go when those digests are re-pinned."""

    N: int
    M: int
    estimate: float
    stderr: float
    bound: Optional[float] = None
    C1: Optional[float] = None


def stopping_probability(model: SdeModel, grid: GridSpec, M: int, seed: int,
                         x0) -> StoppingReport:
    """Estimate P[tau^N < T] for the stopped tamed scheme: the fraction of
    paths whose stopping index precedes the final grid index.

    The paper bounds it by C1 exp(1 - log(N/T)^2 / (24 c^5 e^{rho T})), C1
    a product of two exponential-moment suprema, each of exp of a
    nonnegative quantity and so at least 1.  The bound is therefore at
    least 1, and says nothing, for every N below
    N* = T exp(sqrt(24 c^5 e^{rho T})): at T = 1 about 2.6e12 for the
    shipped Ginzburg-Landau spec (c = rho = 1.5) and 10^(7.3e5) for the
    van der Pol one (c = 103.5).
    """
    x0 = validate_start(model, x0, M)
    paths = _Paths(model, x0, grid.T, seed, ((SchemeKind.STOPPED_BIT, grid.N),),
                   grid.N)
    [(_, tau, _)] = _finals(paths, M).values()
    p_hat = int(np.sum(tau < grid.N)) / M
    se = math.sqrt(p_hat * (1.0 - p_hat) / M)
    return StoppingReport(N=grid.N, M=M, estimate=p_hat, stderr=se)
