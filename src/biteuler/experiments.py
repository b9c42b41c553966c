"""Experiment engine: strong-rate measurement, divergence contrast, moment
flatness sweeps.

All experiments are deterministic functions of their config (seed
included): per-path randomness is keyed by (seed, path_index), paths are
stepped in the blocks of ``core.path_blocks``, and results are merged in
path order (``_batch_totals``), so the thread count never changes any output.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .brownian import coarsen_increments, generate_block
from .core import (ErrorRow, ErrorTable, GridSpec, LyapunovSpec, RateFit,
                   SdeModel, validate_start, worker_count)
from .diagnostics import (AnalysisConstants, N0Report, _drive, _finals,
                          _Paths, _Reducer, exp_moment_estimate,
                          fit_growth_constant, moment_bound, n0_for)
from .models import catalog
from .schemes import OVERFLOW_CAP, SchemeKind, run_paths

__all__ = [
    "ConvergenceConfig",
    "strong_error",
    "fit_rate",
    "divergence_comparison",
    "DivergenceReport",
    "DivergenceRow",
    "moment_sweep",
    "MomentSweepReport",
    "MomentRow",
]

_N_STAT_BATCHES = 10  # batch-means stderr uses this many fixed path batches
_CHUNK_VALUES = 1 << 16  # fine increments per time chunk of a strong-error block
_P_GROWTH = 3  # polynomial growth degree p of moment_sweep's constants


def _check_sweep(Ns: tuple[int, ...], T: float) -> None:
    """Raise ValueError, naming the argument, unless Ns is nonempty with
    every N >= 1, and T > 0."""
    if not Ns:
        raise ValueError("Ns must be nonempty")
    if min(Ns) < 1:
        raise ValueError(f"every N in Ns must be >= 1, got {min(Ns)}")
    if not T > 0:
        raise ValueError(f"T must be > 0, got {T}")


def _batch_map(fn: Callable[[list], object], blocks: list, threads: int) -> list:
    threads = worker_count(threads)
    if threads <= 1:
        return [fn(blk) for blk in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, blocks))


def _batch_totals(paths: _Paths, reducer: _Reducer, M: int, threads: int,
                  zero) -> list:
    """Per-batch totals of an M-path estimate: each batch adds the
    reducer's partials of its segments of ``path_blocks(M, 10)`` to
    ``zero`` in path order, whatever worker ran which block.  The blocks
    run on this module's thread pool and sum coupled increments with its
    ``coarsen_increments``, the bindings that perfbench's tracer wraps."""
    totals = [zero] * _N_STAT_BATCHES
    for b, result in _drive(paths, reducer, M, _N_STAT_BATCHES,
                            partial(_batch_map, threads=threads),
                            coarsen_increments):
        totals[b] = _add(totals[b], result)
    return totals


def _add(a, b):
    """a + b, entry by entry for dicts and tuples."""
    if isinstance(a, dict):
        return {k: _add(v, b[k]) for k, v in a.items()}
    if isinstance(a, tuple):
        return tuple(map(_add, a, b))
    return a + b


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Column sums of x adding its rows one after another, the order a
    (rows, k >= 2) sum uses; a single column would be summed pairwise."""
    return np.add.accumulate(x, axis=0)[-1]


@dataclass(frozen=True)
class ConvergenceConfig:
    """Strong-error study configuration.

    ``reference`` is "exact" (closed form, coupled through the same
    Brownian path) or "fine" (the ``ref_scheme`` run on the N_ref grid);
    for a fine reference N_ref must be a multiple of every N and at least
    8 times the largest.  ``Ns`` should be powers of two when a rate fit is
    intended.  ``M`` is at least 10, one path per batch-means batch.
    ``seed`` lies in [0, 2**64).  ``x0`` of None uses the catalog default.
    """

    model: str
    scheme: SchemeKind
    Ns: tuple[int, ...]
    M: int
    seed: int
    N_ref: int = 0
    r: float = 2.0
    reference: str = "exact"
    ref_scheme: Optional[SchemeKind] = None
    x0: Optional[tuple[float, ...]] = None
    T: float = 1.0
    threads: int = 1

    def __post_init__(self):
        _check_sweep(self.Ns, self.T)
        if self.M < _N_STAT_BATCHES:
            # an empty batch-means batch would make the stderr NaN
            raise ValueError(f"M must be >= {_N_STAT_BATCHES}, one path per "
                             f"batch-means batch, got {self.M}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if not self.r > 0:
            raise ValueError(f"r must be > 0, got {self.r}")
        worker_count(self.threads)
        if self.reference not in ("exact", "fine"):
            raise ValueError("reference must be 'exact' or 'fine'")
        if self.reference == "fine":
            # the reference resolution itself may appear in Ns (its error is
            # exactly zero); every other N needs the 8x separation
            below = [n for n in self.Ns if n != self.N_ref]
            if below and self.N_ref < 8 * max(below):
                raise ValueError("N_ref must be >= 8 * max(Ns)")
            if any(self.N_ref % n for n in self.Ns):
                raise ValueError("N_ref must be a multiple of every N")


@dataclass(frozen=True)
class _StrongError(_Reducer):
    """Per segment: its path count and, per N, its sums of the capped
    ||Y^N - reference||^r at every node of N's grid, and its overflow
    count.  The reference is the run ``ref`` on the fine grid or, without
    one, the exact solution on the fine grid's Brownian path."""

    scheme: SchemeKind
    Ns: tuple[int, ...]
    r: float
    ref: Optional[tuple[SchemeKind, int]]

    def init(self, parts):
        return SimpleNamespace(parts=parts, w=None, ref=None, sums={
            N: np.empty((len(parts), N + 1)) for N in self.Ns})

    def begin(self, acc, paths, fine, f0):
        if self.ref is None:
            # W at the chunk's fine nodes, from the last chunk's last one
            w = np.concatenate([acc.w if f0 else np.zeros_like(fine[:, :1]),
                                fine], axis=1)
            np.cumsum(w, axis=1, out=w)
            acc.w = w[:, -1:].copy()
            t = np.arange(f0, f0 + fine.shape[1] + 1) * (paths.T / paths.n_fine)
            self._reference(acc, paths, paths.model.exact_solution(paths.x0, t, w),
                            f0)

    def update(self, acc, paths, key, run, fine, f0):
        if key == self.ref:  # the first run of every chunk
            self._reference(acc, paths, run.states, f0)
        if key[0] is self.scheme and key[1] in acc.sums:
            # the first node is the previous chunk's last, already summed
            N, node = key[1], run.start + 1
            stride = paths.n_fine // N
            self._sum_nodes(acc, N, node, run.states[:, 1:]
                            - acc.ref[:, node * stride - f0::stride])

    def _reference(self, acc, paths, states: np.ndarray, f0: int) -> None:
        """Take the reference's states at the chunk's fine nodes; in the
        first chunk, sum node 0 of every N, stepped yet or not."""
        acc.ref = states
        if f0 == 0:
            for N in self.Ns:
                self._sum_nodes(acc, N, 0, paths.x0 - states[:, :1])

    def _sum_nodes(self, acc, N: int, node: int, diff: np.ndarray) -> None:
        dist_r = np.einsum("bkd,bkd->bk", diff, diff)
        with np.errstate(over="ignore", invalid="ignore"):
            dist_r **= self.r / 2.0
        # NaN and inf saturate at the cap (fmin drops the NaN operand)
        np.fmin(dist_r, OVERFLOW_CAP, out=dist_r)
        nodes = slice(node, node + dist_r.shape[1])
        for sums, p in zip(acc.sums[N], acc.parts):
            sums[nodes] = _row_sum(dist_r[p])

    def partials(self, acc, runs):
        return [(p.stop - p.start,
                 {N: (acc.sums[N][j], int(runs[self.scheme, N].overflow[p].sum()))
                  for N in self.Ns})
                for j, p in enumerate(acc.parts)]


def strong_error(config: ConvergenceConfig) -> ErrorTable:
    """Coupled strong-error table: per N, the max over grid indices of the
    Monte Carlo L^r distance between the scheme and its reference.

    Reference and approximation consume coarsenings of one fine Brownian
    path per path index, so their difference measures discretization error
    only.  stderr is by batch means over 10 fixed path blocks.  Paths
    flagged as overflowed contribute their capped distance and are counted
    in overflow_fraction (never silently dropped).

    Up to 1000 paths (whole batches, or 1000-path pieces of larger ones)
    are stepped together and streamed through time in short chunks of the
    fine grid, about _CHUNK_VALUES fine increments each, carrying every
    run's state across chunks (``diagnostics._drive``).  Each batch's sums
    are bit for bit those of running it alone over the whole horizon, so
    neither the blocking nor the thread count changes any output.
    """
    entry = catalog()[config.model]
    model = entry.model
    x0 = validate_start(model, config.x0 if config.x0 is not None
                        else entry.default_x0, config.M)
    if config.reference == "exact" and model.exact_solution is None:
        raise ValueError(f"model {config.model!r} has no closed-form solution")
    Ns, r = tuple(config.Ns), config.r
    runs = tuple((config.scheme, N) for N in Ns)
    if config.reference == "exact":
        n_fine, ref = max(Ns), None
    else:  # the reference steps first in every chunk
        n_fine = config.N_ref
        ref = (config.ref_scheme or config.scheme, n_fine)
        runs = (ref,) + runs
    paths = _Paths(model, x0, config.T, config.seed, runs, n_fine,
                   chunk_values=_CHUNK_VALUES)
    zero = (0, {N: (np.zeros(N + 1), 0) for N in Ns})
    totals = _batch_totals(paths, _StrongError(config.scheme, Ns, r, ref),
                           config.M, config.threads, zero)
    _, pooled = reduce(_add, totals, zero)

    rows = []
    for N in Ns:
        sums, n_over = pooled[N]
        batch_sups = [float(np.max((per_n[N][0] / count) ** (1.0 / r)))
                      for count, per_n in totals]
        per_k = (sums / config.M) ** (1.0 / r)
        sup = float(np.max(per_k))
        std = float(np.std(batch_sups, ddof=1) / math.sqrt(len(batch_sups)))
        rows.append(ErrorRow(N=N, M=config.M, sup_error=sup, std_error=std,
                             seed=config.seed, per_gridpoint_errors=per_k,
                             overflow_fraction=n_over / config.M))
    return ErrorTable(scheme=config.scheme.value, model=config.model,
                      r=r, rows=tuple(rows), T=config.T)


def fit_rate(table: ErrorTable) -> RateFit:
    """Least-squares slope of log(error) against log(step size T/N).

    Rows with zero error are excluded with a warning; at least three usable
    rows are required.  A slope near +0.5 indicates strong rate one-half.
    """
    pts = []
    for row in table.rows:
        if row.sup_error > 0 and math.isfinite(row.sup_error):
            pts.append((math.log(table.T / row.N), math.log(row.sup_error)))
        else:
            warnings.warn(f"excluding N={row.N} with non-positive or "
                          f"non-finite error {row.sup_error}")
    if len(pts) < 3:
        raise ValueError("rate fit needs at least 3 rows with positive errors")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sum((y - (slope * x + intercept)) ** 2))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=resid, points=tuple(pts))


@dataclass(frozen=True)
class DivergenceRow:
    scheme: str
    N: int
    overflow_fraction: float
    explode_fraction: float  # overflowed or pathwise max magnitude > 1e10
    second_moment_capped: float


@dataclass(frozen=True)
class DivergenceReport:
    model: str
    M: int
    seed: int
    x0: tuple[float, ...]
    rows: tuple[DivergenceRow, ...]

    def row(self, scheme: SchemeKind, N: int) -> DivergenceRow:
        for r in self.rows:
            if r.scheme == scheme.value and r.N == N:
                return r
        raise KeyError((scheme, N))


_EXPLODE_MAGNITUDE = 1e10


@dataclass(frozen=True)
class _Divergence(_Reducer):
    """Per segment and run: the overflowed and the exploded paths, the sum
    of the capped final second moments, and the path count."""

    def init(self, parts):
        return SimpleNamespace(parts=parts, mags={})  # running max of |state|

    def update(self, acc, paths, key, run, fine, f0):
        mag = acc.mags.setdefault(key, np.zeros(len(run)))
        np.maximum(mag, np.abs(run.states).max(axis=(1, 2)), out=mag)

    def partials(self, acc, runs):
        out = [{} for _ in acc.parts]
        for (kind, N), run in runs.items():
            final = run.states[:, -1]
            with np.errstate(over="ignore", invalid="ignore"):
                m2 = np.einsum("bd,bd->b", final, final)
            # NaN and inf saturate at the cap (fmin drops the NaN operand)
            m2 = np.where(run.overflow, OVERFLOW_CAP, np.fmin(m2, OVERFLOW_CAP))
            exploded = run.overflow | (acc.mags[kind, N] > _EXPLODE_MAGNITUDE)
            for seg, p in zip(out, acc.parts):
                seg[kind.value, N] = (int(run.overflow[p].sum()),
                                      int(exploded[p].sum()),
                                      float(m2[p].sum()), p.stop - p.start)
        return out


def divergence_comparison(model: SdeModel, Ns: tuple[int, ...], M: int,
                          x0, seed: int, T: float = 1.0,
                          threads: int = 1) -> DivergenceReport:
    """Contrast the untamed Euler scheme against the stopped tamed one on a
    superlinear-drift model.

    Per N and scheme: the fraction of paths flagged as overflowed, the
    fraction exploded (flagged or exceeding magnitude 1e10 at any grid
    point), and the final-state second moment with each path's contribution
    capped at 1e300 (diverged paths are retained and reported, never
    dropped).  Every N steps on the prefix of one stream of the largest
    grid's normals per path block, chunk by chunk (``diagnostics._drive``),
    with a running max of |state|.  Raises ValueError for empty Ns, an
    N < 1 or T <= 0.
    """
    _check_sweep(Ns, T)
    x0 = validate_start(model, x0, M)
    kinds = (SchemeKind.EULER_MARUYAMA, SchemeKind.STOPPED_BIT)
    paths = _Paths(model, x0, T, seed,
                   tuple((kind, N) for N in Ns for kind in kinds), max(Ns),
                   coupled=False)
    zero = {(kind.value, N): (0, 0, 0.0, 0) for N in Ns for kind in kinds}
    pooled = reduce(_add, _batch_totals(paths, _Divergence(), M, threads, zero),
                    zero)
    rows = tuple(DivergenceRow(scheme=kind, N=N, overflow_fraction=o / n,
                               explode_fraction=e / n, second_moment_capped=s / n)
                 for (kind, N), (o, e, s, n) in pooled.items())
    return DivergenceReport(model=model.name, M=M, seed=seed,
                            x0=tuple(float(v) for v in x0), rows=rows)


@dataclass(frozen=True)
class MomentRow:
    N: int
    eu_estimate: float
    eu_stderr: float
    exp_estimate: float
    exp_stderr: float
    exp_saturated_fraction: float
    bound: float


@dataclass(frozen=True)
class MomentSweepReport:
    """Per-N Lyapunov moments at the horizon, with flatness diagnostics.

    ``flat`` asserts max/min of E[U(Y_T)] across N stays within
    1 + 5 * (combined relative stderr); ``bound_ok`` asserts each estimate
    sits below its Gronwall bound (plus 3 stderr) whenever N >= N0.
    """

    model: str
    M: int
    seed: int
    rows: tuple[MomentRow, ...]
    ratio: float
    ratio_tolerance: float
    n0: N0Report
    consts_c: float
    consts_p: int

    @property
    def flat(self) -> bool:
        return self.ratio <= self.ratio_tolerance

    @property
    def bound_ok(self) -> bool:
        return all(r.eu_estimate <= r.bound + 3.0 * r.eu_stderr
                   for r in self.rows if r.N >= self.n0.N0)


def moment_sweep(model: SdeModel, spec: LyapunovSpec, Ns: tuple[int, ...],
                 M: int, seed: int, x0, T: float = 1.0,
                 threads: int = 1) -> MomentSweepReport:
    """Monte Carlo E[U(Y^N_T)] and the exponential-moment functional at
    t = T for each N, against the Gronwall moment bound.

    The growth constant c for degree p = 3 is fitted once from the model
    (sampled, seeded); the bound applies from the reported N0 onward and is
    typically vacuous (infinite) at desk-scale N, which is reported as-is.
    Every N steps on the prefix of one stream of the largest grid's normals
    per path block, chunk by chunk (``diagnostics._drive``).  Raises
    ValueError for empty Ns, an N < 1, T <= 0 or M < 2.
    """
    _check_sweep(Ns, T)
    if M < 2:
        raise ValueError(f"M must be >= 2 for a sample stderr, got {M}")
    x0 = validate_start(model, x0, M)
    c_growth = fit_growth_constant(model, spec, _P_GROWTH, T=T)
    eu0 = float(spec.U(x0))

    paths = _Paths(model, x0, T, seed,
                   tuple((SchemeKind.STOPPED_BIT, N) for N in Ns), max(Ns),
                   coupled=False)
    finals = _finals(paths, M, _N_STAT_BATCHES,
                     partial(_batch_map, threads=threads))

    def one_n(N: int) -> MomentRow:
        final = finals[SchemeKind.STOPPED_BIT, N][0]
        u_vals = np.minimum(spec.U(final), OVERFLOW_CAP)
        eu = float(np.mean(u_vals))
        eu_se = float(np.std(u_vals, ddof=1) / math.sqrt(M))
        expm = exp_moment_estimate(SchemeKind.STOPPED_BIT, model, spec,
                                   GridSpec(T, N), M, T, seed, x0)
        consts = AnalysisConstants(c=c_growth, p=_P_GROWTH, T=T, m=model.m,
                                   rho=spec.rho, N=N)
        return MomentRow(N=N, eu_estimate=eu, eu_stderr=eu_se,
                         exp_estimate=expm.estimate, exp_stderr=expm.stderr,
                         exp_saturated_fraction=expm.saturated_fraction,
                         bound=moment_bound(consts, T, eu0))

    rows = tuple(one_n(N) for N in Ns)
    eus = [r.eu_estimate for r in rows]
    hi = max(range(len(rows)), key=lambda i: eus[i])
    lo = min(range(len(rows)), key=lambda i: eus[i])
    ratio = eus[hi] / eus[lo] if eus[lo] > 0 else math.inf
    rel = math.sqrt((rows[hi].eu_stderr / rows[hi].eu_estimate) ** 2
                    + (rows[lo].eu_stderr / rows[lo].eu_estimate) ** 2) \
        if eus[lo] > 0 else math.inf
    consts0 = AnalysisConstants(c=c_growth, p=_P_GROWTH, T=T, m=model.m,
                                rho=spec.rho, N=max(Ns))
    return MomentSweepReport(model=model.name, M=M, seed=seed, rows=rows,
                             ratio=ratio, ratio_tolerance=1.0 + 5.0 * rel,
                             n0=n0_for(consts0), consts_c=c_growth,
                             consts_p=_P_GROWTH)
