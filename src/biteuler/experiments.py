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
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .brownian import BlockStream, coarsen_increments, generate_block
from .core import (ErrorRow, ErrorTable, GridSpec, LyapunovSpec, RateFit,
                   SdeModel, path_blocks, validate_start, worker_count)
from .diagnostics import (_SLICE_STEPS, AnalysisConstants, N0Report,
                          exp_moment_estimate, fit_growth_constant,
                          moment_bound, n0_for)
from .models import catalog
from .schemes import OVERFLOW_CAP, BatchRuns, SchemeKind, run_paths

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


def _batch_totals(one_block: Callable[[list], list], M: int, threads: int,
                  zero) -> list:
    """Per-batch totals of an M-path estimate: ``one_block`` steps a block
    of ``path_blocks(M, 10)`` and returns one result per segment, and each
    batch adds its segments' results to ``zero`` in path order, whatever
    worker ran which block."""
    blocks = path_blocks(M, _N_STAT_BATCHES)
    totals = [zero] * _N_STAT_BATCHES
    for segs, results in zip(blocks, _batch_map(one_block, blocks, threads)):
        for (b, _, _), result in zip(segs, results):
            totals[b] = _add(totals[b], result)
    return totals


def _add(a, b):
    """a + b, entry by entry for dicts and tuples."""
    if isinstance(a, dict):
        return {k: _add(v, b[k]) for k, v in a.items()}
    if isinstance(a, tuple):
        return tuple(map(_add, a, b))
    return a + b


def _time_chunk(strides: list[int], budget: int) -> int:
    """Fine steps per time chunk of a streamed strong-error block.

    A multiple of every N's stride gives each chunk whole steps of every
    N.  When that exceeds ``budget``, a power of two c <= budget serves as
    well if each stride is either a divisor of c or a multiple of c in its
    power-of-two part: an N whose steps span several chunks then sums its
    increment from per-chunk partial sums, which by the pairwise-halving
    chain property equals coarsening the fine increments directly.
    """
    lcm = math.lcm(*strides)
    if budget >= lcm:
        return lcm * (budget // lcm)
    c = 1 << (budget.bit_length() - 1)
    if all(c % s == 0 or (s & -s) % c == 0 for s in strides):
        return c
    return lcm


def _coarsen_levels(fine: np.ndarray, counts: list[int]) -> dict:
    """{n: coarsen_increments(fine, n)} for each n in counts.

    Each level is summed from the coarsest level already built whose
    ratio to the fine grid is a power of two dividing the power-of-two part
    of the level's own ratio: pairwise halving then performs exactly the
    additions of the direct coarsening, at a fraction of the cost.
    """
    n_fine = fine.shape[1]
    levels = {n_fine: fine}
    for n in sorted(set(counts), reverse=True):
        q = n_fine // n
        src = min(k for k in levels if k % n == 0 and (q & -q) % (n_fine // k) == 0)
        levels[n] = coarsen_increments(levels[src], n)
    return levels


def _sweep_increments(Ns: tuple[int, ...], T: float, m: int, seed: int,
                      lo: int, count: int):
    """Yield (N, the next steps of paths [lo, lo+count) on the N-step grid)
    chunk by chunk, for each distinct N still running, in increasing N.

    The chunks are _SLICE_STEPS-step pieces of one ``BlockStream`` of the
    largest grid's unit-variance normals: their first N steps scaled by
    sqrt(T/N) are ``generate_block(T, N, ...)`` bit for bit (the prefix
    rule of the brownian module), so an N's chunks, concatenated, are its
    whole draw.  A block therefore holds the stream's lookahead window and
    one chunk, not a horizon.  The largest N comes last in each chunk and
    scales it in place."""
    n = max(Ns)
    stream = BlockStream(n, n, m, seed, lo, count)  # scale sqrt(n / n) = 1.0
    coarser = sorted(set(Ns) - {n})
    for k0 in range(0, n, _SLICE_STEPS):
        z = stream.draw(min(_SLICE_STEPS, n - k0))
        for N in coarser:
            if N > k0:
                yield N, z[:, :N - k0] * math.sqrt(T / N)
        z *= math.sqrt(T / n)
        yield n, z


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
    fine grid, carrying every run's state across chunks.  Each batch's sums
    are bit for bit those of running it alone over the whole horizon, so
    neither the blocking nor the thread count changes any output.
    """
    entry = catalog()[config.model]
    model = entry.model
    x0 = validate_start(model, config.x0 if config.x0 is not None
                        else entry.default_x0, config.M)
    if config.reference == "exact" and model.exact_solution is None:
        raise ValueError(f"model {config.model!r} has no closed-form solution")
    T = config.T
    Ns = tuple(config.Ns)
    exact = config.reference == "exact"
    n_fine = max(Ns) if exact else config.N_ref
    ref_kind = config.ref_scheme or config.scheme
    r = config.r

    def one_block(segs):
        lo = segs[0][1]
        B = segs[-1][2] - lo
        n_c = _time_chunk([n_fine // N for N in Ns],
                          max(1, _CHUNK_VALUES // (B * model.m)))
        stream = BlockStream(T, n_fine, model.m, config.seed, lo, B)
        ref = BatchRuns.initial(GridSpec(T, n_fine), x0, B, model.d)  # "fine"
        w_last = np.zeros((B, 1, model.m))  # "exact": W at the chunk start
        runs = {N: BatchRuns.initial(GridSpec(T, N), x0, B, model.d) for N in Ns}
        partial = {N: [] for N in Ns}
        sums = {N: np.empty((len(segs), N + 1)) for N in Ns}

        def accumulate(N: int, node: int, diff: np.ndarray) -> None:
            dist_r = np.einsum("bkd,bkd->bk", diff, diff)
            with np.errstate(over="ignore", invalid="ignore"):
                dist_r **= r / 2.0
            # NaN and inf saturate at the cap (fmin drops the NaN operand)
            np.fmin(dist_r, OVERFLOW_CAP, out=dist_r)
            nodes = slice(node, node + dist_r.shape[1])
            for j, (_, s_lo, s_hi) in enumerate(segs):
                sums[N][j, nodes] = _row_sum(dist_r[s_lo - lo:s_hi - lo])

        for f0 in range(0, n_fine, n_c):
            fine = stream.draw(min(n_c, n_fine - f0))
            if exact:
                w_nodes = np.concatenate([w_last, fine], axis=1)
                np.cumsum(w_nodes, axis=1, out=w_nodes)
                w_last = w_nodes[:, -1:].copy()
                t_nodes = np.arange(f0, f0 + fine.shape[1] + 1) * (T / n_fine)
                ref_states = model.exact_solution(x0, t_nodes, w_nodes)
            else:
                ref = run_paths(ref_kind, model, ref.grid, ref, fine)
                ref_states, ref = ref.states, ref.tail()
            n = fine.shape[1]
            coarse = _coarsen_levels(fine, [max(n * N // n_fine, 1) for N in Ns])
            for N in Ns:
                if f0 == 0:
                    accumulate(N, 0, runs[N].states - ref_states[:, :1])
                stride = n_fine // N
                if n % stride == 0:
                    dw = coarse[n // stride]
                else:
                    partial[N].append(coarse[1])
                    if len(partial[N]) * n < stride:
                        continue
                    dw = coarsen_increments(np.concatenate(partial[N], axis=1), 1)
                    partial[N] = []
                runs[N] = run_paths(config.scheme, model, runs[N].grid, runs[N], dw)
                # the first node is the previous chunk's last, already summed
                node = runs[N].start + 1
                accumulate(N, node, runs[N].states[:, 1:]
                           - ref_states[:, node * stride - f0::stride])
                runs[N] = runs[N].tail()
            # free this chunk's arrays before the next one is drawn
            del fine, coarse, ref_states
        # per segment: its path count and, per N, its sums and overflow count
        return [(s_hi - s_lo,
                 {N: (sums[N][j], int(runs[N].overflow[s_lo - lo:s_hi - lo].sum()))
                  for N in Ns})
                for j, (_, s_lo, s_hi) in enumerate(segs)]

    zero = (0, {N: (np.zeros(N + 1), 0) for N in Ns})
    totals = _batch_totals(one_block, config.M, config.threads, zero)
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
                      r=r, rows=tuple(rows), T=T)


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


def divergence_comparison(model: SdeModel, Ns: tuple[int, ...], M: int,
                          x0, seed: int, T: float = 1.0,
                          threads: int = 1) -> DivergenceReport:
    """Contrast the untamed Euler scheme against the stopped tamed one on a
    superlinear-drift model.

    Per N and scheme: the fraction of paths flagged as overflowed, the
    fraction exploded (flagged or exceeding magnitude 1e10 at any grid
    point), and the final-state second moment with each path's contribution
    capped at 1e300 (diverged paths are retained and reported, never
    dropped).  Each path block streams its Brownian normals once, at the
    largest N, through a bounded lookahead window, and every N still
    running steps each 64-step chunk of them on from where the last one
    ended, keeping a running max of |state|: a block never holds a whole
    horizon.  Raises ValueError for empty Ns, an N < 1 or T <= 0.
    """
    _check_sweep(Ns, T)
    x0 = validate_start(model, x0, M)
    kinds = (SchemeKind.EULER_MARUYAMA, SchemeKind.STOPPED_BIT)

    def one_block(segs):
        lo, B = segs[0][1], segs[-1][2] - segs[0][1]
        runs = {(kind, N): BatchRuns.initial(GridSpec(T, N), x0, B, model.d)
                for N in Ns for kind in kinds}
        mags = {key: np.zeros(B) for key in runs}  # running max of |state|
        for N, dw in _sweep_increments(Ns, T, model.m, seed, lo, B):
            for kind in kinds:
                step = run_paths(kind, model, runs[kind, N].grid,
                                 runs[kind, N], dw)
                np.maximum(mags[kind, N], np.abs(step.states).max(axis=(1, 2)),
                           out=mags[kind, N])
                runs[kind, N] = step.tail()
        acc = [{} for _ in segs]
        for (kind, N), run in runs.items():
            final = run.states[:, -1]
            with np.errstate(over="ignore", invalid="ignore"):
                m2 = np.einsum("bd,bd->b", final, final)
            # NaN and inf saturate at the cap (fmin drops the NaN operand)
            m2 = np.where(run.overflow, OVERFLOW_CAP, np.fmin(m2, OVERFLOW_CAP))
            exploded = run.overflow | (mags[kind, N] > _EXPLODE_MAGNITUDE)
            for seg_acc, (_, s_lo, s_hi) in zip(acc, segs):
                part = slice(s_lo - lo, s_hi - lo)
                seg_acc[(kind.value, N)] = (int(run.overflow[part].sum()),
                                            int(exploded[part].sum()),
                                            float(m2[part].sum()),
                                            s_hi - s_lo)
        return acc

    zero = {(kind.value, N): (0, 0, 0.0, 0) for N in Ns for kind in kinds}
    pooled = reduce(_add, _batch_totals(one_block, M, threads, zero), zero)
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
    Each path block streams its Brownian normals once, at the largest N,
    through a bounded lookahead window, and every N still running steps
    each 64-step chunk of them on from where the last one ended: a block
    never holds a whole horizon.  Raises ValueError for empty Ns, an N < 1,
    T <= 0 or M < 2.
    """
    _check_sweep(Ns, T)
    if M < 2:
        raise ValueError(f"M must be >= 2 for a sample stderr, got {M}")
    x0 = validate_start(model, x0, M)
    c_growth = fit_growth_constant(model, spec, _P_GROWTH, T=T)
    eu0 = float(spec.U(x0))

    def one_block(segs):
        lo, B = segs[0][1], segs[-1][2] - segs[0][1]
        runs = {N: BatchRuns.initial(GridSpec(T, N), x0, B, model.d) for N in Ns}
        for N, dw in _sweep_increments(Ns, T, model.m, seed, lo, B):
            runs[N] = run_paths(SchemeKind.STOPPED_BIT, model, runs[N].grid,
                                runs[N], dw).tail()
        return {N: np.minimum(spec.U(run.states[:, -1]), OVERFLOW_CAP)
                for N, run in runs.items()}
    # values per path, so the blocks' results in path order are the merge
    blocks = _batch_map(one_block, path_blocks(M, _N_STAT_BATCHES), threads)

    def one_n(N: int) -> MomentRow:
        u_vals = np.concatenate([u[N] for u in blocks])
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
