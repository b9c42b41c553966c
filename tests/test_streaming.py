"""The streamed estimators against whole-horizon oracles.

strong_error steps blocks of up to 1000 paths (several batch-means batches)
through time in short fine-grid chunks, carrying each run's state from one
chunk to the next; the diagnostics and ``simulate`` step each block in
32-step time chunks, and the Brownian streams draw ahead into a bounded
lookahead.  Every test here demands bit-for-bit equality with the
straightforward computation, a memory bound that the whole-horizon
computation does not meet, or no more work than the result needs.
"""

import ast
import collections
import dataclasses
import functools
import gc
import hashlib
import json
import math
import multiprocessing
import pickle
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from biteuler import brownian, cli, core, diagnostics, experiments, schemes
from biteuler.brownian import (BlockStream, coarsen_increments,
                               generate_block, generate_path)
from biteuler.core import ErrorRow, ErrorTable, GridSpec, SdeModel, path_blocks
from biteuler.diagnostics import exp_moment_estimate, stopping_probability
from biteuler.experiments import ConvergenceConfig, strong_error
from biteuler.models import catalog, model_gbm
from biteuler.schemes import OVERFLOW_CAP, BatchRuns, SchemeKind, run_paths
from biteuler.taming import TamingParams, stopping_threshold, tame


def oracle_strong_error(config: ConvergenceConfig) -> ErrorTable:
    """strong_error the whole-horizon way: every batch-means batch on its
    own, per-path streams from generate_path, one run_paths call over the
    whole grid per resolution, and (B, N+1) column sums."""
    entry = catalog()[config.model]
    model = entry.model
    x0 = np.asarray(config.x0 if config.x0 is not None else entry.default_x0,
                    dtype=float)
    T, Ns, r = config.T, config.Ns, config.r
    exact = config.reference == "exact"
    n_fine = max(Ns) if exact else config.N_ref
    edges = [round(b * config.M / 10) for b in range(11)]
    batches = []
    for lo, hi in zip(edges, edges[1:]):
        sums = {N: np.zeros(N + 1) for N in Ns}
        over = {N: 0 for N in Ns}
        if hi > lo:
            fine = np.stack([generate_path(T, n_fine, model.m, config.seed,
                                           j).increments for j in range(lo, hi)])
            if exact:
                w = np.concatenate([np.zeros((hi - lo, 1, model.m)),
                                    np.cumsum(fine, axis=1)], axis=1)
                ref = model.exact_solution(x0, np.arange(n_fine + 1) * (T / n_fine), w)
            else:
                ref = run_paths(config.scheme, model,
                                GridSpec(T, n_fine), x0, fine).states
            for N in Ns:
                runs = run_paths(config.scheme, model, GridSpec(T, N), x0,
                                 coarsen_increments(fine, N))
                diff = runs.states - ref[:, ::n_fine // N]
                with np.errstate(over="ignore", invalid="ignore"):
                    dist = np.einsum("bkd,bkd->bk", diff, diff) ** (r / 2.0)
                dist = np.minimum(np.nan_to_num(dist, nan=OVERFLOW_CAP,
                                                posinf=OVERFLOW_CAP), OVERFLOW_CAP)
                sums[N] += dist.sum(axis=0)
                over[N] += int(runs.overflow.sum())
        batches.append((sums, over, hi - lo))
    rows = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for N in Ns:
            pooled = sum(s[N] for s, _, _ in batches)
            sups = [float(np.max((s[N] / n) ** (1.0 / r))) for s, _, n in batches]
            per_k = (pooled / config.M) ** (1.0 / r)
            rows.append(ErrorRow(
                N=N, M=config.M, sup_error=float(np.max(per_k)),
                std_error=float(np.std(sups, ddof=1) / math.sqrt(len(sups))),
                seed=config.seed, per_gridpoint_errors=per_k,
                overflow_fraction=sum(o[N] for _, o, _ in batches) / config.M))
    return ErrorTable(scheme=config.scheme.value, model=config.model, r=r,
                      rows=tuple(rows), T=T)


def bits(table: ErrorTable) -> list:
    """Every number of a table as exact bytes (NaN included)."""
    return [(row.N, np.float64(row.sup_error).tobytes(),
             np.float64(row.std_error).tobytes(),
             row.per_gridpoint_errors.tobytes(), row.overflow_fraction)
            for row in table.rows]


# steps of the finest run per time chunk: the default; 16, which gives N=4
# of the fine reference exactly one node per chunk; and one step per chunk,
# so every N coarser than the finest carries partial increment sums across
# chunks
SLICE_STEPS = (diagnostics._SLICE_STEPS, 16, 1)


@pytest.mark.parametrize("slice_steps", SLICE_STEPS)
@pytest.mark.parametrize("M", (10, 37, 2500))  # 10: one path per stderr batch
@pytest.mark.parametrize("reference", ("fine", "exact"))
@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("T", (1.0, 2.5))  # fine node k at time k T / N_fine
def test_streamed_strong_error_equals_whole_horizon_oracle(
        monkeypatch, T, scheme, reference, M, slice_steps):
    if reference == "exact":
        config = ConvergenceConfig(model="gbm", scheme=scheme, Ns=(4, 8, 16),
                                   M=M, seed=3, reference="exact", T=T)
    else:
        # from x0 = 5 Euler-Maruyama overflows and the stopped scheme freezes
        config = ConvergenceConfig(model="ginzburg-landau", scheme=scheme,
                                   Ns=(4, 8), M=M, seed=5, reference="fine",
                                   N_ref=64, x0=(5.0,), T=T)
    monkeypatch.setattr(diagnostics, "_SLICE_STEPS", slice_steps)
    with np.errstate(invalid="ignore", divide="ignore"):
        streamed = strong_error(config)
    assert bits(streamed) == bits(oracle_strong_error(config))
    if scheme is SchemeKind.EULER_MARUYAMA and reference == "fine":
        assert streamed.rows[-1].overflow_fraction > 0


# N_ref of each Ns: strides 16 and 8 from N_ref = 48; strides 24 and 12,
# whose chunk at 16 slice steps falls back to their lcm 24, as 16 divides
# neither stride nor their power-of-two parts 8 and 4; and strides 18 and 9
# from N_ref = 72, whose odd ratio 9 no halving of the finer level sums
OFF_POWER_REFS = {(3, 6): 48, (2, 4): 48, (4, 8): 72}


@pytest.mark.parametrize("Ns", OFF_POWER_REFS)
@pytest.mark.parametrize("slice_steps", SLICE_STEPS)
def test_streamed_equals_oracle_off_powers_of_two(monkeypatch, slice_steps, Ns):
    # a scheme without stopping on a two-dimensional model, and r = 3
    config = ConvergenceConfig(model="vdp", scheme=SchemeKind.EULER_MARUYAMA,
                               Ns=Ns, M=40, seed=2, reference="fine",
                               N_ref=OFF_POWER_REFS[Ns], r=3.0, x0=(2.0, -1.0))
    monkeypatch.setattr(diagnostics, "_SLICE_STEPS", slice_steps)
    assert bits(strong_error(config)) == bits(oracle_strong_error(config))


def test_thread_count_does_not_change_any_bit():
    # 2500 paths make three blocks, so two workers really share the work
    base = dict(model="ginzburg-landau", scheme=SchemeKind.STOPPED_BIT,
                Ns=(8, 16), M=2500, seed=11, reference="fine", N_ref=128)
    one = strong_error(ConvergenceConfig(**base, threads=1))
    two = strong_error(ConvergenceConfig(**base, threads=2))
    assert bits(one) == bits(two)


# the sweeps: N = 100 and 256 cross 32-step chunks, and 100 ends in a short
# one; 2500 paths make three blocks, whose batch-means segments end at the
# block edges
SWEEP_NS = (16, 100, 256)


@pytest.mark.parametrize("threads", (1, 2))
def test_streamed_moment_sweep_equals_whole_horizon_oracle(threads):
    gl = catalog()["ginzburg-landau"].model
    M = 2500
    report = experiments.moment_sweep(gl, gl.lyapunov, SWEEP_NS, M, seed=4,
                                      x0=[1.0], threads=threads)
    for N, row in zip(SWEEP_NS, report.rows):
        dw = generate_block(1.0, N, 1, seed=4, first_path=0, count=M)
        runs = run_paths(SchemeKind.STOPPED_BIT, gl, GridSpec(1.0, N), [1.0], dw)
        u = np.minimum(gl.lyapunov.U(runs.states[:, -1]), OVERFLOW_CAP)
        assert row.N == N
        assert row.eu_estimate == float(np.mean(u))
        assert row.eu_stderr == float(np.std(u, ddof=1) / math.sqrt(M))
        expm = exp_moment_estimate(gl, gl.lyapunov, GridSpec(1.0, N), M, 4,
                                   [1.0])
        assert (row.exp_estimate, row.exp_stderr,
                row.exp_saturated_fraction) == (expm.estimate, expm.stderr,
                                                expm.saturated_fraction)


@pytest.mark.parametrize("threads", (1, 2))
def test_streamed_divergence_equals_whole_horizon_oracle(threads):
    gl = catalog()["ginzburg-landau"].model
    M = 2500
    # from 20 Euler-Maruyama overflows at N = 16 and 100, not at 256
    report = experiments.divergence_comparison(gl, SWEEP_NS, M, [20.0], seed=6,
                                               threads=threads)
    for N in SWEEP_NS:
        dw = generate_block(1.0, N, 1, seed=6, first_path=0, count=M)
        for kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.STOPPED_BIT):
            with np.errstate(over="ignore", invalid="ignore"):
                runs = run_paths(kind, gl, GridSpec(1.0, N), [20.0], dw)
            final = runs.states[:, -1, 0]
            with np.errstate(over="ignore", invalid="ignore"):
                m2 = np.where(runs.overflow, OVERFLOW_CAP,
                              np.fmin(final * final, OVERFLOW_CAP))
            exploded = runs.overflow | (np.abs(runs.states).max(axis=(1, 2))
                                        > 1e10)
            total = 0.0  # each 250-path batch summed alone, then in order
            for b in range(10):
                total += float(m2[250 * b:250 * (b + 1)].sum())
            row = report.row(kind, N)
            assert row.overflow_fraction == runs.overflow.sum() / M
            assert row.explode_fraction == exploded.sum() / M
            assert row.second_moment_capped == total / M
    em = [report.row(SchemeKind.EULER_MARUYAMA, N) for N in SWEEP_NS]
    assert [row.overflow_fraction > 0 for row in em] == [True, True, False]


# a reducer is pickled with what it binds, here the shipped GL spec
_GL_SPEC = catalog()["ginzburg-landau"].model.lyapunov

# every reducer the estimators hand the block driver, bound as they bind it
REDUCERS = [
    diagnostics._last_nodes,
    functools.partial(diagnostics._functional, _GL_SPEC),
    functools.partial(experiments._strong_error, SchemeKind.STOPPED_BIT, (4, 8),
                      3.0, (SchemeKind.EULER_MARUYAMA, 64)),
    experiments._divergence]


def _binding(reducer) -> tuple:
    """A reducer's function and the values bound to it."""
    return (getattr(reducer, "func", reducer), getattr(reducer, "args", ()),
            getattr(reducer, "keywords", {}))


def _reducer_id(reducer) -> str:
    func, args, _ = _binding(reducer)
    return func.__name__ + repr(tuple("spec" if a is _GL_SPEC else a
                                      for a in args))


@pytest.mark.parametrize("reducer", REDUCERS, ids=_reducer_id)
def test_reducers_round_trip_through_pickle(reducer):
    # a worker process receives its reducer pickled, which takes a
    # module-level function
    assert _binding(pickle.loads(pickle.dumps(reducer))) == _binding(reducer)


def _bits(total) -> list:
    """Every value of a driver total, nested as it is, as bytes."""
    if isinstance(total, dict):
        return [(key, _bits(v)) for key, v in total.items()]
    if isinstance(total, (list, tuple)):
        return [_bits(v) for v in total]
    return np.asarray(total).tobytes()


@pytest.mark.parametrize("name", ("gbm", "ginzburg-landau", "vdp"))
def test_paths_round_trip_through_pickle(name):
    # a worker process receives the paths of its blocks pickled, with the
    # model they carry
    entry = catalog()[name]
    runs = ((SchemeKind.STOPPED_BIT, 8), (SchemeKind.EULER_MARUYAMA, 16))
    paths = diagnostics._Paths(entry.model, 3.0 * entry.default_x0, 1.0, 3,
                               runs, 16)
    back = pickle.loads(pickle.dumps(paths))
    assert pickle.dumps(back) == pickle.dumps(paths)
    assert _bits(diagnostics._finals(back, 40)) == \
        _bits(diagnostics._finals(paths, 40))


def test_a_spawned_worker_gives_the_inline_totals():
    # a worker process started afresh imports the package and unpickles
    # each block's function, the paths and model it binds and the reducer;
    # 1500 paths make two blocks of 900 and 600 in 10 batches
    gl = catalog()["ginzburg-landau"].model
    ref = (SchemeKind.STOPPED_BIT, 64)
    runs = (ref, (SchemeKind.STOPPED_BIT, 4), (SchemeKind.STOPPED_BIT, 8))
    paths = diagnostics._Paths(gl, np.array([2.0]), 1.0, 5, runs, 64)
    reducer = functools.partial(experiments._strong_error,
                                SchemeKind.STOPPED_BIT, (4, 8), 2.0, ref)
    inline = diagnostics._drive(paths, reducer, 1500, 10)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        # a worker that cannot unpickle the block fails the map, a stuck
        # one its timeout
        pooled = diagnostics._drive(paths, reducer, 1500, 10,
                                    block_map=functools.partial(pool.map,
                                                                timeout=120))
    assert len(pooled) == 10
    assert _bits(pooled) == _bits(inline)


def _reducers_handed_to_the_driver() -> set:
    """The names of the functions that the package's calls of ``_drive``
    and ``_batch_totals`` hand on as their reducer, bare or bound by
    ``partial``; a caller's own parameter is handed on, not chosen."""
    names = set()
    for path in sorted(Path(diagnostics.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = {a.arg for a in fn.args.args}
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None)
                        in ("_drive", "_batch_totals")):
                    arg = call.args[1]
                    if isinstance(arg, ast.Call):  # partial(reducer, ...)
                        arg = arg.args[0]
                    if arg.id not in params:
                        names.add(arg.id)
    return names


def test_every_reducer_is_listed():
    listed = {_binding(r)[0].__name__ for r in REDUCERS}
    assert _reducers_handed_to_the_driver() == listed


@pytest.mark.parametrize("reducer", [
    r for r in REDUCERS if _binding(r)[0].__module__ == diagnostics.__name__],
    ids=_reducer_id)
def test_single_batch_reducers_reject_a_block_of_two_segments(reducer):
    gbm = catalog()["gbm"].model
    paths = diagnostics._Paths(gbm, np.ones(1), 1.0, 0,
                               ((SchemeKind.STOPPED_BIT, 4),), 4)
    with pytest.raises(ValueError,
                       match="reduces a block of one segment, got 2$"):
        diagnostics._drive(paths, reducer, 5, n_batches=2)


# outputs computed when every reducer took a block's segments, at the two
# layouts where blocks and batches differ: at M = 1500 the 10 batches of 150
# paths fill blocks of 900 and 600 (six and four segments), and at M = 12345
# each batch is cut into blocks of 1000 and 234 or 235 paths
LAYOUT_PINS = {
    (1500, "strong_error exact"): "eefa52437205e2ae",
    (1500, "strong_error fine"): "375864ba0fa04995",
    (1500, "divergence_comparison"): "68b6f8f944759f12",
    (1500, "moment_sweep"): "57df2262b25c2e4f",
    (12345, "strong_error exact"): "85e5d3c7494e7e74",
    (12345, "strong_error fine"): "4190941688e086a3",
    (12345, "divergence_comparison"): "27de66977432d4cf",
    (12345, "moment_sweep"): "99e1f5dc9e918aaa",
}


def _layout_outputs(M: int, threads: int) -> dict:
    """Every number the three batched experiments report, row by row."""
    gl = catalog()["ginzburg-landau"].model
    exact = strong_error(ConvergenceConfig(
        model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=(4, 8, 16), M=M,
        seed=3, threads=threads))
    fine = strong_error(ConvergenceConfig(
        model="ginzburg-landau", scheme=SchemeKind.STOPPED_BIT, Ns=(4, 8),
        M=M, seed=5, reference="fine", N_ref=64, x0=(2.0,), threads=threads))
    div = experiments.divergence_comparison(gl, (4, 16, 100), M, [20.0],
                                            seed=6, threads=threads)
    mom = experiments.moment_sweep(gl, gl.lyapunov, (4, 16, 100), M, seed=4,
                                   x0=[1.0], threads=threads)
    return {
        "strong_error exact": [(r.sup_error, r.std_error, r.overflow_fraction,
                                *r.per_gridpoint_errors) for r in exact.rows],
        "strong_error fine": [(r.sup_error, r.std_error, r.overflow_fraction,
                               *r.per_gridpoint_errors) for r in fine.rows],
        "divergence_comparison": [dataclasses.astuple(r)[1:] for r in div.rows],
        "moment_sweep": [dataclasses.astuple(r)[1:] for r in mom.rows]}


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("M", (1500, 12345))
def test_batched_layouts_keep_their_pinned_outputs(M, threads):
    for name, rows in _layout_outputs(M, threads).items():
        # every value's shortest round-trip repr, so any changed bit shows
        text = repr([[float(v) for v in row] for row in rows])
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == LAYOUT_PINS[M, name], name


def test_prefix_runs_step_only_the_chunks_that_hold_their_steps(monkeypatch):
    # under the prefix rule N = 32 ends where the second 32-step chunk
    # starts: it is not stepped there, not even by zero steps
    calls = []

    def counting_run_paths(kind, model, grid, x0, dW):
        calls.append((grid.N, dW.shape[1]))
        return run_paths(kind, model, grid, x0, dW)

    monkeypatch.setattr(diagnostics, "run_paths", counting_run_paths)
    gl = catalog()["ginzburg-landau"].model
    experiments.divergence_comparison(gl, (32, 64), 10, [1.0], seed=0)
    # one block, two schemes per N
    assert sorted(calls) == [(32, 32)] * 2 + [(64, 32)] * 4


def test_criterion_2_block_steps_coarse_runs_in_8_step_calls(monkeypatch):
    # criterion 2's shape: the 8192-step reference steps each of its 256
    # 32-step chunks, and each coarser run N once it holds 8 of its own
    # steps, N / 8 calls of 8 steps: 510 calls in all.  Stepping every
    # coarse run on every chunk made 1,264, each with a fixed cost
    calls = collections.Counter()

    def counting_run_paths(kind, model, grid, x0, dW):
        calls[grid.N, dW.shape[1]] += 1
        return run_paths(kind, model, grid, x0, dW)

    monkeypatch.setattr(diagnostics, "run_paths", counting_run_paths)
    Ns = tuple(2**k for k in range(4, 11))
    strong_error(ConvergenceConfig(
        model="ginzburg-landau", scheme=SchemeKind.STOPPED_BIT, Ns=Ns, M=10,
        seed=0, reference="fine", N_ref=2**13))
    assert calls == {(2**13, 32): 256, **{(N, 8): N // 8 for N in Ns}}
    assert sum(calls.values()) == 510


def test_path_blocks_pack_whole_batches_in_path_order():
    blocks = path_blocks(2500, 10)
    assert [len(b) for b in blocks] == [4, 4, 2]
    assert [seg for blk in blocks for seg in blk] == [
        (b, 250 * b, 250 * (b + 1)) for b in range(10)]
    # batches larger than a block are cut at 1000-path offsets from their start
    big = path_blocks(25000, 10)
    assert big[:3] == [[(0, 0, 1000)], [(0, 1000, 2000)], [(0, 2000, 2500)]]


@pytest.mark.parametrize("strides,budget,chunk", [
    ([1], 32, 32), ([3, 6, 12], 96, 96), ([3, 96], 96, 96),
    # the lcm exceeds the budget: a power of two within it, which 8 divides
    # and which divides the power-of-two part of every other stride
    ([8, 512], 256, 256), ([8, 1024, 2048], 300, 256),
    ([4, 6], 10, 12)])  # no power of two suits 6: the lcm
def test_time_chunk_is_the_documented_rule(strides, budget, chunk):
    # every chunk gives the same bits, so only the chunk itself shows a
    # rule that steps more than the budget
    assert diagnostics._time_chunk(strides, budget) == chunk


@pytest.mark.parametrize("counts", ([24, 12, 8, 6, 4, 3, 2, 1], [16, 8, 1]))
def test_coarsen_levels_equal_direct_coarsening(counts):
    fine = generate_block(1.0, 48, 2, seed=4, first_path=0, count=5)
    levels = diagnostics._coarsen_levels(fine, counts)
    for n in counts:
        assert levels[n].tobytes() == coarsen_increments(fine, n).tobytes()


def test_coarsen_levels_sum_each_level_from_the_coarsest_it_may():
    # summing a level from a finer one gives the same bits at a multiple of
    # the cost, so only the level each is summed from shows the rule
    fine = generate_block(1.0, 48, 1, seed=4, first_path=0, count=2)
    sources = {}

    def coarsen(a, n):
        sources[n] = a.shape[1]
        return coarsen_increments(a, n)
    diagnostics._coarsen_levels(fine, [24, 12, 8, 6, 4, 3, 2, 1], coarsen)
    assert sources == {24: 48, 12: 24, 8: 24, 6: 12, 4: 12, 3: 6, 2: 6, 1: 3}


@pytest.mark.parametrize("seed,first", [(5, 10), (0, 0), (2**64 - 1, 10),
                                        (7, 2**64 - 7)])
def test_block_stream_chunks_equal_one_draw(seed, first):
    # both ends of the seed range, and a block ending at the last path index
    whole = generate_block(100, 100, 2, seed=seed, first_path=first, count=7)
    stream = BlockStream(100, 2, seed=seed, first_path=first, count=7)
    parts = [stream.draw(n) for n in (1, 0, 33, 64, 2)]
    assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()
    with pytest.raises(ValueError):
        stream.draw(1)


@pytest.mark.parametrize("budget", (brownian._LOOKAHEAD_VALUES, 7 * 4 * 2))
def test_block_stream_draws_no_value_past_the_horizon(monkeypatch, budget):
    # the default budget holds the whole horizon: one generate_block call of
    # exactly its 1000 steps fills it, and no path gets a generator of its
    # own.  7-step refills leave 1000 % 7 = 6 steps for the last one
    monkeypatch.setattr(brownian, "_LOOKAHEAD_VALUES", budget)
    filled, made = [], []
    generator = np.random.Generator

    def counting_generate_block(T, N_fine, *args):
        filled.append(N_fine)
        return generate_block(T, N_fine, *args)

    def counting_generator(bit_generator):
        made.append(bit_generator)
        return generator(bit_generator)

    monkeypatch.setattr(brownian, "generate_block", counting_generate_block)
    monkeypatch.setattr(np.random, "Generator", counting_generator)
    stream = BlockStream(1000, 2, seed=3, first_path=5, count=4)
    for n in (1, 300, 64, 635):
        stream.draw(n)
    # a short last refill leaves no stale steps of the window to draw
    with pytest.raises(ValueError, match="^1 steps asked, 0 left$"):
        stream.draw(1)
    if budget >= 1000 * 4 * 2:
        assert filled == [1000] and len(made) == 1  # generate_block's own
        return
    assert filled == [] and len(made) == 4
    for j, gen in enumerate(stream._gens):
        once = brownian._path_generator(3, 5 + j)
        once.standard_normal((1000, 2))
        assert repr(gen.bit_generator.state) == repr(once.bit_generator.state)


@pytest.mark.parametrize("m", (1, 2))
def test_block_stream_window_holds_2_mb_of_values(m):
    # 2**18 values: the first draw of 1000 paths fills 262 steps of each
    # with one noise dimension and 131 with two, the window the README and
    # the memory bounds assume
    stream = BlockStream(1000, m, seed=3, first_path=0, count=1000)
    stream.draw(1)
    for j in (0, 999):
        once = brownian._path_generator(3, j)
        once.standard_normal((2**18 // (1000 * m), m))
        assert repr(stream._gens[j].bit_generator.state) == \
            repr(once.bit_generator.state)


def _stream_peak(n_fine: int, B: int = 1000, chunk: int = 64) -> int:
    tracemalloc.start()
    try:
        stream = BlockStream(n_fine, 1, seed=2, first_path=0, count=B)
        for _ in range(0, n_fine, chunk):
            stream.draw(chunk)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_stream_memory_is_flat_in_the_horizon():
    # the lookahead holds at most 2^18 values (2 MB) whatever N_fine is
    small, large = _stream_peak(2**13), _stream_peak(2**15)
    assert large <= 1.05 * small, (small, large)
    assert large <= 8 * brownian._LOOKAHEAD_VALUES + 8 * 1000 * 64 + 2**20


# ---------------------------------------------------------------------------
# the carried-state kernel


def reference_run(kind, model, grid, x0, dW):
    """The scheme recursion one step at a time with the general einsum
    contractions: states, tau_index and overflow."""
    B, N, _ = dW.shape
    h = grid.h
    threshold = stopping_threshold(N, grid.T)
    norm = lambda v: np.sqrt(np.einsum("...d,...d->...", v, v))
    y = np.broadcast_to(np.asarray(x0, dtype=float), (B, model.d)).copy()
    states, tau = [y], np.full(B, N)
    overflow = np.zeros(B, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(N):
            exceeded = norm(y) > threshold
            tau = np.where((tau == N) & exceeded, k, tau)
            dw = dW[:, k]
            if kind is SchemeKind.STOPPED_BIT:
                dw = tame(TamingParams(h=h, m=model.m), dw)
            cand = y + (model.drift(y) * h
                        + np.einsum("...dm,...m->...d", model.diffusion(y), dw))
            if kind is SchemeKind.STOPPED_BIT:
                keep = exceeded
            else:
                overflow |= ~(np.isfinite(cand).all(axis=-1)
                              & (np.abs(cand).max(axis=-1) <= OVERFLOW_CAP))
                keep = overflow
            y = np.where(keep[:, None], y, cand)
            states.append(y)
    return np.stack(states, axis=1), tau, overflow


# starts at the N = 40 threshold and one ulp either side of it, tiny enough
# that y*y underflows, large enough that it overflows, and infinite; some
# negative, since the gate reads the magnitude
_THR40 = stopping_threshold(40, 1.0)
EDGE_STARTS = [_THR40, np.nextafter(_THR40, 0.0), np.nextafter(_THR40, math.inf),
               -np.nextafter(_THR40, math.inf), 1e-200, 1e200, -1e200,
               math.inf]


def _mixed_noise() -> SdeModel:
    """Two states driven by three noises through a state-dependent,
    non-square diffusion, so that a transposed or misindexed contraction
    changes the update."""
    def diffusion(x):
        u, v = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        one = np.ones_like(u)
        return np.stack([np.stack([one, v, 0.5 * one], axis=-1),
                         np.stack([0.2 * one, -u, one], axis=-1)], axis=-2)

    return SdeModel(name="mixed-noise", d=2, m=3, drift=lambda x: -x,
                    diffusion=diffusion)


def _additive(sigma) -> SdeModel:
    """A declared-additive model with this constant (d, m) diffusion and a
    cubic drift, so that its noise terms are formed once per call."""
    sigma = np.array(sigma)
    return SdeModel(name="additive", d=sigma.shape[0], m=sigma.shape[1],
                    drift=lambda x: x - x**3,
                    diffusion=lambda x: np.broadcast_to(
                        sigma, np.shape(x)[:-1] + sigma.shape),
                    additive_noise=True)


# the catalog models, one whose contraction is not one product, and two
# declared additive whose call-wide noise is not written over the increments
KERNEL_MODELS = {**{n: e.model for n, e in catalog().items()},
                 "mixed-noise": _mixed_noise(),
                 "additive-noise": _additive([[1.0, -0.3, 0.5],
                                              [0.2, -1.0, 0.0]]),
                 "additive-column": _additive([[0.7], [-1.3]])}


@pytest.mark.parametrize("name,x0", [("ginzburg-landau", [5.0]),
                                     ("ginzburg-landau", [-0.0]),
                                     ("vdp", [-0.0, -0.0]), ("vdp", [3.0, -2.0]),
                                     ("gbm", [-0.0])]
                         + [("ginzburg-landau", [v]) for v in EDGE_STARTS]
                         + [("vdp", [v, 0.0]) for v in EDGE_STARTS]
                         + [("mixed-noise", [1.0, -0.5]),
                            ("additive-noise", [-0.0, -0.0]),
                            ("additive-noise", [1.0, -0.5]),
                            ("additive-column", [-0.0, 2.0])]
                         + [("additive-noise", [v, 0.0]) for v in EDGE_STARTS])
@pytest.mark.parametrize("kind", list(SchemeKind))
# N / T = 40 on both grids, so the edge starts sit at each one's threshold;
# off the unit horizon the step T / N is not 1 / N
@pytest.mark.parametrize("T,N", [(1.0, 40), (2.5, 100)], ids=["T1", "T2.5"])
def test_kernel_equals_step_by_step_reference(T, N, name, x0, kind):
    # signed zeros included: the one-term noise product must round -0.0
    # to +0.0 the way the einsum contraction does; the edge starts check
    # the d = 1 gate |y| against the reference's sqrt(y*y)
    model = KERNEL_MODELS[name]
    grid = GridSpec(T, N)
    dW = generate_block(T, N, model.m, seed=6, first_path=0, count=9)
    runs = run_paths(kind, model, grid, x0, dW)
    states, tau, overflow = reference_run(kind, model, grid, x0, dW)
    assert runs.states.tobytes() == states.tobytes()
    assert runs.tau_index.tolist() == tau.tolist()
    assert runs.overflow.tolist() == overflow.tolist()


@pytest.mark.parametrize("name,calls", [("ginzburg-landau", 1), ("gbm", 32)])
@pytest.mark.parametrize("kind", list(SchemeKind))
@pytest.mark.parametrize("B", [1, 9])
def test_additive_noise_evaluates_sigma_once_per_call(B, kind, name, calls):
    # a declared-additive model's sigma is read at the call's first node
    # only; a one-path call, whose time-major increments need no copy,
    # still leaves the caller's read-only increments as they were
    counted = collections.Counter()
    model = catalog()[name].model
    read = []

    def diffusion(x):
        counted["diffusion"] += 1
        read.append(np.array(x))
        return model.diffusion(x)

    grid = GridSpec(1.0, 32)
    dW = generate_block(1.0, 32, 1, seed=6, first_path=0, count=B)
    dW.flags.writeable = False
    runs = run_paths(kind, dataclasses.replace(model, diffusion=diffusion),
                     grid, [1.0], dW)
    assert counted["diffusion"] == calls
    assert read[0].tolist() == [[1.0]] * B
    assert runs.states.tobytes() == \
        run_paths(kind, model, grid, [1.0], dW).states.tobytes()


@pytest.mark.parametrize("name", ["ginzburg-landau", "gbm", "vdp",
                                  "additive-noise"])
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_each_step_reads_contiguous_rows(monkeypatch, kind, name):
    # a call copies its increments time-major, so each step reads its
    # state and its increments (or noise terms) as contiguous rows
    model = KERNEL_MODELS[name]
    step = schemes._update
    contiguous = []

    def update(model, y, dw, h):
        contiguous.append(y.flags.c_contiguous and dw.flags.c_contiguous)
        return step(model, y, dw, h)

    monkeypatch.setattr(schemes, "_update", update)
    dW = generate_block(1.0, 8, model.m, seed=2, first_path=0, count=5)
    run_paths(kind, model, GridSpec(1.0, 8), np.full(model.d, 0.5), dW)
    assert contiguous == [True] * 8


def test_additive_noise_is_written_over_the_increments():
    # with d = m = 1 a call's noise terms take the place of its time-major
    # increments: an Euler-Maruyama call peaks at the increments, the
    # nodes and the gate pass's temporaries, under one more array of the
    # call's size (615 kB here; 870 kB with the noise in an array of its own)
    gl = catalog()["ginzburg-landau"].model
    dW = generate_block(1.0, 32, 1, seed=1, first_path=0, count=1000)
    tracemalloc.start()
    try:
        run_paths(SchemeKind.EULER_MARUYAMA, gl, GridSpec(1.0, 32), [1.0], dW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * dW.nbytes, peak


def _run_bytes(runs) -> list:
    return [getattr(runs, f).tobytes()
            for f in ("states", "tau_index", "frozen", "overflow")]


def chained(kind, model, grid, x0, dW, cuts):
    """run_paths over dW in pieces split at ``cuts``, each continuing the
    last and leaving it as it was; returns the stitched states and the
    final BatchRuns."""
    runs = BatchRuns.initial(grid, x0, dW.shape[0], model.d)
    states = [runs.states]
    for a, b in zip((0, *cuts), (*cuts, grid.N)):
        before = _run_bytes(runs)
        runs, prev = run_paths(kind, model, grid, runs, dW[:, a:b]), runs
        assert _run_bytes(prev) == before
        assert runs.start == a
        states.append(runs.states[:, 1:])
    return np.concatenate(states, axis=1), runs


# (model, x0): GL from 20 passes the threshold at node 0, GBM with unit
# volatility from 4 passes it midway on some paths, GL from 5 overflows
# under Euler-Maruyama
CHAIN_CASES = [(catalog()["ginzburg-landau"].model, [5.0]),
               (catalog()["ginzburg-landau"].model, [20.0]),
               (catalog()["vdp"].model, [3.0, -2.0]),
               (model_gbm(0.0, 1.0), [4.0]),
               (KERNEL_MODELS["additive-noise"], [1.0, -0.5])]


@pytest.mark.parametrize("cuts", [(1, 8, 77, 149), tuple(range(3, 150, 3))],
                         ids=["uneven-calls", "3-step-calls"])
@pytest.mark.parametrize("model,x0", CHAIN_CASES)
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_chained_run_paths_equals_one_call(kind, model, x0, cuts):
    # 3-step calls: a path can first pass the threshold in any step of any
    # call, so each call must offset its tau by the call's first node
    grid = GridSpec(1.0, 150)
    dW = generate_block(1.0, 150, model.m, seed=8, first_path=0, count=23)
    whole = run_paths(kind, model, grid, x0, dW)
    states, last = chained(kind, model, grid, x0, dW, cuts)
    assert states.tobytes() == whole.states.tobytes()
    for field in ("tau_index", "frozen", "overflow"):
        assert getattr(last, field).tobytes() == getattr(whole, field).tobytes()
    if model.name == "gbm":
        assert ((whole.tau_index > 10) & (whole.tau_index < 150)).any()


def _check_single_and_chained(kind, model, grid, starts, dW, cuts):
    """run_paths from the per-path ``starts`` in one call and in calls split
    at ``cuts`` against the step-by-step reference; returns the one call."""
    states, tau, overflow = reference_run(kind, model, grid, starts, dW)
    whole = run_paths(kind, model, grid,
                      BatchRuns.initial(grid, starts, len(dW), model.d), dW)
    stitched, last = chained(kind, model, grid, starts, dW, cuts)
    for got, runs in ((whole.states, whole), (stitched, last)):
        assert got.tobytes() == states.tobytes()
        assert runs.tau_index.tolist() == tau.tolist()
        assert runs.overflow.tolist() == overflow.tolist()
    return whole


def _drifting(drift) -> SdeModel:
    """One state with this drift and unit noise."""
    return SdeModel(name="drifting", d=1, m=1, drift=drift,
                    diffusion=lambda x: np.ones(x.shape + (1,)))


@pytest.mark.parametrize("cuts", [(1,), (7, 20, 39), tuple(range(1, 40))])
def test_freeze_pass_holds_a_start_past_the_threshold(cuts):
    # the gate is closed at node 0 of the first call on every other path
    # (the N = 40 threshold is 6.83), and open on the rest
    gl = catalog()["ginzburg-landau"].model
    grid = GridSpec(1.0, 40)
    dW = generate_block(1.0, 40, 1, seed=3, first_path=0, count=8)
    starts = np.array([[8.0], [1.0]] * 4)
    whole = _check_single_and_chained(SchemeKind.STOPPED_BIT, gl, grid, starts,
                                      dW, cuts)
    assert whole.tau_index[::2].tolist() == [0] * 4
    assert (whole.states[::2] == 8.0).all()


# a constant drift of 14 and no noise pass the N = 40 threshold (6.83)
# first at node 20 from 0, at node 10 from 3.5 and at node 21 from -0.5
_RAMP_STARTS = np.array([[0.0], [3.5], [-0.5]])


@pytest.mark.parametrize("cuts", [(20,), (10,), (10, 20, 21), (21, 30)])
def test_freeze_pass_gate_closing_at_a_calls_last_node(cuts):
    # a call whose last node first passes the threshold steps that path
    # to it and no further; the next call holds it from its node 0
    ramp = _drifting(lambda x: np.full_like(x, 14.0))
    grid = GridSpec(1.0, 40)
    dW = np.zeros((3, 40, 1))
    whole = _check_single_and_chained(SchemeKind.STOPPED_BIT, ramp, grid,
                                      _RAMP_STARTS, dW, cuts)
    assert whole.tau_index.tolist() == [20, 10, 21]
    first = run_paths(SchemeKind.STOPPED_BIT, ramp, grid,
                      BatchRuns.initial(grid, _RAMP_STARTS, 3, 1),
                      dW[:, :cuts[0]])
    crossed = whole.tau_index < cuts[0]
    assert first.tau_index.tolist() == np.where(crossed, whole.tau_index,
                                                40).tolist()
    assert first.states[:, -1].tolist() == whole.states[:, cuts[0]].tolist()


@pytest.mark.parametrize("cuts", [(5,), (12,), (11, 12), (3, 30)])
@pytest.mark.parametrize("value", (math.inf, math.nan))
def test_freeze_pass_em_jump_to_a_non_finite_state(cuts, value):
    # the drift jumps from 8 to inf or NaN past 2: a path goes from 2.2,
    # below the threshold, straight to a non-finite state at node 12.  It
    # is held at 2.2, flagged, and never stopped: tau stays N although inf
    # compares above the threshold
    jump = _drifting(lambda x: np.where(x > 2.0, value, 8.0))
    grid = GridSpec(1.0, 40)
    dW = np.zeros((2, 40, 1))
    starts = np.array([[0.0], [-6.0]])  # the second never passes 2
    whole = _check_single_and_chained(SchemeKind.EULER_MARUYAMA, jump, grid,
                                      starts, dW, cuts)
    assert whole.overflow.tolist() == [True, False]
    assert whole.tau_index.tolist() == [40, 40]
    assert (whole.states[0, 11:] == whole.states[0, 11]).all()
    assert 2.0 < whole.states[0, 11, 0] < stopping_threshold(40, 1.0)


@pytest.mark.parametrize("cuts", [(6,), (6, 7), (1, 2, 3, 4, 5, 6, 7)])
def test_freeze_pass_holds_a_run_flagged_in_an_earlier_call(cuts):
    # from 20 Euler-Maruyama passes the cap at node 6, so it is held at node
    # 5; every call from node 6 on, on finite increments, holds it from its
    # node 0
    gl = catalog()["ginzburg-landau"].model
    grid = GridSpec(1.0, 8)
    dW = generate_block(1.0, 8, 1, seed=0, first_path=0, count=6)
    starts = np.array([[20.0], [0.5]] * 3)
    first = run_paths(SchemeKind.EULER_MARUYAMA, gl, grid,
                      BatchRuns.initial(grid, starts, 6, 1), dW[:, :6])
    assert first.overflow.tolist() == [True, False] * 3
    whole = _check_single_and_chained(SchemeKind.EULER_MARUYAMA, gl, grid,
                                      starts, dW, cuts)
    assert (whole.states[::2, 5:] == whole.states[::2, 5:6]).all()
    assert (whole.states[1::2, 6:] != whole.states[1::2, 5:6]).all()


def test_freeze_pass_writes_only_the_paths_it_holds():
    # path b's nodes are 3k + b; held from node 1 and node 0, paths 1 and 2
    # take those nodes' states, and path 0, held at its last node, is not
    # written: a read-only path that no node holds passes untouched
    path = np.arange(12.0).reshape(4, 3, 1)
    schemes._hold(path, np.array([3, 1, 0]))
    assert path[..., 0].tolist() == [[0, 1, 2], [3, 4, 2], [6, 4, 2], [9, 4, 2]]
    path.flags.writeable = False
    schemes._hold(path, np.full(3, 3))
    assert schemes._first(np.zeros((0, 2), bool)).tolist() == [0, 0]
    assert schemes._first(np.array([[0, 0, 1], [1, 0, 1]], bool)).tolist() == \
        [1, 2, 0]


def test_first_of_a_mask_with_no_true_row_stacks_nothing():
    # a call in which no gate closed answers n for every path without a
    # stacked copy of its (n, B) mask
    mask = np.zeros((512, 1000), bool)
    tracemalloc.start()
    try:
        first = schemes._first(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.tolist() == [512] * 1000
    assert peak < mask.nbytes / 4, peak


def test_overflow_flags_only_magnitudes_past_the_cap():
    # zero drift and zero increments hold each path at its start: a state
    # of magnitude OVERFLOW_CAP itself is not flagged, one ulp past it is
    gbm = model_gbm(0.0, 1.0)
    grid = GridSpec(1.0, 4)
    for x0, flagged in ((OVERFLOW_CAP, False), (-OVERFLOW_CAP, False),
                        (np.nextafter(OVERFLOW_CAP, math.inf), True)):
        runs = run_paths(SchemeKind.EULER_MARUYAMA, gbm, grid, [x0],
                         np.zeros((1, 4, 1)))
        assert runs.overflow.tolist() == [flagged], x0
        assert (runs.states == x0).all()


def test_chained_run_carries_overflow():
    gl = catalog()["ginzburg-landau"].model
    grid = GridSpec(1.0, 8)
    dW = generate_block(1.0, 8, 1, seed=0, first_path=0, count=16)
    whole = run_paths(SchemeKind.EULER_MARUYAMA, gl, grid, [5.0], dW)
    states, last = chained(SchemeKind.EULER_MARUYAMA, gl, grid, [5.0], dW, (4,))
    assert whole.overflow.all() and last.overflow.all()
    assert states.tobytes() == whole.states.tobytes()
    # an infinite increment right before the cut: the flagged paths must stay
    # frozen in the next chunk, although its increments are finite again
    blown = dW.copy()
    blown[::2, 3] = math.inf
    states, last = chained(SchemeKind.EULER_MARUYAMA, gl, grid, [0.5], blown, (4,))
    assert last.overflow[::2].all() and (states[::2, 4:] == states[::2, 3:4]).all()
    assert states.tobytes() == run_paths(SchemeKind.EULER_MARUYAMA, gl, grid,
                                         [0.5], blown).states.tobytes()


def test_continuation_checks_grid_batch_and_horizon():
    gl = catalog()["ginzburg-landau"].model
    grid = GridSpec(1.0, 8)
    dW = generate_block(1.0, 8, 1, seed=0, first_path=0, count=4)
    half = run_paths(SchemeKind.STOPPED_BIT, gl, grid,
                     BatchRuns.initial(grid, [1.0], 4, 1), dW[:, :4])
    with pytest.raises(ValueError):
        run_paths(SchemeKind.STOPPED_BIT, gl, grid, half, dW)  # past node N
    with pytest.raises(ValueError):
        run_paths(SchemeKind.STOPPED_BIT, gl, GridSpec(1.0, 16), half, dW[:, 4:])
    with pytest.raises(ValueError):
        run_paths(SchemeKind.STOPPED_BIT, gl, grid, half, dW[:3, 4:])
    with pytest.raises(ValueError):  # an initial state needs the whole grid
        run_paths(SchemeKind.STOPPED_BIT, gl, grid, [1.0], dW[:, :4])


def _nan_above(level: float) -> SdeModel:
    return SdeModel(name="nan-above", d=1, m=1,
                    drift=lambda x: np.where(x > level, np.nan, -x),
                    diffusion=lambda x: np.ones(x.shape + (1,)))


def test_nan_drift_at_live_state_raises_in_any_chunk():
    grid = GridSpec(1.0, 64)
    dW = generate_block(1.0, 64, 1, seed=11, first_path=0, count=50)
    with pytest.raises(FloatingPointError):
        run_paths(SchemeKind.STOPPED_BIT, _nan_above(1.2), grid, [1.0], dW)
    # the first chunk stays below the level; the second crosses it
    model = _nan_above(1.5)
    first = run_paths(SchemeKind.STOPPED_BIT, model, grid,
                      BatchRuns.initial(grid, [0.0], 50, 1), dW[:, :1])
    with pytest.raises(FloatingPointError):
        run_paths(SchemeKind.STOPPED_BIT, model, grid, first,
                  np.full((50, 63, 1), 0.25))


def _nan_beyond(level: float, d: int) -> SdeModel:
    """-x drift, NaN where a coordinate passes ``level``; unit noise."""
    return SdeModel(name="nan-beyond", d=d, m=d,
                    drift=lambda x: np.where(x > level, np.nan, -x),
                    diffusion=lambda x: np.broadcast_to(
                        np.eye(d), x.shape + (d,)).copy())


@pytest.mark.parametrize("d", (1, 2))
def test_nan_drift_raises_at_the_step_that_meets_it(d):
    # the reference recursion writes the NaN state instead of raising: the
    # kernel must take the steps before it and raise on that one
    model = _nan_beyond(1.4, d)
    grid = GridSpec(1.0, 64)
    dW = generate_block(1.0, 64, d, seed=11, first_path=0, count=50)
    x0 = [1.0] * d
    states, _, _ = reference_run(SchemeKind.STOPPED_BIT, model, grid, x0, dW)
    first_nan = int(np.isnan(states).any(axis=(0, 2)).argmax())
    assert first_nan > 1
    for n in range(1, first_nan):
        part = run_paths(SchemeKind.STOPPED_BIT, model, grid,
                         BatchRuns.initial(grid, x0, 50, d), dW[:, :n])
        assert part.states.tobytes() == states[:, :n + 1].tobytes()
    with pytest.raises(FloatingPointError):
        run_paths(SchemeKind.STOPPED_BIT, model, grid,
                  BatchRuns.initial(grid, x0, 50, d), dW[:, :first_nan])


def test_nan_drift_at_frozen_state_does_not_raise():
    # the drift is NaN everywhere beyond the threshold, where the path is
    # frozen, so the update is never applied
    grid = GridSpec(1.0, 64)
    dW = generate_block(1.0, 64, 1, seed=11, first_path=0, count=8)
    runs = run_paths(SchemeKind.STOPPED_BIT, _nan_above(4.0), grid, [8.0], dW)
    assert (runs.tau_index == 0).all() and runs.frozen.all()


def test_held_infinite_path_does_not_hide_a_live_one_going_nan():
    # the slice check passes paths held at a non-finite start, and only them
    grid = GridSpec(1.0, 64)
    start = dataclasses.replace(BatchRuns.initial(grid, [0.0], 2, 1),
                                states=np.array([[[math.inf]], [[1.0]]]))
    dW = np.full((2, 64, 1), 0.25)
    held = BatchRuns.initial(grid, [math.inf], 1, 1)
    run_paths(SchemeKind.STOPPED_BIT, _nan_above(1.2), grid, held, dW[:1])
    with pytest.raises(FloatingPointError):
        run_paths(SchemeKind.STOPPED_BIT, _nan_above(1.2), grid, start, dW)


def test_infinite_start_freezes_at_zero_without_raising():
    gl = catalog()["ginzburg-landau"].model
    grid = GridSpec(1.0, 16)
    dW = generate_block(1.0, 16, 1, seed=2, first_path=0, count=5)
    runs = run_paths(SchemeKind.STOPPED_BIT, gl, grid, [math.inf], dW)
    assert (runs.tau_index == 0).all() and runs.frozen.all()
    assert (runs.states == math.inf).all()


# ---------------------------------------------------------------------------
# memory


def _peak_traced_bytes(config: ConvergenceConfig) -> int:
    tracemalloc.start()
    try:
        strong_error(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_flat_as_the_grids_refine():
    # N_ref 2^12 -> 2^14 with every N scaled by the same factor: the
    # whole-horizon engine's peak grows about fourfold (1.8 -> 7.1 MB)
    def config(n_ref, Ns, M=200):
        return ConvergenceConfig(model="ginzburg-landau",
                                 scheme=SchemeKind.STOPPED_BIT, Ns=Ns, M=M,
                                 seed=1, reference="fine", N_ref=n_ref)
    strong_error(config(128, (16,), M=10))  # one-time allocations
    Ns = (16, 32, 64, 128)
    small = _peak_traced_bytes(config(2**12, Ns))
    scaled = _peak_traced_bytes(config(2**14, tuple(4 * n for n in Ns)))
    assert scaled <= 1.25 * small, (small, scaled)
    # partial increment sums carried across chunks bound it at fixed Ns too
    fixed = _peak_traced_bytes(config(2**14, Ns))
    assert fixed <= 1.25 * small, (small, fixed)


def _peak_bytes(fn) -> int:
    # with the collector off: a full collection empties CPython's free
    # lists, so every object made after it is traced as a new allocation,
    # and one falling inside a run (as earlier tests' counters decide) added
    # ~7 kB to its peak.  The estimators make no reference cycles, so
    # nothing is held longer.
    gc.disable()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


GL = catalog()["ginzburg-landau"].model

# every estimator that draws through Brownian streams, on an N-step grid:
# M = 200 paths are one block
STREAMED_AT_N = {
    "stopping": lambda N, out: stopping_probability(
        GL, GridSpec(1.0, N), 200, 3, [1.0]),
    "exp-moment-estimate": lambda N, out: exp_moment_estimate(
        GL, GL.lyapunov, GridSpec(1.0, N), 200, 3, [1.0]),
    "simulate": lambda N, out: cli.main(
        ["simulate", "--model", "ginzburg-landau", "--N", str(N), "--M", "200",
         "--seed", "3", "--output", str(out / f"{N}.json")]),
    "moment-sweep": lambda N, out: experiments.moment_sweep(
        GL, GL.lyapunov, (16, N), 200, 3, [1.0]),
    "divergence": lambda N, out: experiments.divergence_comparison(
        GL, (4, N), 200, [5.0], 3),
}


@pytest.mark.parametrize("name", STREAMED_AT_N)
def test_streamed_estimators_memory_is_flat_in_N(monkeypatch, tmp_path, name):
    # a 20-step lookahead window makes N = 256 and 1024 both many windows;
    # drawing each block's whole horizon in one piece grows the peak with N
    monkeypatch.setattr(brownian, "_LOOKAHEAD_VALUES", 1 << 12)
    run = STREAMED_AT_N[name]
    run(64, tmp_path)  # one-time allocations stay out of the comparison
    small = _peak_bytes(lambda: run(256, tmp_path))
    large = _peak_bytes(lambda: run(1024, tmp_path))
    assert large <= 1.05 * small, (small, large)


# (block paths, N, smaller M, larger M, node arrays the peak may grow by)
# of strong_error, whose partial is an (N + 1)-float node array: ten
# batches of 50 paths, one block each, of which five take a second,
# one-path block at M = 505.  On two threads its 10 blocks
# become 30: the pool's map makes a small future per block up front (2.5
# to 4.4 node arrays for the 20 more), and handing back a list of every
# block's result grew the peak by 21 to 25 node arrays
TOTALS_IN_M = {
    "strong-error": ((50, 1024, 500, 505, 1), lambda N, M: strong_error(
        ConvergenceConfig(model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=(N,),
                          M=M, seed=1))),
    "strong-error-threads": ((50, 1024, 500, 1500, 8), lambda N, M: strong_error(
        ConvergenceConfig(model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=(N,),
                          M=M, seed=1, threads=2))),
}


@pytest.mark.parametrize("name", TOTALS_IN_M)
def test_block_partials_are_added_as_they_come(monkeypatch, name):
    # holding every block's partial until the last block ends grew the peak
    # by one node array per block past a batch's first; added into the
    # batch's total as each block ends, they leave it flat in M.  Small
    # blocks make many of them cheap, and a collection before each run
    # starts both from the same free lists.
    (block_paths, N, small_M, large_M, arrays), run = TOTALS_IN_M[name]
    monkeypatch.setattr(core, "BLOCK_PATHS", block_paths)
    run(N, small_M)  # one-time allocations stay out of the comparison
    gc.collect()
    small = _peak_bytes(lambda: run(N, small_M))
    gc.collect()
    large = _peak_bytes(lambda: run(N, large_M))
    assert large - small < arrays * 8 * (N + 1), (small, large)


# every estimator, on a grid of eight chunks of 32 steps, and strong_error
# with either reference
DRIVEN = {**{name: functools.partial(run, 256) for name, run in STREAMED_AT_N.items()},
          "strong-error-fine": lambda out: strong_error(ConvergenceConfig(
              model="ginzburg-landau", scheme=SchemeKind.STOPPED_BIT,
              Ns=(16, 64), M=20, seed=1, reference="fine", N_ref=512)),
          "strong-error-exact": lambda out: strong_error(ConvergenceConfig(
              model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=(16, 256), M=20,
              seed=1))}


@pytest.mark.parametrize("name", DRIVEN)
def test_reducers_drop_each_step_before_the_next(monkeypatch, tmp_path, name):
    # a reducer's loop names hold the run and chunk it was handed while the
    # driver steps the next run, unless it drops them first: then of the
    # earlier runs' states only the fine reference's are alive when a run
    # steps, and no earlier chunk when one is drawn
    states, chunks = [], []
    draw = BlockStream.draw

    def stepped(*args):
        assert sum(ref() is not None for ref in states) <= 1
        run = run_paths(*args)
        states.append(weakref.ref(run.states))
        return run

    def drawn(stream, n):
        assert all(ref() is None for ref in chunks)
        fine = draw(stream, n)
        chunks.append(weakref.ref(fine))
        return fine

    monkeypatch.setattr(diagnostics, "run_paths", stepped)
    monkeypatch.setattr(BlockStream, "draw", drawn)
    DRIVEN[name](tmp_path)
    assert len(states) >= len(chunks) > 1


# ---------------------------------------------------------------------------
# the sliced serial estimators


def whole_blocks(kind, model, grid, x0, M, seed):
    """Each path block run over the whole horizon in one run_paths call,
    with its increments: (lo, runs, dw) per block."""
    for [(_, lo, hi)] in path_blocks(M):
        dw = generate_block(grid.T, grid.N, model.m, seed, lo, hi - lo)
        yield lo, run_paths(kind, model, grid, x0, dw), dw


def functional_at_n(spec, runs):
    """The exponential-moment functional of whole runs at the last node N,
    the integral summed one node after another."""
    h = runs.grid.h
    N = runs.grid.N
    tau = runs.tau_index
    integral = np.zeros(len(runs))
    for j in range(N):
        live = (tau > j).astype(float)
        integral = integral + (live * math.exp(-spec.rho * j * h)
                               * spec.U_bar(runs.states[:, j]) * h)
    with np.errstate(over="ignore"):
        vals = np.exp(np.exp(-spec.rho * (np.minimum(N, tau) * h))
                      * spec.U(runs.states[:, N]) + integral)
    return np.minimum(vals, OVERFLOW_CAP)


def _wavy(spec):
    """``spec`` with a nonzero, sign-changing U_bar, so the integral counts."""
    return dataclasses.replace(
        spec, U_bar=lambda x: np.cos(3.0 * np.sum(x, axis=-1)) + 0.25)


# (model, x0, scheme, N, M): N < 32 is one chunk, N = 100 ends in a short
# chunk, N = 1024 is 32 chunks; 2500 paths are three blocks; from 20 the
# Euler-Maruyama paths overflow, and every stopped path starts outside the
# threshold, so tau = 0; from 8 the paths start inside the N = 100
# threshold (8.55) but outside that of a 64-step grid (7.70)
SLICE_CASES = [
    ("ginzburg-landau", [1.0], SchemeKind.STOPPED_BIT, 16, 37),
    ("ginzburg-landau", [1.0], SchemeKind.STOPPED_BIT, 100, 2500),
    ("ginzburg-landau", [1.0], SchemeKind.STOPPED_BIT, 1024, 200),
    ("ginzburg-landau", [20.0], SchemeKind.EULER_MARUYAMA, 100, 60),
    ("ginzburg-landau", [20.0], SchemeKind.STOPPED_BIT, 100, 40),
    ("ginzburg-landau", [8.0], SchemeKind.STOPPED_BIT, 100, 30),
    ("vdp", [3.0, -2.0], SchemeKind.EULER_MARUYAMA, 100, 50),
]
SLICE_IDS = [f"{c[0]}-x{c[1][0]:g}-{c[2].value}-N{c[3]}-M{c[4]}"
             for c in SLICE_CASES]


def _case(name, N):
    return catalog()[name].model, GridSpec(1.0, N)


def test_slice_cases_reach_the_edges():
    gl = catalog()["ginzburg-landau"].model
    with np.errstate(over="ignore"):
        em = run_paths(SchemeKind.EULER_MARUYAMA, gl, GridSpec(1.0, 100), [20.0],
                       generate_block(1.0, 100, 1, 0, 0, 60))
    assert em.overflow.all()
    outside = run_paths(SchemeKind.STOPPED_BIT, gl, GridSpec(1.0, 100), [20.0],
                        generate_block(1.0, 100, 1, 0, 0, 40))
    assert (outside.tau_index == 0).all()


@pytest.mark.parametrize("wavy", (False, True))
@pytest.mark.parametrize("name,x0,kind,N,M", SLICE_CASES, ids=SLICE_IDS)
def test_sliced_exp_moment_estimate_equals_whole_horizon(name, x0, kind, N, M,
                                                         wavy):
    # the exponential-moment estimators step the stopped scheme whatever the
    # case's kind, as stopping_probability does: each case gives its model,
    # start and grid, so the Euler-Maruyama starts are stopped runs from
    # outside the threshold and in two dimensions
    model, grid = _case(name, N)
    spec = _wavy(model.lyapunov) if wavy else model.lyapunov
    vals = np.concatenate([
        functional_at_n(spec, runs)
        for _, runs, _ in whole_blocks(SchemeKind.STOPPED_BIT, model, grid,
                                       x0, M, 5)])
    est = exp_moment_estimate(model, spec, grid, M, 5, x0)
    assert est.estimate == float(np.mean(vals))
    assert est.stderr == float(np.std(vals, ddof=1) / math.sqrt(M))
    assert est.saturated_fraction == float(np.mean(vals >= OVERFLOW_CAP))


@pytest.mark.parametrize("slice_steps", SLICE_STEPS[1:])
@pytest.mark.parametrize("wavy", (False, True))
@pytest.mark.parametrize("name,x0,kind,N,M", SLICE_CASES, ids=SLICE_IDS)
def test_sliced_exp_moment_estimate_equals_whole_horizon_at_other_slices(
        monkeypatch, name, x0, kind, N, M, wavy, slice_steps):
    # 16 steps a chunk split N = 16 nowhere and end N = 100 in a chunk of
    # 4; one step a chunk carries the integral across every node
    monkeypatch.setattr(diagnostics, "_SLICE_STEPS", slice_steps)
    test_sliced_exp_moment_estimate_equals_whole_horizon(name, x0, kind, N, M,
                                                         wavy)


@pytest.mark.parametrize("N", (diagnostics._SLICE_STEPS, 1000, 1024))
def test_exp_moment_estimate_draws_and_steps_n_per_path(monkeypatch, N):
    # each of the two blocks draws all N steps of its stream and steps each
    # of them once: N per path, in chunks of 32 steps and a short last one
    # when 32 does not divide N
    model, grid = _case("ginzburg-landau", N)
    M = 1100
    drawn, stepped = [], []
    draw = BlockStream.draw

    def counting_draw(stream, n_steps):
        drawn.append(n_steps * len(stream._buf))
        return draw(stream, n_steps)

    def counting_run_paths(kind, model, grid, x0, dW):
        stepped.append(dW.shape[0] * dW.shape[1])
        return run_paths(kind, model, grid, x0, dW)

    monkeypatch.setattr(BlockStream, "draw", counting_draw)
    monkeypatch.setattr(diagnostics, "run_paths", counting_run_paths)
    exp_moment_estimate(model, model.lyapunov, grid, M, 5, [1.0])
    assert sum(drawn) == sum(stepped) == M * N
    assert len(drawn) == len(stepped) == 2 * -(-N // diagnostics._SLICE_STEPS)


@pytest.mark.parametrize("name,x0,kind,N,M", SLICE_CASES, ids=SLICE_IDS)
def test_sliced_stopping_probability_equals_whole_horizon(name, x0, kind, N, M):
    model, grid = _case(name, N)
    taus = np.concatenate([
        runs.tau_index for _, runs, _ in
        whole_blocks(SchemeKind.STOPPED_BIT, model, grid, x0, M, 7)])
    p_hat = float(np.sum(taus < N)) / M
    rep = stopping_probability(model, grid, M, 7, x0)
    assert (rep.estimate, rep.stderr) == (p_hat, math.sqrt(p_hat * (1 - p_hat) / M))


@pytest.mark.parametrize("slice_steps", SLICE_STEPS[1:])
@pytest.mark.parametrize("name,x0,kind,N,M", SLICE_CASES, ids=SLICE_IDS)
def test_sliced_stopping_probability_equals_whole_horizon_at_other_slices(
        monkeypatch, name, x0, kind, N, M, slice_steps):
    # a path stopped in one chunk stays stopped through every later one
    monkeypatch.setattr(diagnostics, "_SLICE_STEPS", slice_steps)
    test_sliced_stopping_probability_equals_whole_horizon(name, x0, kind, N, M)


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("name,x0,kind,N,M", SLICE_CASES, ids=SLICE_IDS)
def test_sliced_simulate_equals_whole_horizon(capsys, name, x0, kind, N, M, fmt):
    model, grid = _case(name, N)
    blocks = list(whole_blocks(kind, model, grid, x0, M, 9))
    final = np.concatenate([runs.states[:, -1] for _, runs, _ in blocks])
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.einsum("bd,bd->b", final, final))
    norms = np.minimum(np.nan_to_num(norms, nan=OVERFLOW_CAP,
                                     posinf=OVERFLOW_CAP), OVERFLOW_CAP)
    expected = {
        "final_norm_mean": float(np.mean(norms)),
        "stopped_fraction": float(np.mean(np.concatenate(
            [runs.tau_index for _, runs, _ in blocks]) < N)),
        "overflow_fraction": float(np.mean(np.concatenate(
            [runs.overflow for _, runs, _ in blocks]))),
    }
    assert cli.main(["simulate", "--model", name, "--scheme", kind.value,
                     "--N", str(N), "--M", str(M), "--seed", "9",
                     "--x0=" + ",".join(map(str, x0)), "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        got = json.loads(out)
    else:
        header, row = out.splitlines()
        got = {k: float(v) for k, v in zip(header.split(","), row.split(","))
               if k in expected}
    assert {k: got[k] for k in expected} == expected
