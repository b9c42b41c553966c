"""Property tests of the taming map, the shared scheme kernel, the path-block
layout, the chained coarsening and the Brownian lookahead.

Hypothesis draws the seeds, starts, grids and schemes; every property is
an exact identity, so the comparisons are bit for bit.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biteuler import brownian
from biteuler.brownian import (BlockStream, coarsen_increments, generate_block,
                               generate_path)
from biteuler.core import BLOCK_PATHS, GridSpec, path_blocks
from biteuler.diagnostics import _coarsen_levels
from biteuler.models import catalog
from biteuler.schemes import SchemeKind, interpolate, run_path, run_paths
from biteuler.taming import TamingParams, tame

MODELS = ("gbm", "ginzburg-landau", "vdp")

# starts away from zero (a -0.0 start becomes +0.0 after one update, so the
# s = 0 interpolant would differ from it in the sign bit only) and small
# enough that no scheme overflows on the grids drawn below
starts = st.lists(st.floats(-2.0, 2.0).filter(lambda v: v != 0.0),
                  min_size=2, max_size=2)
seeds = st.integers(0, 2**32 - 1)


@settings(deadline=None, max_examples=50)
@given(x=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
       h=st.floats(1e-8, 1e2))
def test_tame_is_odd_and_bounded(x, h):
    x = np.array(x)
    params = TamingParams(h=h, m=len(x))
    pi = tame(params, x)
    assert tame(params, -x).tobytes() == (-pi).tobytes()
    assert (np.abs(pi) <= h**0.25).all()


@settings(deadline=None, max_examples=25)
@given(name=st.sampled_from(MODELS), kind=st.sampled_from(list(SchemeKind)),
       x0=starts, seed=seeds, log_n=st.integers(3, 6),
       refine=st.sampled_from((1, 2, 4)), j=st.integers(0, 4))
def test_run_path_equals_its_row_of_run_paths(name, kind, x0, seed, log_n,
                                              refine, j):
    model = catalog()[name].model
    x0 = x0[:model.d]
    N = 2**log_n
    grid = GridSpec(1.0, N)
    fine = generate_block(1.0, refine * N, model.m, seed, 0, 5)
    runs = run_paths(kind, model, grid, x0, coarsen_increments(fine, N))
    one = run_path(kind, model, grid, x0,
                   generate_path(1.0, refine * N, model.m, seed, j))
    row = runs.path(j)
    assert one.states.tobytes() == row.states.tobytes()
    assert (one.tau_index, one.frozen, one.overflow) == \
        (row.tau_index, row.frozen, row.overflow)


@settings(deadline=None, max_examples=25)
@given(name=st.sampled_from(MODELS), x0=starts, seed=seeds,
       log_n=st.integers(5, 7))
def test_interpolate_hits_both_nodes_of_every_step(name, x0, seed, log_n):
    model = catalog()[name].model
    x0 = x0[:model.d]
    grid = GridSpec(1.0, 2**log_n)
    path = generate_path(1.0, grid.N, model.m, seed, 0)
    for kind in SchemeKind:
        run = run_path(kind, model, grid, x0, path)
        assert not run.overflow
        for k in range(grid.N):
            left = interpolate(kind, model, grid, run, k, 0.0,
                               np.zeros(model.m))
            assert left.tobytes() == run.states[k].tobytes()
            right = interpolate(kind, model, grid, run, k, grid.h,
                                path.increments[k])
            assert right.tobytes() == run.states[k + 1].tobytes()


@settings(deadline=None, max_examples=200)
@given(M=st.integers(1, 30000), n_batches=st.integers(1, 25))
def test_path_blocks_partition_the_paths_in_order(M, n_batches):
    blocks = path_blocks(M, n_batches)
    segs = [seg for blk in blocks for seg in blk]
    assert all(lo < hi for _, lo, hi in segs)
    # consecutive segments abut, from path 0 to path M, batches in order
    assert [lo for _, lo, _ in segs] == [0] + [hi for _, _, hi in segs[:-1]]
    assert segs[-1][2] == M
    assert [b for b, _, _ in segs] == sorted(b for b, _, _ in segs)
    assert all(sum(hi - lo for _, lo, hi in blk) <= BLOCK_PATHS
               for blk in blocks)


@settings(deadline=None, max_examples=200)
@given(M=st.integers(1, 30000), n_batches=st.integers(1, 25))
def test_path_blocks_cut_a_batch_only_at_block_offsets(M, n_batches):
    for blk in path_blocks(M, n_batches):
        for b, lo, hi in blk:
            # batch b holds paths [start, end): near-equal batches
            start, end = (round(c * M / n_batches) for c in (b, b + 1))
            assert (lo - start) % BLOCK_PATHS == 0
            assert hi == min(lo + BLOCK_PATHS, end)


@settings(deadline=None, max_examples=50)
@given(log_fine=st.integers(0, 9), m=st.integers(1, 2), seed=seeds,
       data=st.data())
def test_coarsen_levels_equal_direct_coarsening_on_ladders(log_fine, m, seed, data):
    ladder = data.draw(st.lists(st.integers(0, log_fine), min_size=1,
                                max_size=log_fine + 1))
    counts = [2**j for j in ladder]
    fine = generate_block(1.0, 2**log_fine, m, seed, 0, 3)
    levels = _coarsen_levels(fine, counts)
    for n in counts:
        assert levels[n].tobytes() == coarsen_increments(fine, n).tobytes()


@settings(deadline=None, max_examples=100)
@given(m=st.integers(1, 3), count=st.integers(0, 4), n_fine=st.integers(1, 40),
       seed=seeds, data=st.data())
def test_block_stream_chunks_equal_generate_block_for_any_lookahead(
        m, count, n_fine, seed, data):
    # lookahead budgets of one value, of less than one step, of a width
    # that need not divide the steps left, and of more than the horizon
    values = max(count * m, 1)
    budget = data.draw(st.one_of(st.just(1), st.integers(1, m),
                                 st.integers(1, 3 * n_fine * values)))
    cuts = sorted(data.draw(st.lists(st.integers(0, n_fine), max_size=8)))
    with mock.patch.object(brownian, "_LOOKAHEAD_VALUES", budget):
        stream = BlockStream(1.5, n_fine, m, seed, 3, count)
        parts = [stream.draw(int(n)) for n in np.diff([0, *cuts, n_fine])]
    whole = generate_block(1.5, n_fine, m, seed, 3, count)
    assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()
