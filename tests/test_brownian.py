import io
import math
import re

import numpy as np
import pytest

from biteuler import brownian
from biteuler.brownian import (BlockStream, BrownianGrid, coarsen_increments,
                               dump_increments, generate_block, generate_path,
                               load_increments)


def test_same_key_reproduces_exactly():
    a = generate_path(1.0, 64, 2, seed=7, path_index=3)
    b = generate_path(1.0, 64, 2, seed=7, path_index=3)
    np.testing.assert_array_equal(a.increments, b.increments)


def test_distinct_paths_differ():
    a = generate_path(1.0, 64, 1, seed=7, path_index=0)
    b = generate_path(1.0, 64, 1, seed=7, path_index=1)
    assert not np.array_equal(a.increments, b.increments)


# (seed, first path) of four consecutive paths: both ends of the seed range,
# and a block that ends at the last path index
KEY_EXTREMES = [(5, 10), (0, 0), (2**64 - 1, 10), (7, 2**64 - 4)]


@pytest.mark.parametrize("seed,first", KEY_EXTREMES)
def test_block_rows_match_single_paths(seed, first):
    block = generate_block(2.0, 32, 2, seed=seed, first_path=first, count=4)
    for j in range(4):
        single = generate_path(2.0, 32, 2, seed=seed, path_index=first + j)
        assert block[j].tobytes() == single.increments.tobytes()
        # the documented key: the 128-bit value seed * 2**64 + path_index
        gen = np.random.Generator(np.random.Philox(key=(seed << 64) + first + j))
        assert (gen.standard_normal((32, 2)) * 0.25).tobytes() == block[j].tobytes()




@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("seed,first", [(5, 10), (2**64 - 1, 2**64 - 4)])
def test_coarser_grids_draw_a_prefix_of_the_unit_normals(seed, first, m):
    # the rule that lets a sweep draw each block once, at its largest N: the
    # last block ends at seed and path index 2**64 - 1
    n = 96
    z = generate_block(n, n, m, seed=seed, first_path=first, count=4)
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) + first))
    assert gen.standard_normal((n, m)).tobytes() == z[0].tobytes()  # scale 1.0
    for N in (1, 7, 48, 95, 96):
        coarse = generate_block(2.5, N, m, seed=seed, first_path=first, count=4)
        assert (z[:, :N] * math.sqrt(2.5 / N)).tobytes() == coarse.tobytes()


@pytest.mark.parametrize("seed,index", [(0, 0), (2**64 - 1, 0), (5, 2**64 - 1),
                                        (2**64 - 1, 2**64 - 1)])
def test_path_generator_is_philox_keyed_by_the_path_key(seed, index):
    fast = brownian._path_generator(seed, index)
    plain = np.random.Generator(np.random.Philox(key=brownian._path_key(seed, index)))
    assert repr(fast.bit_generator.state) == repr(plain.bit_generator.state)
    assert fast.standard_normal(1001).tobytes() == plain.standard_normal(1001).tobytes()
    assert repr(fast.bit_generator.state) == repr(plain.bit_generator.state)


@pytest.mark.parametrize("seed", (0, 7, 2**64 - 1))
def test_seed_generator_is_philox_keyed_by_the_seed(seed):
    # the sampled checks' generator: Philox(key=seed), key words [seed, 0]
    ours = brownian._seed_generator(seed)
    plain = np.random.Generator(np.random.Philox(key=seed))
    assert ours.standard_normal(1001).tobytes() == plain.standard_normal(1001).tobytes()
    assert repr(ours.bit_generator.state) == repr(plain.bit_generator.state)


@pytest.mark.parametrize("seed", (-1, 2**64))
def test_seed_generator_names_the_seed_out_of_range(seed):
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
        brownian._seed_generator(seed)


def test_single_increment_distribution():
    # N_fine = 1: one increment ~ Normal(0, T)
    vals = generate_block(4.0, 1, 1, seed=1, first_path=0, count=50000)[:, 0, 0]
    assert abs(vals.mean()) < 4 * 2.0 / math.sqrt(50000)
    assert abs(vals.var() - 4.0) < 4 * 4.0 * math.sqrt(2.0 / 50000)


def test_increment_variance_matches_step():
    # chi-square concentration: sample variance of each of the 4 increments
    # within 3 standard errors of T/N_fine = 0.25
    M = 100000
    block = generate_block(1.0, 4, 1, seed=9, first_path=0, count=M)[:, :, 0]
    se = 0.25 * math.sqrt(2.0 / (M - 1))
    for k in range(4):
        assert abs(block[:, k].var(ddof=1) - 0.25) < 3 * se


def test_pooled_gaussianity():
    vals = generate_block(1.0, 10, 1, seed=33, first_path=0, count=100000)
    z = (vals / math.sqrt(0.1)).ravel()
    n = z.size
    skew = np.mean(z**3)
    kurt = np.mean(z**4)
    assert abs(skew) < 4 * math.sqrt(6.0 / n)
    assert abs(kurt - 3.0) < 4 * math.sqrt(24.0 / n)


def test_coarsen_identity_and_total():
    path = generate_path(1.0, 8, 2, seed=2, path_index=0)
    np.testing.assert_array_equal(coarsen_increments(path.increments, 8),
                                  path.increments)
    total = coarsen_increments(path.increments, 1)[0]
    np.testing.assert_allclose(total, path.increments.sum(axis=0), rtol=1e-14)


def test_coarsen_blocks_are_sums():
    # direct summation oracle
    path = generate_path(1.0, 8, 1, seed=2, path_index=5)
    coarse = coarsen_increments(path.increments, 2)
    oracle0 = np.sum(path.increments[0:4], axis=0)
    oracle1 = np.sum(path.increments[4:8], axis=0)
    np.testing.assert_allclose(coarse[0], oracle0, rtol=1e-14, atol=1e-300)
    np.testing.assert_allclose(coarse[1], oracle1, rtol=1e-14, atol=1e-300)


def test_coarsen_telescoping_bitwise():
    # chain property for power-of-two ratios is exact, not approximate
    path = generate_path(3.0, 256, 3, seed=21, path_index=1)
    direct = coarsen_increments(path.increments, 8)
    for mid in (128, 64, 32):
        via = coarsen_increments(coarsen_increments(path.increments, mid), 8)
        np.testing.assert_array_equal(via, direct)


def test_coarsen_rejects_non_divisor():
    path = generate_path(1.0, 8, 1, seed=2, path_index=0)
    with pytest.raises(ValueError):
        coarsen_increments(path.increments, 3)


# the largest key: a signed header rejected every seed from 2**63 on
@pytest.mark.parametrize("seed,index", [(123, 9), (2**64 - 1, 2**64 - 1)])
def test_dump_load_round_trip(seed, index):
    path = generate_path(2.5, 32, 3, seed=seed, path_index=index)
    buf = io.BytesIO()
    dump_increments(path, buf)
    buf.seek(0)
    back = load_increments(buf)
    assert back.T == path.T and back.N_fine == path.N_fine
    assert back.m == path.m and back.seed == path.seed
    assert back.path_index == path.path_index
    np.testing.assert_array_equal(back.increments, path.increments)


def test_dump_load_file_round_trip(tmp_path):
    path = generate_path(1.0, 8, 1, seed=1, path_index=0)
    fname = str(tmp_path / "path.bin")
    dump_increments(path, fname)
    back = load_increments(fname)
    np.testing.assert_array_equal(back.increments, path.increments)


def test_dump_writes_the_documented_little_endian_layout():
    # the header T, N_fine, m, seed, path_index as little-endian float64,
    # int64, int64, uint64 and uint64, then the increments as float64
    path = generate_path(1.0, 2, 1, seed=2**64 - 1, path_index=5)
    buf = io.BytesIO()
    dump_increments(path, buf)
    words = [2, 1, 2**64 - 1, 5]
    assert buf.getvalue() == (bytes.fromhex("000000000000f03f")  # 1.0
                              + b"".join(w.to_bytes(8, "little") for w in words)
                              + path.increments.astype("<f8").tobytes())


def _path_file(T=1.0, N_fine=4, m=1, seed=0, path_index=0, n_values=4):
    return io.BytesIO(brownian._HEADER.pack(T, N_fine, m, seed, path_index)
                      + np.zeros(n_values).tobytes())


@pytest.mark.parametrize("data,message", [
    (b"", "a path file starts with a 40-byte header, got 0 bytes"),
    (b"\0" * 39, "a path file starts with a 40-byte header, got 39 bytes"),
    (_path_file(T=-1.0).getvalue(), "T must be > 0, got -1.0"),
    (_path_file(T=math.nan).getvalue(), "T must be > 0, got nan"),
    (_path_file(N_fine=0, n_values=0).getvalue(),
     "N_fine must be >= 1, got 0"),
    (_path_file(N_fine=-3, n_values=0).getvalue(),
     "N_fine must be >= 1, got -3"),
    (_path_file(m=0, n_values=0).getvalue(), "m must be >= 1, got 0"),
    (_path_file(n_values=3).getvalue(),
     "a path file's header promises 32 bytes of increments, got 24"),
    (_path_file(n_values=5).getvalue(),
     "a path file's header promises 32 bytes of increments, got 40")],
    ids=["empty", "short-header", "T=-1", "T=nan", "N_fine=0", "N_fine=-3",
         "m=0", "short", "long"])
def test_load_checks_a_path_file_as_a_drawn_path(data, message):
    # an empty file raised struct.error; T = -1 and N_fine = 0 were loaded,
    # and bytes past the increments were ignored.  The header is checked
    # before the size it promises is trusted: N_fine = -3 promises -24 bytes
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_increments(io.BytesIO(data))
    assert load_increments(_path_file()).increments.shape == (4, 1)


@pytest.mark.parametrize("arg,value,message", [
    ("T", math.nan, "T must be > 0, got nan"),
    ("T", math.inf, "T must be finite, got inf"),
    ("N_fine", 0, "N_fine must be >= 1, got 0"),
    ("seed", -1, "seed must be in [0, 2**64), got -1"),
    ("path_index", 2**64, f"path_index must be in [0, 2**64), got {2**64}")])
def test_brownian_grid_checks_its_grid_and_key(arg, value, message):
    # each was constructed
    args = dict(T=1.0, N_fine=1, m=1, seed=0, path_index=0,
                increments=np.zeros((1, 1)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BrownianGrid(**{**args, arg: value})


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        BrownianGrid(T=1.0, N_fine=4, m=2, seed=0, path_index=0,
                     increments=np.zeros((4, 1)))


# (argument, bad value): N_fine = 0 used to divide by zero, count = -1 made
# an empty stream, m = 0 empty arrays and T < 0 a math domain error; seeds
# were masked to 64 bits, so 2**64 ran seed 0's paths and -1 seed 2**64 - 1's
BAD_GRIDS = [("N_fine", 0), ("N_fine", -3), ("count", -1), ("m", 0),
             ("T", 0.0), ("T", -1.0), ("T", math.nan), ("seed", -1),
             ("seed", 2**64)]


def _draw_args(make, **args):
    """``make``'s arguments for a draw of 3 paths of 8 steps, updated by
    ``args``: BlockStream draws unit normals and takes no T."""
    base = dict(N_fine=8, m=1, seed=0, first_path=0, count=3)
    if make is generate_block:
        base["T"] = 1.0
    return {**base, **args}


@pytest.mark.parametrize("make,arg,value", [
    (make, arg, value) for make in (generate_block, BlockStream)
    for arg, value in BAD_GRIDS if arg in _draw_args(make)])
def test_block_draws_reject_bad_grids(make, arg, value):
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        make(**_draw_args(make, **{arg: value}))


@pytest.mark.parametrize("first", (-1, 2**64 - 2))
@pytest.mark.parametrize("make", (generate_block, BlockStream))
def test_block_draws_reject_path_indices_outside_64_bits(make, first):
    # first = 2**64 - 2 with three paths reaches path index 2**64
    with pytest.raises(ValueError, match="^path_index must be in"):
        make(**_draw_args(make, first_path=first))


@pytest.mark.parametrize("budget", (brownian._LOOKAHEAD_VALUES, 4))
@pytest.mark.parametrize("arg,value,name", [
    ("seed", -1, "seed"), ("seed", 2**64, "seed"),
    ("first_path", -1, "path_index"), ("first_path", 2**64, "path_index")])
@pytest.mark.parametrize("make", (generate_block, BlockStream))
def test_empty_block_draws_check_the_seed_and_first_path(monkeypatch, make,
                                                         arg, value, name,
                                                         budget):
    # count = 0 used to skip the key checks and return an empty draw; a
    # 4-value budget splits the stream's 8 steps into two windows
    monkeypatch.setattr(brownian, "_LOOKAHEAD_VALUES", budget)
    args = _draw_args(make, count=0)
    with pytest.raises(ValueError, match=f"^{name} must be in"):
        make(**{**args, arg: value})
    # the last seed and path index start an empty block
    make(**{**args, "seed": 2**64 - 1, "first_path": 2**64 - 1})


@pytest.mark.parametrize("arg,value", [c for c in BAD_GRIDS if c[0] != "count"]
                         + [("path_index", -1), ("path_index", 2**64)])
def test_generate_path_rejects_bad_grids(arg, value):
    args = dict(T=1.0, N_fine=8, m=1, seed=0, path_index=0)
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        generate_path(**{**args, arg: value})
