"""Reproducible Brownian increments on nested uniform grids.

Each path is an independent counter-based stream: increments are a pure
function of (seed, path_index), generated from a Philox4x64 generator keyed
with the 128-bit value seed * 2**64 + path_index and numpy's ziggurat
``standard_normal``; ``_path_key`` builds the key, and rejects a seed or
path index outside [0, 2**64), so distinct pairs never share a stream.
Path j therefore never depends on how many other paths were generated or
in which order, which is what makes ensemble runs deterministic under
arbitrary parallel scheduling.  ``generate_path`` is ``generate_block``'s
one-path case, and ``BlockStream`` draws the same values in time chunks,
holding at most one bounded lookahead window of them: a horizon that fits
the window is drawn by one ``generate_block`` call, a longer one by one
generator per path, each continuing where its last window ended.

Nor does a path's stream depend on how many steps are drawn from it: the
first N values of a longer draw are the N-value draw.  So for N <= n,
``generate_block(T, N, ...)`` equals ``generate_block(n, n, ...)[:, :N]``
(unit-variance normals: the scale sqrt(n / n) is exactly 1.0 and is not
applied) times ``math.sqrt(T / N)``, bit for bit: one stream of the finest
grid's unit normals serves every coarser grid of a sweep, chunk by chunk.

Coarsening sums adjacent increments by repeated pairwise halving, so for
power-of-two ratios the chain property holds bit-for-bit: coarsening to N_b
and then to N_a equals coarsening directly to N_a.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BrownianGrid",
    "generate_path",
    "generate_block",
    "BlockStream",
    "coarsen_increments",
    "dump_increments",
    "load_increments",
]

def _path_key(seed: int, path_index: int) -> np.ndarray:
    """Philox key of path ``path_index``'s stream: the 128-bit value
    seed * 2**64 + path_index as two little-endian 64-bit words.  Raises
    ValueError, naming the argument, unless both lie in [0, 2**64), and
    TypeError unless both are integers."""
    for name, value in (("seed", seed), ("path_index", path_index)):
        if not 0 <= operator.index(value) < 1 << 64:
            raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return np.array([path_index, seed], dtype=np.uint64)


@functools.cache
def _key_sequence() -> type:
    """A minimal ISeedSequence that hands Philox a ready key: Philox(key=...)
    first seeds a SeedSequence from OS entropy and then ignores it, which
    costs about three times the rest of the setup.  Built on first use, as
    subclassing at import would load numpy.random with the package."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its two uint64 key words

    return KeySequence


def _path_generator(seed: int, path_index: int) -> np.random.Generator:
    """A generator at the start of path ``path_index``'s stream: the stream
    of ``Philox(key=_path_key(seed, path_index))``."""
    key = _key_sequence()(_path_key(seed, path_index))
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class BrownianGrid:
    """Seeded Brownian increments of one path on the finest grid.

    ``increments`` has shape (N_fine, m); entry k is W_{(k+1)h} - W_{kh}
    with h = T/N_fine, distributed Normal(0, h*I_m) under the stream of
    (seed, path_index).
    """

    T: float
    N_fine: int
    m: int
    seed: int
    path_index: int
    increments: np.ndarray

    def __post_init__(self):
        if self.increments.shape != (self.N_fine, self.m):
            raise ValueError("increments must have shape (N_fine, m)")


def _check_grid(T: float, N_fine: int, m: int, count: int = 0) -> None:
    """Raise ValueError, naming the argument, unless T > 0, N_fine >= 1,
    m >= 1 and count >= 0."""
    if not T > 0:
        raise ValueError(f"T must be > 0, got {T}")
    if N_fine < 1:
        raise ValueError(f"N_fine must be >= 1, got {N_fine}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")


def generate_path(T: float, N_fine: int, m: int, seed: int, path_index: int) -> BrownianGrid:
    """Generate one path's fine-grid increments, deterministically: row 0
    of ``generate_block(T, N_fine, m, seed, path_index, 1)``.

    The result depends only on (seed, path_index); calling twice returns
    identical arrays.
    """
    incr = generate_block(T, N_fine, m, seed, path_index, 1)[0]
    return BrownianGrid(T=T, N_fine=N_fine, m=m, seed=seed,
                        path_index=path_index, increments=incr)


def _check_paths(seed: int, first_path: int, count: int) -> None:
    """Raise as ``_path_key`` does unless the keys of paths [first_path,
    first_path+count) all lie in range: the first and last are checked
    (the first alone when count is 0), and every key between them then
    lies in range too."""
    _path_key(seed, first_path)
    _path_key(seed, first_path + max(count, 1) - 1)


def generate_block(T: float, N_fine: int, m: int, seed: int,
                   first_path: int, count: int) -> np.ndarray:
    """Increments of paths [first_path, first_path+count) as one (count, N_fine, m)
    array: row j is path first_path + j's stream.  Raises ValueError for a
    seed or path index outside [0, 2**64) before any draw, also when
    count is 0."""
    _check_grid(T, N_fine, m, count)
    _check_paths(seed, first_path, count)
    out = np.empty((count, N_fine, m))
    if count:
        # one generator per call (never shared between threads) is reset
        # to each path's stream by writing the path word of its key into
        # one start state: much cheaper than constructing one per path
        gen = _path_generator(seed, first_path)
        start = gen.bit_generator.state
        for j, row in enumerate(out):
            start["state"]["key"][0] = first_path + j
            gen.bit_generator.state = start
            gen.standard_normal(out=row)
    scale = math.sqrt(T / N_fine)
    if scale != 1.0:  # x * 1.0 is x for every float: unit normals skip it
        out *= scale
    return out


# values per lookahead window of a BlockStream: 2 MB, or 262 steps of each
# of 1000 paths with m = 1.  Each generator call costs about 1.5 us beside
# its draws, so a path that draws 64 steps per call pays about 50 ns a
# draw, and one that draws 256 or more about 30 ns.
_LOOKAHEAD_VALUES = 1 << 18


class BlockStream:
    """Increments of paths [first_path, first_path+count) on the N_fine
    grid, drawn in time chunks of any lengths.

    Concatenated along the step axis, the chunks equal
    ``generate_block(T, N_fine, m, seed, first_path, count)`` bit for bit.
    The stream holds one lookahead window of the next steps of every path,
    at most ``_LOOKAHEAD_VALUES`` values (but at least one step), and
    ``draw`` copies from it, refilling it in place when it runs dry.  So
    memory is bounded by the window plus the chunk, not by N_fine, and no
    refill goes past step N_fine.

    When the whole horizon fits one window, ``generate_block`` fills it
    once and no path gets a generator of its own.  Otherwise each path
    keeps its own generator, which continues where its last refill
    stopped, so it is called for long runs even when the chunks are short.
    The seed and the path range are checked up front, as
    ``generate_block`` checks them.
    """

    def __init__(self, T: float, N_fine: int, m: int, seed: int,
                 first_path: int, count: int):
        _check_grid(T, N_fine, m, count)
        _check_paths(seed, first_path, count)
        width = max(1, min(N_fine, _LOOKAHEAD_VALUES // max(count * m, 1)))
        self._scale = math.sqrt(T / N_fine)
        self._pos = 0  # the window's unread steps: [pos, filled)
        if width == N_fine:
            self._gens = ()
            self._buf = generate_block(T, N_fine, m, seed, first_path, count)
            self._filled, self._undrawn = N_fine, 0
            return
        # path j's key is the first path's with j added to its path word
        keys = np.repeat(_path_key(seed, first_path)[None], count, axis=0)
        keys[:, 0] += np.arange(count, dtype=np.uint64)
        seq = _key_sequence()
        self._gens = [np.random.Generator(np.random.Philox(seq(key)))
                      for key in keys]
        self._buf = np.empty((count, width, m))
        # undrawn: the steps not yet drawn into the window
        self._filled, self._undrawn = 0, N_fine

    def _refill(self) -> None:
        width = self._buf.shape[1]
        n = min(width, self._undrawn)
        self._undrawn -= n
        rows = self._buf if n == width else self._buf[:, :n]
        for gen, row in zip(self._gens, rows):
            gen.standard_normal(out=row)
        if self._scale != 1.0:
            rows *= self._scale
        self._pos, self._filled = 0, n

    def draw(self, n_steps: int) -> np.ndarray:
        """The next ``n_steps`` increments of every path, (count, n_steps, m),
        in a new array."""
        left = self._undrawn + self._filled - self._pos
        if not 0 <= n_steps <= left:
            raise ValueError(f"{n_steps} steps asked, {left} left")
        count, _, m = self._buf.shape
        out = np.empty((count, n_steps, m))
        done = 0
        while done < n_steps:
            if self._pos == self._filled:
                self._refill()
            n = min(n_steps - done, self._filled - self._pos)
            out[:, done:done + n] = self._buf[:, self._pos:self._pos + n]
            self._pos += n
            done += n
        return out


def coarsen_increments(increments: np.ndarray, N_coarse: int) -> np.ndarray:
    """Sum fine increments (..., N_fine, m) into N_coarse blocks.

    The block sums are computed by repeated pairwise halving while the
    remaining ratio is even (exactly reproducible and associativity-stable
    for power-of-two ratios), then a final sequential sum over any odd
    remainder.
    """
    *lead, n_fine, m = increments.shape
    if N_coarse < 1 or n_fine % N_coarse != 0:
        raise ValueError(f"N_coarse {N_coarse} does not divide N_fine {n_fine}")
    q = n_fine // N_coarse
    a = increments.reshape(*lead, N_coarse, q, m)
    while a.shape[-2] > 1 and a.shape[-2] % 2 == 0:
        a = a[..., 0::2, :] + a[..., 1::2, :]
    if a.shape[-2] > 1:
        a = np.add.reduce(a, axis=-2, keepdims=True)
    return a[..., 0, :]


_HEADER = struct.Struct("<dqqQQ")  # T, N_fine, m, seed, path_index


def dump_increments(path: BrownianGrid, file) -> None:
    """Write a path to a binary file: little-endian header (T, N_fine, m,
    seed, path_index; the last two unsigned) followed by the increments
    as row-major float64."""
    close = False
    if isinstance(file, (str, bytes)):
        file = open(file, "wb")
        close = True
    try:
        file.write(_HEADER.pack(path.T, path.N_fine, path.m, path.seed, path.path_index))
        file.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())
    finally:
        if close:
            file.close()


def load_increments(file) -> BrownianGrid:
    """Read a path written by dump_increments; the round trip is exact."""
    close = False
    if isinstance(file, (str, bytes)):
        file = open(file, "rb")
        close = True
    try:
        T, n_fine, m, seed, path_index = _HEADER.unpack(file.read(_HEADER.size))
        data = np.frombuffer(file.read(8 * n_fine * m), dtype="<f8")
        incr = data.reshape(n_fine, m).astype(float)
    finally:
        if close:
            file.close()
    return BrownianGrid(T=T, N_fine=n_fine, m=m, seed=seed,
                        path_index=path_index, increments=incr)
