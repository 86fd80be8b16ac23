"""Counter-based random number streams for reproducible parallel Monte Carlo.

Every path owns a Philox stream keyed by (experiment seed, path index), so a
path's draws are bit-identical no matter which thread simulates it or in what
order.  Independent draw blocks within one experiment (e.g. the three path
sets of a product-bound check) are separated through the high word of the
Philox counter instead of rehashing the seed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Counter phases used by the experiment drivers.  Any value < 2**64 is legal;
# a phase owns 2**128 draws before it could collide with the next one.
PHASE_PATHS = 0
PHASE_SECONDARY = 1
PHASE_TERTIARY = 2

StreamId = tuple[int, int, int]


def stream(seed: int, path_index: int, phase: int = PHASE_PATHS,
           offset: int = 0) -> np.random.Generator:
    """Generator for one path, collision-free across (seed, path_index, phase).

    With offset > 0 the generator starts at raw 64-bit draw `offset` of that
    stream, exactly where the plain stream would be after `offset` raw draws.
    Philox is counter-based, so the skip costs no draws.
    """
    key = np.array([seed & _MASK64, path_index & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, phase & _MASK64, 0], dtype=np.uint64)
    bits = np.random.Philox(counter=counter, key=key)
    if offset:
        bits.advance(offset // 4)  # one counter step yields four raw draws
        bits.random_raw(offset % 4)
    return np.random.Generator(bits)


def as_generator(source) -> np.random.Generator:
    """Accept a Generator, an int seed, or a (seed, path_index[, phase]) tuple."""
    if isinstance(source, np.random.Generator):
        return source
    if isinstance(source, (int, np.integer)):
        return stream(int(source), 0)
    if isinstance(source, tuple) and len(source) in (2, 3):
        return stream(*(int(v) for v in source))
    raise TypeError(f"cannot build an RNG stream from {source!r}")


def stream_id(seed: int, path_index: int, phase: int = PHASE_PATHS) -> StreamId:
    return (int(seed), int(path_index), int(phase))
