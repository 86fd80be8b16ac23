"""Counter-based random number streams for reproducible parallel Monte Carlo.

Every path owns a Philox stream keyed by (experiment seed, path index), so a
path's draws are bit-identical no matter which worker simulates it or in what
order.  Independent draw blocks within one experiment (e.g. the three path
sets of a product-bound check) are separated through the high word of the
Philox counter instead of rehashing the seed.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it at import, not mid-run)

_MASK64 = (1 << 64) - 1

# Counter phases used by the experiment drivers.  Any value < 2**64 is legal;
# a phase owns 2**128 draws before it could collide with the next one.
PHASE_PATHS = 0
PHASE_SECONDARY = 1
PHASE_TERTIARY = 2


def _layout(seed: int, path_index: int, phase: int, offset: int = 0):
    """Philox key and counter at raw 64-bit draw `offset` of a path's stream.

    The one definition of the stream layout; a counter step yields four
    raw draws.  Seed, path index and phase must lie in [0, 2**64): a value
    outside would otherwise wrap onto another stream.
    """
    if not (0 <= seed <= _MASK64 and 0 <= path_index <= _MASK64 and 0 <= phase <= _MASK64):
        raise ValueError(f"seed {seed}, path index {path_index} and phase {phase} "
                         "must lie in [0, 2**64)")
    return (seed, path_index), (offset // 4, 0, phase, 0)


def stream(seed: int, path_index: int, phase: int = PHASE_PATHS) -> np.random.Generator:
    """Generator for one path, collision-free across (seed, path_index, phase)."""
    key, counter = _layout(seed, path_index, phase)
    return np.random.Generator(np.random.Philox(
        counter=np.array(counter, dtype=np.uint64), key=np.array(key, dtype=np.uint64)))


class Cursor:
    """One reusable Philox generator that can be placed in any path's stream.

    Placing writes the layout's key and counter words into one reused state
    dict of plain Python ints and assigns it, several times cheaper than
    building a new generator with `stream`.  numpy's Philox state setter
    reads plain ints in well under half the time it takes for the uint64
    arrays of `bits.state`, and the exact engines place once per path.
    """

    def __init__(self):
        self.bits = np.random.Philox(key=0)
        self.gen = np.random.Generator(self.bits)
        self._key, self._counter = [0, 0], [0, 0, 0, 0]
        # buffer_pos 4 marks the buffer empty: the next draw steps the counter
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def place(self, seed: int, path_index: int, phase: int = PHASE_PATHS,
              offset: int = 0) -> np.random.Generator:
        """The generator at raw draw `offset` of the (seed, path, phase) stream."""
        key, counter = self._key, self._counter
        (key[0], key[1]), (counter[0], counter[1], counter[2], counter[3]) = \
            _layout(seed, path_index, phase, offset)
        self.bits.state = self._state
        if offset % 4:
            self.bits.random_raw(offset % 4)
        return self.gen
