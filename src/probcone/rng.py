"""Deterministic seed derivation for parallel Monte Carlo streams.

Per-path generators are keyed by ``mix_seed(root, index)`` so a path's
stream depends only on (root seed, path index): growing the path count or
changing the worker count never perturbs existing paths.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def mix_seed(root_seed: int, index: int) -> int:
    """Map (root seed, stream index) to a 64-bit child seed (splitmix64 step)."""
    if index < 0:
        raise ValueError("stream index must be non-negative")
    return _finalize((root_seed + (index + 1) * _GAMMA) & _MASK64)


@functools.cache
def _key_sequence_type() -> type:
    """The class of :func:`path_generator`'s seed sequences, made on first use.

    ``numpy.random`` is imported here and not at module level, so that a
    run which draws nothing (a refused config, say) does not pay for it.
    """
    from numpy.random.bit_generator import ISpawnableSeedSequence

    class _KeySequence(ISpawnableSeedSequence):
        """The seed sequence of one stream: its state words are the 64-bit ``key``, zero-extended.

        ``Philox(_KeySequence(k))`` has the key, counter and buffer of
        ``Philox(key=k)``, without the ``SeedSequence()`` that
        ``Philox(key=k)`` first builds from OS entropy and then discards.
        Children of ``spawn`` come from ``SeedSequence(key)``, so they too
        depend on the key alone.
        """

        def __init__(self, key: int):
            self.key = key
            self._spawner = None

        def generate_state(self, n_words, dtype=np.uint32):
            dtype = np.dtype(dtype)
            bits = 8 * dtype.itemsize
            mask = (1 << bits) - 1
            return np.array([(self.key >> (bits * i)) & mask for i in range(n_words)], dtype=dtype)

        def spawn(self, n_children):
            if self._spawner is None:
                self._spawner = np.random.SeedSequence(self.key)
            return self._spawner.spawn(n_children)

    return _KeySequence


def path_generator(root_seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one independent stream, keyed by ``mix_seed(root_seed, index)``."""
    return np.random.Generator(np.random.Philox(_key_sequence_type()(mix_seed(root_seed, index))))
