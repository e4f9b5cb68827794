"""Deterministic random-stream derivation.

Every random computation in the package flows from a single 64-bit master
seed. Independent substreams are derived by key, not by drawing order, so
work units can run in any order (or on any number of workers) and still
produce identical output: ``substream(master, *keys)`` names a stream by
its key path alone.
"""

from __future__ import annotations

import numpy as np

RngStream = np.random.Generator

# bit generators whose raw words are numpy's 64-bit words: a full-range uint64
# ``integers`` call reads them whole, and 32-bit draws read their low and then
# their high half, the high half buffered; MT19937's raw words are 32-bit
_RAW_WORDS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)


def substream(root: int | np.random.SeedSequence, *keys: int) -> np.random.SeedSequence:
    """Derive a child SeedSequence identified by ``keys`` under ``root``.

    Keys compose: ``substream(substream(m, a), b)`` names the same stream
    as ``substream(m, a, b)``.
    """
    for k in keys:
        if k < 0:
            raise ValueError("substream keys must be non-negative")
    if isinstance(root, np.random.SeedSequence):
        entropy = root.entropy
        base = tuple(root.spawn_key)
    else:
        entropy = int(root)
        base = ()
    return np.random.SeedSequence(entropy=entropy, spawn_key=base + tuple(int(k) for k in keys))


def generator(root: int | np.random.SeedSequence, *keys: int) -> RngStream:
    """A fresh Generator for the named substream."""
    return np.random.default_rng(substream(root, *keys))
