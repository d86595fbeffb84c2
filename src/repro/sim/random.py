"""Deterministic per-component random streams.

Every stochastic component draws from its own named stream so that adding a
new component (or reordering draws inside one) never perturbs the others.
Streams are derived from a master seed via ``numpy.random.SeedSequence``
spawning keyed by the stream name, which is stable across runs and Python
processes.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """A factory of named, reproducible ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identical stream.
        """
        if name not in self._streams:
            # Derive a child seed from the master seed and a stable hash of
            # the name (zlib.crc32 is deterministic across processes, unlike
            # the builtin hash()).
            child = np.random.SeedSequence([self.seed, zlib.crc32(name.encode())])
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]
