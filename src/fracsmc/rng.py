"""Counter-based random streams.

Every consumer of randomness derives its stream from a base seed plus a
tuple of integer ids (sweep, node, ...).  Streams with distinct ids are
statistically independent and any stream can be reconstructed in
isolation, so the simulation order never changes the numbers drawn.  Node j
of steady sweep k draws from (seed, k, j); all nodes of a space-time sweep
share its (seed, k) (common random numbers: correlated, each unbiased).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (seed, id tuple) -> Philox generator."""

    seed: int
    ids: tuple[int, ...] = ()

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.ids + ids)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.ids)
        return np.random.Generator(np.random.Philox(ss))
