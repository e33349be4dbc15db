"""Named, independently seeded random-number streams.

Every stochastic component (measurement noise, workload jitter, packet
arrival spread, LMS subset sampling, ...) draws from its *own* named
stream.  Adding a new noise source therefore never shifts the random
numbers another component sees -- experiment results stay stable across
library versions, which keeps the recorded EXPERIMENTS.md numbers honest.

Streams are derived from the master seed with ``numpy``'s
``SeedSequence.spawn``-style keying: the stream name is hashed into the
entropy, so ``registry("dom0-noise")`` is reproducible and independent of
``registry("vm1-jitter")``.
"""

from __future__ import annotations

import zlib

import numpy as np


class RngRegistry:
    """Factory and cache of named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this registry was created with."""
        return self._seed

    def __call__(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same stream object, so stateful
        consumption is shared between callers using the same name.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self._seed, key])
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *rewound* generator for ``name`` (drops prior state)."""
        self._streams.pop(name, None)
        return self(name)

    def spawn(self, salt: int) -> "RngRegistry":
        """Derive an independent registry (for replications)."""
        return RngRegistry(seed=self._seed * 1_000_003 + salt)


def generator_from_seed(seed) -> np.random.Generator:
    """The one sanctioned way to build a generator from a bare seed.

    Analysis helpers that take a user-supplied seed (scenario
    synthesis, LMS subset draws) route their construction through here
    so ``repro lint``'s REP007 rule can guarantee no component mints
    generators ad hoc.  ``seed`` accepts anything
    ``numpy.random.default_rng`` does (int, SeedSequence, None for OS
    entropy -- the latter only in explicitly non-reproducible tooling).
    """
    return np.random.default_rng(seed)
