"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  Using
``as_rng`` at the boundary keeps experiments reproducible while letting tests
inject their own generators.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

KeyLike = Union[int, str]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged so that callers can
    share a single stream across components when they want correlated
    sampling.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_entropy(seed: SeedLike = None) -> int:
    """Collapse *seed* into the integer entropy that keys pure RNG streams.

    ``None`` draws fresh OS entropy once (the resulting streams are still
    internally consistent); an integer passes through; a ``SeedSequence`` is
    collapsed via ``generate_state``.  A ``Generator`` is rejected — it
    carries mutable state and therefore cannot define a pure stream family.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "a numpy Generator carries mutable state and cannot seed keyed "
            "per-(workload, round) streams; pass an int or SeedSequence"
        )
    if seed is None:
        seed = np.random.SeedSequence()
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0])
    return int(seed)


def keyed_rng(entropy: int, *keys: KeyLike) -> np.random.Generator:
    """Create a generator that is a pure function of ``(entropy, *keys)``.

    String keys are hashed with CRC-32 (the same keyed-determinism idiom the
    simulator uses for per-workload SimPoint phases), integer keys pass
    through unchanged; the tuple becomes the ``spawn_key`` of a
    :class:`numpy.random.SeedSequence`.  Unlike a shared mutable generator,
    the stream for one key tuple is unaffected by how much any other stream
    has consumed — this is what makes sharded campaign proposals rank-stable.
    """
    spawn_key = tuple(
        zlib.crc32(key.encode("utf-8")) if isinstance(key, str) else int(key)
        for key in keys
    )
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(entropy), spawn_key=spawn_key)
    )
