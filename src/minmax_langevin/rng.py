"""Deterministic, counter-addressed Gaussian noise.

Every random number in a simulation is one 64-bit word of numpy's
Philox-4x64-10 generator (``np.random.Philox``), fixed by a 128-bit key, a
counter and a lane and nothing else, so

* two runs with the same seed are bit-identical,
* any particle's row may be computed alone, in any order or in parallel,
* adding particles never changes the noise seen by existing particles.

Addressing scheme (documented because reports reference it): word ``j`` of
the sequence ``(seed, key1, counter1)`` is lane ``j % 4`` of the Philox block
at counter ``(j // 4 + 1, counter1, 0, 0)`` under key ``(seed, key1)``; the
+1 is numpy's convention of incrementing the counter before each block.
``_philox_words`` is the one function that applies this rule.

1. A ``KeyedNoise.block(role, n, step, dim)`` call reads words
   ``0 .. n*dim - 1`` of the sequence ``(seed, role code, step)``; row ``i``
   is words ``i*dim .. i*dim + dim - 1``.  The role code is the first eight
   bytes of SHA-256 of the role tag.
2. A scalar ``NoiseStream`` reads its draw ``j`` as word ``j`` of the
   sequence ``(seed, stream_id, 0)``.  ``derive_stream_id`` chains a SHA-256
   role tag through splitmix64 finalizer rounds with a particle index and a
   step counter to name such streams.
3. Words map to open-interval uniforms ``((w >> 12) + 0.5) * 2**-52``, which
   lie in ``[2**-53, 1 - 2**-53]``, are never ``0.5`` and are symmetric about
   it, and then through the inverse normal CDF (``scipy.special.ndtri``).
   Every variate is finite and nonzero, with ``|z| <= 8.2095...``.  The
   inverse-CDF method consumes exactly one word per variate; it is the fixed
   Gaussian-generation method for this package.

Every draw runs on one module-level generator: ``_philox_words`` sets its
key, counter and empty output buffer, then reads the words, all while
holding one lock, so concurrent callers never see each other's state.  No
draw constructs a generator, so none reads OS entropy for a seed sequence it
would not use.  Role codes are hashed once per role tag.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

__all__ = [
    "NoiseStream",
    "create_stream",
    "standard_normal_block",
    "derive_stream_id",
    "KeyedNoise",
]

# The scheme above as run manifests record it; a change to the variates changes it.
NOISE_SCHEME = ("v2: numpy philox4x64-10; particle block row i = words i*d..i*d+d-1 "
                "at key (seed, sha256 role code), counter word 1 = step; "
                "u = ((w >> 12) + 0.5) * 2**-52; inverse-CDF gaussians")

_U64 = np.uint64

# splitmix64 finalizer multipliers.
_SM_GAMMA = _U64(0x9E3779B97F4A7C15)
_SM_M1 = _U64(0xBF58476D1CE4E5B9)
_SM_M2 = _U64(0x94D049BB133111EB)


def _splitmix64(x):
    """splitmix64 finalizer; accepts uint64 scalars or arrays."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=_U64) + _SM_GAMMA
        z = (z ^ (z >> _U64(30))) * _SM_M1
        z = (z ^ (z >> _U64(27))) * _SM_M2
        return z ^ (z >> _U64(31))


@functools.lru_cache(maxsize=256)
def _role_code(role: str) -> np.uint64:
    digest = hashlib.sha256(role.encode("utf-8")).digest()
    return _U64(int.from_bytes(digest[:8], "big"))


def derive_stream_id(role: str, particle, step: int):
    """Hash a (role, particle, step) address into a 64-bit stream id.

    ``particle`` may be an integer or an integer array; the result has the
    same shape.  Distinct addresses map to distinct ids up to the 64-bit
    birthday bound, which is far beyond desk-scale experiments.
    """
    if step < 0:
        raise ValueError("step must be nonnegative")
    h = _splitmix64(_role_code(role))
    h = _splitmix64(h ^ np.asarray(particle, dtype=_U64))
    h = _splitmix64(h ^ _U64(step))
    return h


# The one generator behind every draw.  Each draw sets its whole state, so
# no draw depends on an earlier one.  The lock is this module's own:
# ``random_raw`` takes the generator's lock itself, and holding that lock
# around the call is safe only where numpy makes it reentrant.
_PHILOX = np.random.Philox(0)
_PHILOX_LOCK = threading.Lock()


def _philox_words(seed, key1, counter1, start: int, count: int) -> np.ndarray:
    """Words ``start .. start+count-1`` of the sequence ``(seed, key1, counter1)``."""
    skip = start % 4
    with _PHILOX_LOCK:
        _PHILOX.state = {
            "bit_generator": "Philox",
            "state": {"counter": (start // 4, counter1, 0, 0), "key": (seed, key1)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return _PHILOX.random_raw(skip + count)[skip:]


# 1.0 as float64 bits, and the offset that turns 1 + k * 2**-52 into
# (k + 0.5) * 2**-52; the subtraction is exact (Sterbenz), so the map below
# equals ((w >> 12) + 0.5) * 2**-52 bit for bit.
_ONE_BITS = _U64(0x3FF0000000000000)
_LARGEST_BELOW_ONE = 1.0 - 2.0**-53


def _words_to_normals(words) -> np.ndarray:
    """Map uint64 words to standard normals via open-interval inverse CDF."""
    bits = words >> _U64(12)
    bits |= _ONE_BITS
    u = bits.view(np.float64)
    u -= _LARGEST_BELOW_ONE
    return ndtri(u, out=u)


@dataclass
class NoiseStream:
    """A position in the (seed, stream_id)-keyed Gaussian sequence."""

    seed: int
    stream_id: int
    index: int = field(default=0)


def create_stream(seed: int, stream_id: int) -> NoiseStream:
    """Stream positioned at draw index 0 for the given (seed, stream_id)."""
    if not (0 <= seed < 2**64) or not (0 <= int(stream_id) < 2**64):
        raise ValueError("seed and stream_id must be unsigned 64-bit integers")
    return NoiseStream(seed=int(seed), stream_id=int(stream_id))


def standard_normal_block(stream: NoiseStream, n: int) -> np.ndarray:
    """Next ``n`` i.i.d. standard normal draws; advances the stream by ``n``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    n = int(n)
    words = _philox_words(stream.seed, stream.stream_id, 0, stream.index, n)
    stream.index += n
    return _words_to_normals(words)


class KeyedNoise:
    """Vectorized access to the per-(role, step) particle noise.

    ``block(role, n, step, dim)`` returns an ``(n, dim)`` array whose row
    ``i`` is words ``i*dim .. i*dim + dim - 1`` of the sequence
    ``(seed, role code, step)``: a prefix of the block for any larger ``n``,
    and addressable alone through ``_philox_words`` at start ``i*dim``.
    """

    def __init__(self, seed: int):
        if not (0 <= seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = int(seed)

    def block(self, role: str, n: int, step: int, dim: int) -> np.ndarray:
        if step < 0:
            raise ValueError("step must be nonnegative")
        words = _philox_words(self.seed, _role_code(role), step, 0, n * dim)
        return _words_to_normals(words).reshape(n, dim)
