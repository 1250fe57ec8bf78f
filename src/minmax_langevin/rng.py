"""Deterministic, stream-indexed Gaussian noise.

Every random number in a simulation is addressed by a triple
``(seed, stream_id, draw_index)`` and nothing else, so

* two runs with the same seed are bit-identical,
* per-particle updates may be evaluated in any order or in parallel,
* adding particles never changes the noise seen by existing particles.

Derivation scheme (documented because reports reference it):

1. ``stream_id = derive_stream_id(role, particle, step)`` chains a SHA-256
   role tag through splitmix64 finalizer rounds with the particle index and
   the step counter.
2. The 128-bit Philox-4x64-10 key is ``(seed, stream_id)``.  Draw ``j`` of a
   stream reads lane ``j % 4`` of the Philox block at counter ``j // 4 + 1``
   (the +1 matches numpy's Philox block indexing; the test suite checks whole
   streams against ``np.random.Philox``).  Both public paths, a scalar
   ``NoiseStream`` and a ``KeyedNoise`` particle block, apply this one rule
   through the same function.
3. 64-bit words map to open-interval uniforms ``((w >> 11) + 0.5) * 2**-53``
   and then through the inverse normal CDF (``scipy.special.ndtri``).  The
   inverse-CDF method consumes exactly one word per variate; it is the fixed
   Gaussian-generation method for this package.
"""

from __future__ import annotations

import hashlib
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

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)

# Philox-4x64 round multipliers and Weyl key increments.
_PHILOX_M0 = _U64(0xD2E7470EE14C6C93)
_PHILOX_M1 = _U64(0xCA5A826395121157)
_PHILOX_W0 = _U64(0x9E3779B97F4A7C15)
_PHILOX_W1 = _U64(0xBB67AE8584CAA73B)

# splitmix64 finalizer multipliers.
_SM_GAMMA = _U64(0x9E3779B97F4A7C15)
_SM_M1 = _U64(0xBF58476D1CE4E5B9)
_SM_M2 = _U64(0x94D049BB133111EB)


def _mulhilo(a, b):
    """Full 64x64 -> 128 bit product as (hi, lo), via 32-bit limbs."""
    lo = a * b
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    b_lo = b & _MASK32
    b_hi = b >> _SHIFT32
    t = a_hi * b_lo + ((a_lo * b_lo) >> _SHIFT32)
    hi = a_hi * b_hi + (t >> _SHIFT32) + ((a_lo * b_hi + (t & _MASK32)) >> _SHIFT32)
    return hi, lo


def _philox_block(c0, k0, k1):
    """Philox-4x64-10 output block for counters ``(c0, 0, 0, 0)``.

    ``c0``, ``k0``, ``k1`` are broadcast-compatible uint64 arrays; returns the
    four output lanes as arrays of the broadcast shape.
    """
    k0 = np.asarray(k0, dtype=_U64)
    k1 = np.asarray(k1, dtype=_U64)
    # Only the counter words take the broadcast shape; a scalar key stays a
    # scalar through the rounds.
    c1 = c2 = c3 = np.zeros(np.broadcast_shapes(np.shape(c0), k0.shape, k1.shape), _U64)
    c0 = np.asarray(c0, dtype=_U64) + c1
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
    return c0, c1, c2, c3


def _splitmix64(x):
    """splitmix64 finalizer; accepts uint64 scalars or arrays."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=_U64) + _SM_GAMMA
        z = (z ^ (z >> _U64(30))) * _SM_M1
        z = (z ^ (z >> _U64(27))) * _SM_M2
        return z ^ (z >> _U64(31))


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


def _words_to_normals(words) -> np.ndarray:
    """Map uint64 words to standard normals via open-interval inverse CDF."""
    u = ((words >> _U64(11)).astype(np.float64) + 0.5) * (2.0**-53)
    return ndtri(u)


def _stream_normals(seed: int, stream_ids, start: int, count: int) -> np.ndarray:
    """Draws ``start .. start+count-1`` of every stream ``(seed, stream_ids[...])``.

    The result has shape ``stream_ids.shape + (count,)``; one Philox sweep
    covers every stream and every block the draw range touches.
    """
    stream_ids = np.asarray(stream_ids, dtype=_U64)
    first = start // 4
    counters = np.arange(first + 1, (start + count - 1) // 4 + 2, dtype=_U64)
    lanes = _philox_block(counters, _U64(seed), stream_ids[..., None])
    words = np.stack(lanes, axis=-1).reshape(stream_ids.shape + (4 * counters.size,))
    offset = start - 4 * first
    return _words_to_normals(words[..., offset:offset + count])


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
    draws = _stream_normals(stream.seed, stream.stream_id, stream.index, n)
    stream.index += n
    return draws


class KeyedNoise:
    """Vectorized access to the per-(role, particle, step) streams.

    ``block(role, n, step, dim)`` returns an ``(n, dim)`` array whose row
    ``i`` equals the first ``dim`` draws of the stream keyed by
    ``derive_stream_id(role, i, step)``: the same values a per-particle
    ``standard_normal_block`` would produce, just computed in one Philox
    sweep.
    """

    def __init__(self, seed: int):
        if not (0 <= seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = int(seed)

    def block(self, role: str, n: int, step: int, dim: int) -> np.ndarray:
        stream_ids = derive_stream_id(role, np.arange(n, dtype=_U64), step)
        return _stream_normals(self.seed, stream_ids, 0, dim)
