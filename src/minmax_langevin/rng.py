"""Deterministic, counter-addressed Gaussian noise.

Every random number in a simulation comes from one 64-bit word of numpy's
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

1. Particle noise comes in role pairs, ``x`` with ``y`` and ``init-x`` with
   ``init-y``.  Both blocks of a pair at ``(n, step, dim)`` read words
   ``0 .. n*dim - 1`` of the sequence ``(seed, pair code, step)``; entry
   ``j`` of the row-major ``(n, dim)`` block is word ``j``, so row ``i`` is
   words ``i*dim .. i*dim + dim - 1``.  The first role of a pair takes the
   cosine variate of each word and the second role the sine variate.  The
   pair code is the role code of the pair's first role: the first eight
   bytes of SHA-256 of its tag.
2. Scalar stream ``stream_id`` draws ``2j`` and ``2j + 1`` as the cosine and
   sine variates of word ``j`` of the sequence ``(seed, stream_id, 0)``; a
   draw names its range by start and count, so it keeps no state.
   ``derive_stream_id`` names a stream by its tag's role code and refuses
   the particle roles, whose codes key particle noise.
3. A word ``w`` gives two independent standard normals by Box-Muller (Box
   and Muller, 1958): the radius ``r = sqrt(-2 ln u1)`` with
   ``u1 = (hi32(w) + 0.5) * 2**-32`` in float64, and the angle
   ``theta = (float32(int32(lo32(w))) + 0.5) * float32(2 pi / 2**32)`` in
   float32, with ``cos`` and ``sin`` taken in float32 (numpy runs those as
   SIMD loops; its float64 ``cos``/``sin`` are scalar and several times
   slower).  The variates are ``r cos theta`` and ``r sin theta``, each
   within 2.5e-6 of float64 Box-Muller on the same word.  ``u1`` lies in
   ``[2**-33, 1 - 2**-33]`` and ``theta`` is never 0 or a multiple of
   ``pi / 2``, so every variate is finite and nonzero, with
   ``|z| <= sqrt(66 ln 2) = 6.7637...``, a bound both halves reach.

``KeyedNoise.block`` is called once per role and step.  A miss draws a slab:
the words of the pair's steps ``k .. k+K-1`` (one ``_philox_words`` call
each), one Box-Muller pass over them all, and both roles' rows, each served
once at its address.  ``K`` is 1 without a horizon; with one, a slab stops
at the horizon, at ``_SLAB_WORDS`` words and at step ``2**64 - 1``, the last
a counter word holds.  A row has one-step bits, as numpy's ``log``,
``sqrt``, ``cos`` and ``sin`` give each element the same bits at any array
length and offset.

Every draw runs on one module-level generator: ``_philox_words`` sets its
key, counter and empty output buffer, then reads the words, all while
holding one lock, so concurrent callers never see each other's state.  No
draw constructs a generator, so none reads OS entropy for a seed sequence it
would not use.  Role codes are hashed once per role tag.  The bits of
``log``, ``sqrt``, ``cos`` and ``sin`` are numpy's, which picks its SIMD
kernels by CPU feature; run manifests record those features.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import threading

import numpy as np

from .payoff import require

__all__ = ["standard_normal_block", "derive_stream_id", "KeyedNoise"]

# The scheme above as run manifests record it; a change to the variates changes it.
NOISE_SCHEME = ("v3: numpy philox4x64-10; role pairs (x, y) and (init-x, init-y) "
                "share block words i*d..i*d+d-1 for row i at key (seed, sha256 code "
                "of the first role), counter word 1 = step; box-muller per word: "
                "u1 = (hi32 + 0.5) * 2**-32, r = sqrt(-2 ln u1) in float64, "
                "theta = (float32(int32 lo32) + 0.5) * float32(2 pi / 2**32), "
                "first role r*cos32(theta), second role r*sin32(theta); "
                "scalar stream draws 2j, 2j+1 = r*cos32(theta), r*sin32(theta) of word j")

# Each particle-noise role's pair: the first role draws the cosine variates,
# the second the sine variates of the same words.
_PAIR_OF = {role: pair for pair in (("x", "y"), ("init-x", "init-y")) for role in pair}


@functools.lru_cache(maxsize=256)
def _role_code(role: str) -> np.uint64:
    digest = hashlib.sha256(role.encode("utf-8")).digest()
    return np.uint64(int.from_bytes(digest[:8], "big"))


def derive_stream_id(role: str) -> np.uint64:
    """The 64-bit id of ``role``'s scalar stream: its role code.  A particle
    role is refused, as its code keys particle noise (the stream at the
    code of ``x`` interleaves the x and y rows of step 0)."""
    if role in _PAIR_OF:
        raise ValueError(f"{role!r} is a particle noise role, not a stream tag")
    return _role_code(role)


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


# Index of a word's low 32-bit half in its uint32 view.
_LO = 0 if sys.byteorder == "little" else 1
_ANGLE_STEP = np.float32(2.0 * np.pi * 2.0**-32)


def _polar(words):
    """Box-Muller radius (float64) and angle (float32) of each uint64 word."""
    halves = words.view(np.uint32)
    r = halves[1 - _LO::2].astype(np.float64)
    r += 0.5
    r *= 2.0**-32  # u1, exactly
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = halves[_LO::2].view(np.int32).astype(np.float32)
    theta += np.float32(0.5)
    theta *= _ANGLE_STEP
    return r, theta


def _words_to_pairs(words, out=None):
    """Both variates of each word: ``(r cos theta, r sin theta)``, written
    into the two arrays of ``out`` when it is given."""
    r, theta = _polar(words)
    z_cos, z_sin = (None, r) if out is None else out
    z_cos = np.multiply(r, np.cos(theta), out=z_cos)
    return z_cos, np.multiply(r, np.sin(theta, out=theta), out=z_sin)


def standard_normal_block(seed: int, stream_id: int, start: int, n: int) -> np.ndarray:
    """Draws ``start .. start+n-1`` of the scalar stream ``(seed, stream_id)``,
    draw ``j`` the cosine (even ``j``) or sine (odd ``j``) variate of word
    ``j // 2`` of the sequence ``(seed, stream_id, 0)``."""
    if not (0 <= seed < 2**64) or not (0 <= int(stream_id) < 2**64):
        raise ValueError("seed and stream_id must be unsigned 64-bit integers")
    require("nonnegative", start=start)
    require("at least 1", n=n)
    start, n = int(start), int(n)
    # Word j's counter j // 4 + 1 fits in 64 bits for 2**66 - 4 words.
    if start + n > 2**67 - 8:
        raise ValueError("start + n must be at most 2**67 - 8, the length of a stream")
    first = start // 2
    words = _philox_words(int(seed), int(stream_id), 0, first, (start + n + 1) // 2 - first)
    pairs = np.empty((len(words), 2))  # row j: the two draws of word first + j
    _words_to_pairs(words, out=pairs.T)
    return pairs.ravel()[start % 2:start % 2 + n]


# The most words one slab draws, unless one step alone needs more.
_SLAB_WORDS = 2**12
# The last step a Philox counter word can address.
_LAST_STEP = 2**64 - 1


class KeyedNoise:
    """Vectorized access to the per-(role, step) particle noise.

    ``block(role, n, step, dim)`` returns an ``(n, dim)`` array whose row
    ``i`` is the role's variates of words ``i*dim .. i*dim + dim - 1`` of the
    sequence ``(seed, pair code, step)``: a prefix of the block for any larger
    ``n``, and addressable alone through ``_philox_words`` at start ``i*dim``.
    A run that reads steps ``k < horizon`` in order passes its ``horizon`` so
    that one draw serves a slab of steps; the bits do not depend on it.
    """

    def __init__(self, seed: int, horizon: int | None = None):
        if not (0 <= seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = int(seed)
        self.horizon = horizon
        # The last slab's unserved rows, keyed by address (role, n, step,
        # dim).  A hit is popped (dict.pop is atomic), so a row is returned
        # once even when threads share this object.
        self._slab = {}

    def block(self, role: str, n: int, step: int, dim: int) -> np.ndarray:
        # Only a checked miss writes slab keys, so a hit needs no checks.
        served = self._slab.pop((role, n, step, dim), None)
        if served is not None:
            return served
        require("nonnegative", step=step)
        if step > _LAST_STEP:
            raise ValueError("step must be at most 2**64 - 1")
        if role not in _PAIR_OF:
            raise ValueError(f"unknown noise role {role!r}; roles are {sorted(_PAIR_OF)}")
        pair, code = _PAIR_OF[role], _role_code(_PAIR_OF[role][0])
        k = 1 if self.horizon is None else max(1, min(
            int(self.horizon - step), _LAST_STEP + 1 - int(step),
            _SLAB_WORDS // max(n * dim, 1)))
        words = np.concatenate([_philox_words(self.seed, code, step + j, 0, n * dim)
                                for j in range(k)])
        slab = {(r, n, step + j, dim): row for r, z in zip(pair, _words_to_pairs(words))
                for j, row in enumerate(z.reshape(k, n, dim))}
        served, self._slab = slab.pop((role, n, step, dim)), slab
        return served
