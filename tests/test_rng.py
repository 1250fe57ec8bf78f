import functools
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

from minmax_langevin import (
    KeyedNoise,
    derive_stream_id,
    parse_config,
    run_experiment,
    standard_normal_block,
)
from minmax_langevin import checks, rng
from minmax_langevin.rng import _philox_words, _role_code, _words_to_pairs
from test_mutants import noise_read_one_step_late

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)

# Philox-4x64 round multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M0 = _U64(0xD2E7470EE14C6C93)
_PHILOX_M1 = _U64(0xCA5A826395121157)
_PHILOX_W0 = _U64(0x9E3779B97F4A7C15)
_PHILOX_W1 = _U64(0xBB67AE8584CAA73B)


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


def _philox_block(c0, c1, c2, c3, k0, k1):
    """Philox-4x64-10 output block for counters ``(c0, c1, c2, c3)``.

    A hand-written numpy kernel kept as an oracle independent of numpy's C
    generator.  Arguments are broadcast-compatible uint64 arrays; returns
    the four output lanes as arrays of the broadcast shape.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in (c0, c1, c2, c3, k0, k1)))
    c0, c1, c2, c3, k0, k1 = (
        np.broadcast_to(np.asarray(v, dtype=_U64), shape).copy()
        for v in (c0, c1, c2, c3, k0, k1)
    )
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
    return c0, c1, c2, c3


def oracle_words(seed, key1, counter1, start, count):
    """Words ``start .. start+count-1`` of ``(seed, key1, counter1)`` by the
    documented rule: word ``j`` is lane ``j % 4`` of the block at counter
    ``(j // 4 + 1, counter1, 0, 0)`` under key ``(seed, key1)``."""
    counters = np.arange(start // 4 + 1, (start + count - 1) // 4 + 2, dtype=_U64)
    lanes = _philox_block(counters, counter1, 0, 0, seed, key1)
    words = np.stack(lanes, axis=-1).ravel()
    return words[start % 4:start % 4 + count]


_ANGLE_STEP = np.float32(2.0 * np.pi * 2.0**-32)
# Each role's pair: the role whose code keys the words, and which variate
# of a word the role takes (0: r cos theta, 1: r sin theta).
ROLE_HALF = {"x": ("x", 0), "y": ("x", 1), "init-x": ("init-x", 0), "init-y": ("init-x", 1)}


def reference_pairs(words):
    """Both Box-Muller variates of each word by the documented v3 rule,
    written without ``rng``'s code: ``u1 = (hi32 + 0.5) * 2**-32``,
    ``r = sqrt(-2 ln u1)`` in float64, ``theta = (float32(int32 lo32) + 0.5) *
    float32(2 pi / 2**32)`` in float32; returns ``(r cos theta, r sin theta)``."""
    words = np.asarray(words, dtype=_U64)
    u1 = ((words >> _SHIFT32).astype(np.float64) + 0.5) * 2.0**-32
    r = np.sqrt(-2.0 * np.log(u1))
    lo = (words & _MASK32).astype(np.int64)
    lo = np.where(lo >= 2**31, lo - 2**32, lo)  # the low half read as int32
    theta = (lo.astype(np.float32) + np.float32(0.5)) * _ANGLE_STEP
    return r * np.cos(theta).astype(np.float64), r * np.sin(theta).astype(np.float64)


def reference_draws(words_of, start, count):
    """Draws ``start .. start+count-1`` of a scalar stream, ``words_of(first,
    k)`` giving its words ``first .. first+k-1``: draw ``2j`` is the cosine
    and draw ``2j + 1`` the sine variate of word ``j``."""
    first = start // 2
    pairs = reference_pairs(words_of(first, (start + count + 1) // 2 - first))
    return np.stack(pairs, axis=1).ravel()[start % 2:start % 2 + count]


def reference_block(words_of, role, n, dim):
    """``role``'s ``(n, dim)`` block, ``words_of(key1)`` giving its n*dim words."""
    pair_role, half = ROLE_HALF[role]
    return reference_pairs(words_of(_role_code(pair_role)))[half].reshape(n, dim)


def numpy_philox_words(seed, key1, n, counter1=0, start=0):
    """Words ``start .. start+n-1`` of ``(seed, key1, counter1)``, generated
    by numpy's Philox constructed here rather than through ``rng``."""
    return np.random.Philox(
        key=np.array([seed, int(key1)], dtype=np.uint64),
        counter=np.array([start // 4, counter1, 0, 0], dtype=np.uint64),
    ).random_raw(start % 4 + n)[start % 4:]


class TestStreams:
    def test_same_stream_replays(self):
        a = standard_normal_block(42, 0, 0, 16)
        b = standard_normal_block(42, 0, 0, 16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = standard_normal_block(42, 0, 0, 4)
        b = standard_normal_block(42, 1, 0, 4)
        assert a[0] != b[0]

    def test_zero_seed_allowed(self):
        out = standard_normal_block(0, 0, 0, 4)
        assert np.isfinite(out).all()

    def test_adjacent_ranges_concatenate_two_plus_two(self):
        whole = standard_normal_block(9, 5, 0, 4)
        split = np.concatenate(
            [standard_normal_block(9, 5, 0, 2), standard_normal_block(9, 5, 2, 2)]
        )
        np.testing.assert_array_equal(whole, split)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        start=st.integers(min_value=0, max_value=9),
        total=st.integers(min_value=1, max_value=64),
        cut=st.integers(min_value=0, max_value=64),
        seed=st.integers(min_value=0, max_value=2**63),
    )
    # An odd cut splits a word between its cosine and sine draws.
    @example(start=0, total=8, cut=3, seed=0)
    @example(start=1, total=6, cut=1, seed=2**63)
    def test_adjacent_ranges_concatenate_to_the_whole_range(self, start, total, cut, seed):
        cut = min(cut, total)
        whole = standard_normal_block(seed, 7, start, total)
        parts = []
        if cut:
            parts.append(standard_normal_block(seed, 7, start, cut))
        if total - cut:
            parts.append(standard_normal_block(seed, 7, start + cut, total - cut))
        np.testing.assert_array_equal(whole, np.concatenate(parts))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            standard_normal_block(1, 1, 0, 0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="^start must be nonnegative$"):
            standard_normal_block(1, 1, -1, 4)

    def test_rejects_a_range_past_the_philox_counter(self):
        # The last draws sit at counter 2**64 - 1; one more would carry.
        last = 2**67 - 8
        np.testing.assert_array_equal(
            standard_normal_block(5, 6, last - 3, 3),
            reference_draws(lambda first, k: oracle_words(5, 6, 0, first, k), last - 3, 3))
        for start, n in ((last, 1), (last - 1, 2), (2**70, 1)):
            with pytest.raises(ValueError, match="^start "):
                standard_normal_block(0, 0, start, n)

    def test_moments_of_a_million_draws(self):
        draws = standard_normal_block(2718281828, 0, 0, 10**6)
        assert abs(draws.mean()) <= 0.005
        assert 0.99 <= draws.var() <= 1.01


class TestPhiloxKernel:
    """The hand-written oracle kernel agrees with numpy's C Philox."""

    def test_matches_numpy_philox(self):
        # numpy's Philox emits the block at counter c+1 when initialized with
        # counter c, which is exactly the convention the streams use.
        cases = [
            (0, 0, (1, 0, 0, 0)),
            (123, 456, (8, 0, 0, 0)),
            (2**64 - 1, 7, (3, 0, 0, 0)),
            (5, 2**63 + 1, (1, 9, 0, 0)),
            (11, 12, (7, 2**64 - 1, 3, 2**63)),
        ]
        for key0, key1, counter in cases:
            ours = _philox_block(*counter, key0, key1)
            ref = np.random.Philox(
                counter=np.array([counter[0] - 1, *counter[1:]], dtype=np.uint64),
                key=np.array([key0, key1], dtype=np.uint64),
            ).random_raw(4)
            assert [int(lane) for lane in ours] == [int(v) for v in ref]

    def test_vectorized_matches_scalar(self):
        counters = np.arange(1, 9, dtype=np.uint64)
        batch = _philox_block(counters, 4, 0, 0, np.uint64(5), np.uint64(6))
        for i, c in enumerate(counters):
            single = _philox_block(c, 4, 0, 0, np.uint64(5), np.uint64(6))
            assert all(batch[lane][i] == single[lane] for lane in range(4))


class TestOracle:
    """Every variate equals the independent oracle kernel bit for bit."""

    SEEDS = (0, 77, 2**64 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("role", ["x", "y", "init-x", "init-y"])
    @pytest.mark.parametrize("step", [0, 1, 449, 2**63 + 5])
    def test_keyed_blocks_match_oracle(self, seed, role, step):
        n, dim = 7, 3
        block = KeyedNoise(seed).block(role, n, step, dim)
        expected = reference_block(
            lambda key1: oracle_words(seed, key1, step, 0, n * dim), role, n, dim
        )
        np.testing.assert_array_equal(block, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream_id", [0, 42, 2**63 + 11])
    def test_scalar_streams_match_oracle(self, seed, stream_id):
        for start in (0, 1, 2, 3, 4, 5, 13, 255):
            for count in (1, 3, 4, 9):
                np.testing.assert_array_equal(
                    standard_normal_block(seed, stream_id, start, count),
                    reference_draws(
                        lambda first, k: oracle_words(seed, stream_id, 0, first, k),
                        start, count),
                )

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 6, 17, 4095])
    def test_words_at_any_offset_match_oracle(self, start):
        for count in (0, 1, 2, 5, 11):
            np.testing.assert_array_equal(
                _philox_words(9, 10, 3, start, count),
                oracle_words(9, 10, 3, start, count),
            )


def word(hi, lo):
    return (hi << 32) | lo


# The largest |z|: r at hi32 = 0, u1 = 2**-33.
R_MAX = float(np.sqrt(-2.0 * np.log(np.array([2.0**-33])))[0])


class TestUniformMap:
    def test_extreme_words(self):
        his = [0, 1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1]
        los = [0, 1, 2**30 - 1, 2**30, 2**31 - 1, 2**31, 3 * 2**30, 2**32 - 1]
        words = np.array([word(h, l) for h in his for l in los], dtype=np.uint64)
        z_cos, z_sin = _words_to_pairs(words)
        ref_cos, ref_sin = reference_pairs(words)
        np.testing.assert_array_equal(z_cos, ref_cos)
        np.testing.assert_array_equal(z_sin, ref_sin)
        z = np.concatenate([z_cos, z_sin])
        assert np.isfinite(z).all()
        assert (z != 0.0).all()
        assert (np.abs(z) <= R_MAX).all()

    def test_uniforms_symmetric_about_one_half(self):
        # The angle's uniform (lo32 + 0.5) * 2**-32 is symmetric about one
        # half: ~lo32 mirrors it, which keeps the cosine variate and negates
        # the sine variate, exactly while float32 holds int32(lo32) + 0.5.
        k = np.array([0, 1, 2, 3, 2**20 + 5, 2**22, 2**23 - 1], dtype=np.uint64)
        his = np.array([0, 7, 2**31, 2**32 - 1], dtype=np.uint64)[:, None]
        words = ((his << _SHIFT32) | k).ravel()
        mirrored = ((his << _SHIFT32) | (_MASK32 - k)).ravel()
        cos_a, sin_a = _words_to_pairs(words)
        cos_b, sin_b = _words_to_pairs(mirrored)
        np.testing.assert_array_equal(cos_a, cos_b)
        np.testing.assert_array_equal(sin_a, -sin_b)


class TestBoxMuller:
    """Tails, exactness and accuracy of the v3 transform."""

    def test_extreme_words_reach_the_tail_bound_exactly(self):
        assert abs(R_MAX - 6.763705635) < 1e-9  # sqrt(66 ln 2)
        # hi32 = 0 gives r = R_MAX; these angles round to 0, pi/2, -pi, -pi/2
        # and pi in float32, where cos or sin is exactly +-1.
        words = np.array(
            [word(0, 0), word(0, 2**30), word(0, 2**31), word(0, 3 * 2**30),
             word(0, 2**31 - 1)],
            dtype=np.uint64,
        )
        z_cos, z_sin = _words_to_pairs(words)
        assert z_cos[0] == R_MAX and z_sin[1] == R_MAX
        assert z_cos[2] == -R_MAX and z_sin[3] == -R_MAX and z_cos[4] == -R_MAX

    def test_every_variate_is_finite_and_nonzero_near_the_axes(self):
        # The angles next to 0, +-pi/2 and +-pi are where cos or sin comes
        # closest to 0; hi32 spans the smallest and largest radius.
        window = np.arange(-2**15, 2**15, dtype=np.int64)
        centres = np.array([0, 2**30, 2**31, 3 * 2**30])
        los = ((centres[:, None] + window) % 2**32).ravel().astype(np.uint64)
        for hi in (0, 2**31, 2**32 - 1):
            z = np.concatenate(_words_to_pairs((np.uint64(hi) << _SHIFT32) | los))
            assert np.isfinite(z).all()
            assert np.min(np.abs(z)) > 0.0
            assert np.max(np.abs(z)) <= R_MAX

    def test_float32_angle_stays_within_1e5_of_float64_box_muller(self):
        words = np.concatenate([
            numpy_philox_words(5, 6, 10**6),
            np.array([word(0, 2**31 - 1), word(0, 2**31), word(1, 2**32 - 1)],
                     dtype=np.uint64),
        ])
        u1 = ((words >> _SHIFT32).astype(np.float64) + 0.5) * 2.0**-32
        r = np.sqrt(-2.0 * np.log(u1))
        lo = (words & _MASK32).astype(np.float64)
        theta = 2.0 * np.pi * (np.where(lo >= 2**31, lo - 2**32, lo) + 0.5) * 2.0**-32
        z_cos, z_sin = _words_to_pairs(words)
        assert np.max(np.abs(z_cos - r * np.cos(theta))) < 1e-5
        assert np.max(np.abs(z_sin - r * np.sin(theta))) < 1e-5

    @pytest.mark.parametrize("role", ["x", "y", "init-x", "init-y"])
    def test_each_half_is_standard_normal(self, role):
        noise = KeyedNoise(99)
        z = np.concatenate([noise.block(role, 1000, step, 2).ravel() for step in range(100)])
        assert z.size == 2 * 10**5
        # KS against N(0, 1): reject at the 0.1% level (D > 1.949 / sqrt(n)).
        assert stats.kstest(z, "norm").statistic < 1.949 / np.sqrt(z.size)

    @pytest.mark.parametrize("pair", [("x", "y"), ("init-x", "init-y")])
    def test_halves_uncorrelated_at_shared_addresses(self, pair):
        # Box-Muller makes the two variates of a word independent; a shared
        # radius with a dependent angle would correlate their squares.
        noise = KeyedNoise(4)
        first, second = (
            np.concatenate([noise.block(role, 1000, step, 2).ravel() for step in range(250)])
            for role in pair
        )
        bound = 4.0 / np.sqrt(first.size)
        assert abs(np.corrcoef(first**2, second**2)[0, 1]) < bound
        assert abs(np.corrcoef(first, second)[0, 1]) < bound


class TestKeyedNoise:
    def test_rows_match_scalar_streams(self):
        # Any row computed alone equals the same row of the block.  At step 0
        # the keyed sequence is the scalar stream keyed by the code of x,
        # whose draws interleave the x and y rows.
        noise = KeyedNoise(77)
        for role in ("x", "y"):
            block = noise.block(role, 6, 12, 5)
            for i in range(6):
                row = reference_block(
                    lambda key1: _philox_words(77, key1, 12, 5 * i, 5), role, 1, 5
                )
                np.testing.assert_array_equal(block[i], row[0])
        xs, ys = noise.block("x", 6, 0, 5), noise.block("y", 6, 0, 5)
        for i in range(6):
            np.testing.assert_array_equal(
                np.stack([xs[i], ys[i]], axis=1).ravel(),
                standard_normal_block(77, int(_role_code("x")), 10 * i, 10))

    def test_noise_independent_of_particle_count(self):
        noise = KeyedNoise(5)
        small = noise.block("y", 5, 3, 2)
        large = noise.block("y", 9, 3, 2)
        np.testing.assert_array_equal(small, large[:5])

    def test_roles_and_steps_separate_streams(self):
        noise = KeyedNoise(5)
        a = noise.block("x", 4, 0, 3)
        b = noise.block("y", 4, 0, 3)
        c = noise.block("x", 4, 1, 3)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_check_stream_ids_are_distinct_role_codes(self, monkeypatch):
        # Every tag the suites draw from, seen at the call.
        tags = []
        monkeypatch.setattr(checks, "derive_stream_id",
                            lambda tag: tags.append(tag) or derive_stream_id(tag))
        checks.run_all_checks(seed=0)
        ids = {tag: int(derive_stream_id(tag)) for tag in tags}
        assert len(ids) == len(set(ids.values())) == 9
        for tag, stream_id in ids.items():
            assert stream_id == int(_role_code(tag))
        assert not set(ids) & set(rng._PAIR_OF)

    @pytest.mark.parametrize("role", ["x", "y", "init-x", "init-y"])
    def test_stream_ids_refuse_the_particle_roles(self, role):
        # The code of x keys the particle noise, so a probe stream under it
        # would read the x/y blocks of step 0.
        with pytest.raises(ValueError, match=f"^'{role}' is a particle noise role"):
            derive_stream_id(role)

    def test_rejects_a_step_past_the_counter_word(self):
        with pytest.raises(ValueError, match="^step must be at most 2\\*\\*64 - 1$"):
            KeyedNoise(0).block("x", 1, 2**64, 1)

    def test_a_slab_stops_at_the_last_step(self):
        # The horizon lies past the last step a counter word holds.
        noise = KeyedNoise(0, horizon=2**64 + 5)
        last = noise.block("x", 1, 2**64 - 1, 1)
        assert last.tobytes() == KeyedNoise(0).block("x", 1, 2**64 - 1, 1).tobytes()
        assert noise.block("y", 1, 2**64 - 1, 1).tobytes() == (
            KeyedNoise(0).block("y", 1, 2**64 - 1, 1).tobytes())

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            KeyedNoise(-1)
        with pytest.raises(ValueError):
            standard_normal_block(2**64, 0, 0, 1)


class TestWholeStreamOracle:
    @pytest.mark.parametrize(
        "seed,stream_id", [(0, 0), (9, 5), (2**64 - 1, 2**63 + 11)]
    )
    def test_any_range_matches_numpy_philox(self, seed, stream_id):
        # Draws 0..63: both variates of each of numpy's words 0..31.
        reference = np.stack(
            reference_pairs(numpy_philox_words(seed, stream_id, 32)), axis=1).ravel()
        for start in range(0, 13):
            for count in (1, 3, 4, 5, 17, 64 - start):
                np.testing.assert_array_equal(
                    standard_normal_block(seed, stream_id, start, count),
                    reference[start:start + count],
                )

    @pytest.mark.parametrize("n,dim", [(1, 1), (3, 4), (5, 9), (64, 2)])
    def test_keyed_rows_match_numpy_philox(self, n, dim):
        block = KeyedNoise(31).block("y", n, 6, dim)
        for i in range(n):
            row = reference_block(
                lambda key1: numpy_philox_words(31, key1, dim, counter1=6, start=i * dim),
                "y", 1, dim,
            )
            np.testing.assert_array_equal(block[i], row[0])


class TestSharedGenerator:
    """Every draw re-addresses one generator; no draw sees another's state."""

    def test_interleaved_blocks_and_streams_match_oracle(self):
        noises = {seed: KeyedNoise(seed) for seed in (3, 2**64 - 5)}
        drawn = {sid: 0 for sid in (11, 2**63 + 7)}
        for i in range(24):
            seed = (3, 2**64 - 5)[i % 2]
            role = ("x", "y", "init-x")[i % 3]
            n, dim = 1 + i % 5, 1 + i % 3
            np.testing.assert_array_equal(
                noises[seed].block(role, n, i, dim),
                reference_block(
                    lambda key1: numpy_philox_words(seed, key1, n * dim, counter1=i),
                    role, n, dim,
                ),
            )
            sid = (11, 2**63 + 7)[i % 2]
            count = 2 * i + 1  # odd, so later draws start mid-word
            np.testing.assert_array_equal(
                standard_normal_block(3, sid, drawn[sid], count),
                reference_draws(lambda first, k: numpy_philox_words(3, sid, k, start=first),
                                drawn[sid], count),
            )
            drawn[sid] += count

    def test_concurrent_threads_draw_oracle_blocks(self):
        n, dim, steps = 64, 3, 60
        results = {}
        barrier = threading.Barrier(4, timeout=30)

        def draw(seed):
            noise = KeyedNoise(seed)
            barrier.wait()
            results[seed] = [noise.block("x", n, step, dim) for step in range(steps)]

        threads = [threading.Thread(target=draw, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in range(4):
            for step, block in enumerate(results[seed]):
                np.testing.assert_array_equal(
                    block,
                    reference_block(
                        lambda key1: numpy_philox_words(seed, key1, n * dim, counter1=step),
                        "x", n, dim,
                    ),
                )

    def test_draws_construct_no_generator(self, monkeypatch):
        constructed = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            constructed.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        noise = KeyedNoise(8)
        for step in range(50):
            noise.block("x", 16, step, 2)
            standard_normal_block(8, 99, 3 * step, 3)
        assert constructed == []


class TestPartnerCache:
    """A block served from the pair cache has the bytes of a fresh draw."""

    SEED = 2**63 + 9

    def fresh(self, role, n, step, dim):
        return KeyedNoise(self.SEED).block(role, n, step, dim).tobytes()

    @pytest.mark.parametrize("calls", [
        [("x", 5, 3, 2), ("y", 5, 3, 2)],
        [("y", 5, 3, 2), ("x", 5, 3, 2)],
        [("x", 5, 3, 2), ("x", 5, 3, 2), ("y", 5, 3, 2), ("y", 5, 3, 2)],
        [("y", 5, 3, 2), ("y", 5, 3, 2)],
        [("x", 5, 3, 2), ("y", 7, 3, 2), ("y", 5, 3, 2), ("x", 7, 3, 2)],
        [("x", 6, 3, 1), ("y", 3, 3, 2), ("y", 6, 3, 1)],
        [("x", 4, 0, 2), ("x", 4, 1, 2), ("y", 4, 0, 2), ("y", 4, 1, 2)],
        [("init-x", 4, 0, 2), ("x", 4, 0, 2), ("init-y", 4, 0, 2), ("y", 4, 0, 2)],
        [("init-y", 4, 0, 2), ("y", 4, 0, 2), ("init-x", 4, 0, 2), ("x", 4, 0, 2)],
    ], ids=["x-y", "y-x", "x-twice", "y-twice", "other-n", "other-dim",
            "interleaved-steps", "interleaved-pairs", "interleaved-pairs-y-first"])
    def test_any_call_order_matches_fresh_draws(self, calls):
        noise = KeyedNoise(self.SEED)
        for call in calls:
            assert noise.block(*call).tobytes() == self.fresh(*call)

    def test_a_cached_block_is_returned_once(self):
        noise = KeyedNoise(self.SEED)
        noise.block("x", 3, 1, 2)
        first = noise.block("y", 3, 1, 2)
        first += 100.0  # the caller owns it; a later draw is unaffected
        assert noise.block("y", 3, 1, 2).tobytes() == self.fresh("y", 3, 1, 2)

    def test_threads_sharing_one_object_get_fresh_bytes(self):
        noise = KeyedNoise(self.SEED)
        results = {}
        barrier = threading.Barrier(4, timeout=30)

        def draw(t):
            # Threads 0 and 1 ask for the same addresses, 2 and 3 for others,
            # in opposite role orders, so cache entries cross threads.
            roles = ("x", "y") if t % 2 == 0 else ("y", "x")
            barrier.wait()
            results[t] = [(role, step, noise.block(role, 8, step + 10 * (t // 2), 2))
                          for step in range(40) for role in roles]

        threads = [threading.Thread(target=draw, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(4):
            for role, step, block in results[t]:
                assert block.tobytes() == self.fresh(role, 8, step + 10 * (t // 2), 2)

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError, match="unknown noise role 'z'"):
            KeyedNoise(1).block("z", 2, 0, 1)


class TestSlabCache(TestPartnerCache):
    """``TestPartnerCache``'s cases again with a horizon, so that a miss
    draws a slab of many steps and later calls are served from it."""

    HORIZON = 64

    @pytest.fixture(autouse=True)
    def noise_with_a_horizon(self, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "KeyedNoise",
                            functools.partial(rng.KeyedNoise, horizon=self.HORIZON))

    def fresh(self, role, n, step, dim):
        return rng.KeyedNoise(self.SEED).block(role, n, step, dim).tobytes()

    def test_a_served_row_does_not_alias_the_rest_of_its_slab(self):
        noise = KeyedNoise(self.SEED)
        first = noise.block("y", 3, 1, 2)
        first += 100.0
        for step in range(2, 5):
            for role in ("x", "y"):
                assert noise.block(role, 3, step, 2).tobytes() == self.fresh(role, 3, step, 2)


class TestSlabBits:
    """Rows served from a slab have the bytes of one-step draws.

    One Box-Muller pass over a slab computes each step's words at another
    array length and offset than a one-step draw does.  This pins that
    numpy's ``log``, ``sqrt``, ``cos`` and ``sin`` give each element the
    same bits either way, SIMD tails included.  A failure here is a declared
    noise change, and the manifest's ``versions.numpy_simd`` names the
    dispatch target it was seen on.
    """

    # (n, dim, seed): odd lengths, a 16-word step and steps of 4094 to 4096
    # words, which fill a slab alone.
    CASES = [(1, 1, 0), (3, 5, 7), (7, 3, 2**63 + 9), (16, 1, 2**64 - 1),
             (64, 2, 0), (512, 1, 7), (512, 8, 2**63 + 9), (5, 7, 2**64 - 1),
             (33, 1, 0), (1, 4096, 7), (2, 2047, 2**63 + 9)]

    @pytest.mark.parametrize("start", [0, 7, 1000])
    @pytest.mark.parametrize("n, dim, seed", CASES, ids=[f"{n}x{d}" for n, d, _ in CASES])
    def test_slab_rows_equal_one_step_blocks(self, n, dim, seed, start):
        per_slab = max(rng._SLAB_WORDS // (n * dim), 1)
        # One whole slab, then one that the horizon cuts short.
        horizon = start + per_slab + max(per_slab // 3, 1)
        slab, one_step = KeyedNoise(seed, horizon=horizon), KeyedNoise(seed)
        for step in range(start, horizon):
            for role in ("x", "y"):
                assert (slab.block(role, n, step, dim).tobytes()
                        == one_step.block(role, n, step, dim).tobytes()), (role, step)

    def test_an_integral_float_step_reads_its_integer_address(self):
        for horizon in (None, 10.0):
            block = KeyedNoise(5, horizon=horizon).block("y", 3, 4.0, 2)
            assert block.tobytes() == KeyedNoise(5).block("y", 3, 4, 2).tobytes()


def consecutive_x_blocks(seed, n, dim, steps):
    """Each step's x block, drawn as a run draws them: x then y at every
    step of a ``KeyedNoise`` whose horizon is the run's length."""
    noise = KeyedNoise(seed, horizon=steps)
    blocks = []
    for step in range(steps):
        blocks.append(noise.block("x", n, step, dim).ravel())
        noise.block("y", n, step, dim)
    return blocks


def dependent_steps(blocks):
    """Steps ``k >= 1`` whose x block equals step ``k - 1``'s or correlates
    with it beyond ``5 / sqrt(m)`` for blocks of ``m`` variates.  For
    independent blocks the sample correlation is about N(0, 1/m), so one
    pair passes the bound with probability ``1 - 6e-7``."""
    bound = 5.0 / np.sqrt(blocks[0].size)
    return [k for k in range(1, len(blocks))
            if np.array_equal(blocks[k - 1], blocks[k])
            or abs(np.corrcoef(blocks[k - 1], blocks[k])[0, 1]) >= bound]


class TestStepIndependence:
    """Noise of consecutive steps is independent, across slab boundaries."""

    N, DIM, STEPS = 64, 2, 100  # couple's cloud; 32 steps per slab

    def test_consecutive_x_blocks_are_distinct_and_uncorrelated(self):
        assert rng._SLAB_WORDS // (self.N * self.DIM) < self.STEPS
        for seed in (0, 8, 2**64 - 1):
            assert dependent_steps(consecutive_x_blocks(seed, self.N, self.DIM, self.STEPS)) == []

    def test_noise_read_one_step_late_fails_it(self, monkeypatch):
        monkeypatch.setattr(rng.KeyedNoise, "block", noise_read_one_step_late)
        assert dependent_steps(consecutive_x_blocks(8, self.N, self.DIM, self.STEPS)) == [1]


class TestGoodnessOfFit:
    def test_pooled_keyed_variates_are_standard_normal(self):
        # 10**6 variates pooled over roles and steps, as the dynamics draw them.
        noise = KeyedNoise(2024)
        z = np.concatenate([
            noise.block(role, 1000, step, 2).ravel()
            for role in ("x", "y") for step in range(250)
        ])
        assert z.size == 10**6
        # KS against N(0, 1): reject at the 0.1% level (D > 1.949 / sqrt(n)).
        ks = stats.kstest(z, "norm")
        assert ks.statistic < 1.949 / np.sqrt(z.size)
        # Chi-square on 64 equiprobable bins (63 dof): reject at the 0.1%
        # level (statistic > 103.44).
        edges = ndtri(np.arange(1, 64) / 64.0)
        counts = np.bincount(np.searchsorted(edges, z), minlength=64)
        chi2 = float(np.sum((counts - z.size / 64) ** 2 / (z.size / 64)))
        assert chi2 < stats.chi2.ppf(0.999, 63)


class TestNoiseSchemeGolden:
    """Pinned variates of the current ``noise_scheme``.

    A change to the role code, the pairing, the key or counter layout or the
    Box-Muller transform fails here.  Such a change must update these
    literals and the manifest's ``noise_scheme`` together.  The bits of
    ``log``/``sqrt``/``sin``/``cos`` are numpy's, chosen by the SIMD targets
    the manifest records; the literals were taken on an x86-64 host with
    AVX512_SPR (numpy 2.4).
    """

    SCHEME = (
        "v3: numpy philox4x64-10; role pairs (x, y) and (init-x, init-y) share "
        "block words i*d..i*d+d-1 for row i at key (seed, sha256 code of the "
        "first role), counter word 1 = step; box-muller per word: "
        "u1 = (hi32 + 0.5) * 2**-32, r = sqrt(-2 ln u1) in float64, "
        "theta = (float32(int32 lo32) + 0.5) * float32(2 pi / 2**32), "
        "first role r*cos32(theta), second role r*sin32(theta); "
        "scalar stream draws 2j, 2j+1 = r*cos32(theta), r*sin32(theta) of word j"
    )

    def test_keyed_block(self):
        expected = {
            "x": [
                ["0x1.e706464a12e0fp-3", "0x1.30eb540fc324ap+0", "-0x1.8bdae332b3b87p+0"],
                ["-0x1.322ad87bd9f7cp-1", "-0x1.4eacfeeca0fbdp-1", "0x1.64720790f3781p-1"],
            ],
            "y": [
                ["-0x1.5c91a1913e1c2p-1", "0x1.2fb5a72deb042p-5", "0x1.84df0611d2577p-1"],
                ["-0x1.01ed91f29cdc5p+0", "-0x1.d3ab72e041fe6p+0", "0x1.7f6290fef7c51p+0"],
            ],
        }
        noise = KeyedNoise(0)
        for role in ("x", "y"):
            block = noise.block(role, 2, 0, 3)
            assert [[float(v).hex() for v in row] for row in block] == expected[role]

    def test_scalar_stream(self):
        expected = [
            "-0x1.964900a9f694dp-2", "-0x1.7aca78795046ap+0", "0x1.f287304a351abp-1",
            "0x1.0dfb5decc1e66p+0", "-0x1.2e711b339f811p+1",
        ]
        draws = standard_normal_block(1, 2, 0, 5)
        assert [float(v).hex() for v in draws] == expected

    def test_manifest_names_this_scheme(self, tmp_path):
        config = parse_config(
            "payoff.kind = QuadraticBilinear\npayoff.dim = 1\n"
            "payoff.A = [1.0]\npayoff.B = [1.0]\npayoff.C = [0.5]\n"
            "tau = 1.0\nseed = 1\nalgorithm.eta = 0.005\n"
            "algorithm.n_particles = 4\nalgorithm.steps = 2\n"
            f"output.dir = {tmp_path}\n"
        )
        manifest = json.loads(run_experiment(config).manifest_path.read_text())
        assert manifest["noise_scheme"] == self.SCHEME
