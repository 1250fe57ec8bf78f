import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

from minmax_langevin import (
    KeyedNoise,
    create_stream,
    derive_stream_id,
    parse_config,
    run_experiment,
    standard_normal_block,
)
from minmax_langevin.rng import _philox_words, _role_code, _words_to_normals

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


def numpy_philox_normals(seed, key1, n, counter1=0, start=0):
    """Draws ``start .. start+n-1`` of ``(seed, key1, counter1)``, generated
    by numpy's Philox constructed here rather than through ``rng``."""
    words = np.random.Philox(
        key=np.array([seed, int(key1)], dtype=np.uint64),
        counter=np.array([start // 4, counter1, 0, 0], dtype=np.uint64),
    ).random_raw(start % 4 + n)[start % 4:]
    return _words_to_normals(words)


class TestStreams:
    def test_same_stream_replays(self):
        a = standard_normal_block(create_stream(42, 0), 16)
        b = standard_normal_block(create_stream(42, 0), 16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = standard_normal_block(create_stream(42, 0), 4)
        b = standard_normal_block(create_stream(42, 1), 4)
        assert a[0] != b[0]

    def test_zero_seed_allowed(self):
        out = standard_normal_block(create_stream(0, 0), 4)
        assert np.isfinite(out).all()

    def test_counter_consistency_two_plus_two(self):
        whole = standard_normal_block(create_stream(9, 5), 4)
        s = create_stream(9, 5)
        split = np.concatenate(
            [standard_normal_block(s, 2), standard_normal_block(s, 2)]
        )
        np.testing.assert_array_equal(whole, split)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        total=st.integers(min_value=1, max_value=64),
        cut=st.integers(min_value=0, max_value=64),
        seed=st.integers(min_value=0, max_value=2**63),
    )
    def test_any_split_matches_whole_block(self, total, cut, seed):
        cut = min(cut, total)
        whole = standard_normal_block(create_stream(seed, 7), total)
        s = create_stream(seed, 7)
        parts = []
        if cut:
            parts.append(standard_normal_block(s, cut))
        if total - cut:
            parts.append(standard_normal_block(s, total - cut))
        np.testing.assert_array_equal(whole, np.concatenate(parts))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            standard_normal_block(create_stream(1, 1), 0)

    def test_moments_of_a_million_draws(self):
        draws = standard_normal_block(create_stream(2718281828, 0), 10**6)
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
        words = oracle_words(seed, _role_code(role), step, 0, n * dim)
        np.testing.assert_array_equal(block, _words_to_normals(words).reshape(n, dim))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream_id", [0, 42, 2**63 + 11])
    def test_scalar_streams_match_oracle(self, seed, stream_id):
        for start in (0, 1, 2, 3, 4, 5, 13, 255):
            for count in (1, 3, 4, 9):
                stream = create_stream(seed, stream_id)
                stream.index = start
                np.testing.assert_array_equal(
                    standard_normal_block(stream, count),
                    _words_to_normals(oracle_words(seed, stream_id, 0, start, count)),
                )

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 6, 17, 4095])
    def test_words_at_any_offset_match_oracle(self, start):
        for count in (0, 1, 2, 5, 11):
            np.testing.assert_array_equal(
                _philox_words(9, 10, 3, start, count),
                oracle_words(9, 10, 3, start, count),
            )


class TestUniformMap:
    def test_extreme_words(self):
        words = np.array(
            [0, 2**63, 2**64 - 2049, 2**64 - 2048, 2**64 - 1], dtype=np.uint64
        )
        z = _words_to_normals(words)
        assert np.isfinite(z).all()
        assert (z != 0.0).all()
        extreme = ndtri(2.0**-53)  # -8.2095361516013...
        assert abs(extreme + 8.2095361516) < 1e-9
        assert z[0] == extreme
        assert z[2] == z[3] == z[4] == -extreme
        assert 0.0 < z[1] < 1e-15

    def test_uniforms_symmetric_about_one_half(self):
        k = np.array([0, 1, 2**51 - 1, 2**51, 2**52 - 1], dtype=np.uint64)
        words = k << np.uint64(12)
        mirrored = (np.uint64(2**52 - 1) - k) << np.uint64(12)
        np.testing.assert_array_equal(
            _words_to_normals(words), -_words_to_normals(mirrored)
        )


class TestKeyedNoise:
    def test_rows_match_scalar_streams(self):
        # Any row computed alone equals the same row of the block.  At step 0
        # the keyed sequence is the scalar stream keyed by the role code.
        noise = KeyedNoise(77)
        block = noise.block("x", 6, 12, 5)
        for i in range(6):
            row = _words_to_normals(_philox_words(77, _role_code("x"), 12, 5 * i, 5))
            np.testing.assert_array_equal(block[i], row)
        block = noise.block("x", 6, 0, 5)
        for i in range(6):
            stream = create_stream(77, int(_role_code("x")))
            stream.index = 5 * i
            np.testing.assert_array_equal(block[i], standard_normal_block(stream, 5))

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

    def test_stream_id_collision_free_sample(self):
        ids = set()
        for role in ("x", "y", "init-x", "init-y"):
            for particle in range(50):
                for step in range(50):
                    ids.add(int(derive_stream_id(role, particle, step)))
        assert len(ids) == 4 * 50 * 50

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            KeyedNoise(-1)
        with pytest.raises(ValueError):
            create_stream(2**64, 0)


class TestWholeStreamOracle:
    @pytest.mark.parametrize(
        "seed,stream_id", [(0, 0), (9, 5), (2**64 - 1, 2**63 + 11)]
    )
    def test_any_range_matches_numpy_philox(self, seed, stream_id):
        reference = numpy_philox_normals(seed, stream_id, 64)
        for start in range(0, 13):
            for count in (1, 3, 4, 5, 17, 64 - start):
                stream = create_stream(seed, stream_id)
                if start:
                    standard_normal_block(stream, start)
                np.testing.assert_array_equal(
                    standard_normal_block(stream, count),
                    reference[start:start + count],
                )

    @pytest.mark.parametrize("n,dim", [(1, 1), (3, 4), (5, 9), (64, 2)])
    def test_keyed_rows_match_numpy_philox(self, n, dim):
        block = KeyedNoise(31).block("y", n, 6, dim)
        for i in range(n):
            np.testing.assert_array_equal(
                block[i],
                numpy_philox_normals(31, _role_code("y"), dim, counter1=6, start=i * dim),
            )


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

    A change to the role code, the key or counter layout, the uniform map or
    the inverse CDF fails here.  Such a change must update these literals and
    the manifest's ``noise_scheme`` together.
    """

    SCHEME = (
        "v2: numpy philox4x64-10; particle block row i = "
        "words i*d..i*d+d-1 at key (seed, sha256 role code), counter word 1 = "
        "step; u = ((w >> 12) + 0.5) * 2**-52; inverse-CDF gaussians"
    )

    def test_keyed_block(self):
        expected = [
            ["0x1.7c0a51f2ec8dfp-1", "-0x1.57e93f5032976p-6", "-0x1.7fd06d42ca715p-1"],
            ["0x1.180a30a2ed98bp-7", "-0x1.06e15952cf77cp+0", "-0x1.5033fe954488ep-1"],
        ]
        block = KeyedNoise(0).block("x", 2, 0, 3)
        assert [[float(v).hex() for v in row] for row in block] == expected

    def test_scalar_stream(self):
        expected = [
            "-0x1.fdbd7eea36502p-2", "-0x1.7767b96f89261p-2", "-0x1.c9acf1ad76998p+0",
            "0x1.c5f0908109d47p+0", "-0x1.099944b51bcfap+1",
        ]
        draws = standard_normal_block(create_stream(1, 2), 5)
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
