import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_langevin import (
    KeyedNoise,
    create_stream,
    derive_stream_id,
    parse_config,
    run_experiment,
    standard_normal_block,
)
from minmax_langevin.rng import _philox_block, _words_to_normals


def numpy_philox_normals(seed, stream_id, n):
    """The first ``n`` draws of a stream, generated by numpy's Philox."""
    words = np.random.Philox(
        key=np.array([seed, int(stream_id)], dtype=np.uint64)
    ).random_raw(n)
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
    def test_matches_numpy_philox(self):
        # numpy's Philox emits the block at counter c+1 when initialized with
        # counter c, which is exactly the convention the streams use.
        for key0, key1, block in [(0, 0, 1), (123, 456, 8), (2**64 - 1, 7, 3)]:
            ours = _philox_block(
                np.array([block], dtype=np.uint64),
                np.uint64(key0),
                np.uint64(key1),
            )
            ref = np.random.Philox(
                counter=np.array([block - 1, 0, 0, 0], dtype=np.uint64),
                key=np.array([key0, key1], dtype=np.uint64),
            ).random_raw(4)
            assert [int(lane[0]) for lane in ours] == [int(v) for v in ref]

    def test_vectorized_matches_scalar(self):
        counters = np.arange(1, 9, dtype=np.uint64)
        batch = _philox_block(counters, np.uint64(5), np.uint64(6))
        for i, c in enumerate(counters):
            single = _philox_block(
                np.array([c], dtype=np.uint64), np.uint64(5), np.uint64(6)
            )
            assert all(batch[lane][i] == single[lane][0] for lane in range(4))


class TestKeyedNoise:
    def test_rows_match_scalar_streams(self):
        noise = KeyedNoise(77)
        block = noise.block("x", 6, 12, 5)
        for i in range(6):
            stream = create_stream(77, derive_stream_id("x", i, 12))
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
            stream_id = derive_stream_id("y", i, 6)
            np.testing.assert_array_equal(
                block[i], numpy_philox_normals(31, stream_id, dim)
            )


class TestNoiseSchemeGolden:
    """Pinned variates of the current ``noise_scheme``.

    A change to the role hash, the splitmix chain, the counter layout or the
    inverse CDF fails here.  Such a change must update these literals and
    the manifest's ``noise_scheme`` together.
    """

    SCHEME = (
        "philox4x64-10 keyed by (seed, stream_id); "
        "stream_id = splitmix64 chain over (sha256 role tag, particle, step); "
        "inverse-CDF gaussians"
    )

    def test_keyed_block(self):
        expected = [
            ["-0x1.476825f84f251p-6", "-0x1.0478ce0e93305p-2", "0x1.26c944f598885p-3"],
            ["-0x1.b2845ea51af3cp-1", "0x1.e369622a5b99dp-3", "0x1.d205417c79563p-1"],
        ]
        block = KeyedNoise(0).block("x", 2, 0, 3)
        assert [[float(v).hex() for v in row] for row in block] == expected

    def test_scalar_stream(self):
        expected = [
            "-0x1.fdbd7eea36500p-2", "-0x1.7767b96f89265p-2", "-0x1.c9acf1ad7699ep+0",
            "0x1.c5f0908109d49p+0", "-0x1.099944b51bcf8p+1",
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
