"""The pair suites' shared sweep: one draw per chunk for every payoff family.

``run_all_checks`` runs each pair suite's body on both default payoffs at
once; a family's result must be the one its single-payoff check gives, at
any chunk size, and the two families must share each chunk's draw.
"""

import pytest
from test_probe_driver import _load_tracer

from minmax_langevin import checks

SUITES = [(checks._monotonicity, checks.check_monotonicity),
          (checks._lipschitz, checks.check_lipschitz),
          (checks._contraction, checks.check_contraction)]


@pytest.mark.parametrize("chunk", [2000, 999])
@pytest.mark.parametrize("body, check", SUITES, ids=["monotone", "lipschitz", "contraction"])
def test_each_family_of_a_shared_sweep_is_its_own_check(monkeypatch, chunk, body, check):
    monkeypatch.setattr(checks, "_PROBE_CHUNK", chunk)
    specs = checks.default_specs(2)
    assert body(specs, 3) == [check(spec, seed=3) for spec in specs]


def test_two_families_share_each_chunk_draw_under_the_tracer(monkeypatch):
    tracer = _load_tracer()
    monkeypatch.setattr(checks, "_PROBE_CHUNK", 999)
    t = tracer.Tracer()
    with tracer.patched(t, tracer.resolve()):
        results = checks._lipschitz(checks.default_specs(2), 0)
    assert all(result.passed for result in results)
    # 1000 pairs as 999 + 1: one draw per chunk, both point sets of both
    # families drifted from it.
    assert t.calls["rng.stream_draw"] == 2
    assert t.counts["checks.probes"] == 4000
