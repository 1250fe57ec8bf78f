"""The shared probe sweep of ``checks``, seen through the benchmark's tracer.

The tracer (perfbench/tracer.py) attributes probe work by patching names in
``minmax_langevin.checks``; this guards that the sweep still goes through
them, in chunks, with the draw sizes of the parent layout.
"""

import importlib.util
from pathlib import Path

from minmax_langevin import checks

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lipschitz_sweep_crosses_a_chunk_boundary_under_the_tracer(monkeypatch):
    tracer = _load_tracer()
    quad, _ = checks.default_specs()
    monkeypatch.setattr(checks, "_PROBE_CHUNK", 999)
    t = tracer.Tracer()
    with tracer.patched(t, tracer.resolve()):
        result = checks.check_lipschitz(quad, seed=0)
    assert result.passed
    # Lipschitz's 1000 pairs as 999 + 1, each chunk drifting both point sets.
    assert t.counts["checks.probes"] == 2000
    assert t.calls["dynamics.drift"] == 4
    # One standard-normal block per chunk: 2 points x 2nd coordinates a pair.
    width = 2 * 4 * quad.dim
    assert t.calls["rng.stream_draw"] == 2
    assert t.counts["rng.variates"] == 2 * 1000 * width
