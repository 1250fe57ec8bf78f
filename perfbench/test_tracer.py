"""Self-tests of the benchmark's tracer: python3 -m pytest perfbench -q"""

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_parent_minus_children():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def child():
        clock.now += 3.0

    traced_child = t.wrap("child", child)

    def parent():
        clock.now += 1.0
        traced_child()
        clock.now += 2.0
        traced_child()

    t.wrap("parent", parent)()
    assert t.self_s["parent"] == 3.0
    assert t.self_s["child"] == 6.0
    assert t.calls == {"parent": 1, "child": 2}


def test_reentry_into_the_open_span_is_not_a_new_span():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def inner():
        clock.now += 1.0
        return [1, 2, 3]

    traced_inner = t.wrap("grad", inner)

    def outer():
        clock.now += 1.0
        return traced_inner()

    t.wrap("grad", outer, count=lambda counts, r: counts.update(elems=len(r)))()
    assert t.self_s["grad"] == 2.0
    assert t.calls["grad"] == 1
    assert t.counts["elems"] == 3


def _fake_owner():
    module = types.ModuleType("fake")
    module.work = lambda: 1

    class Box:
        def get(self):
            return 2

    module.Box = Box
    return module


def test_patched_restores_names_on_exception():
    module = _fake_owner()
    originals = (module.work, vars(module.Box)["get"])
    table = [(module, "work", "w", None, None), (module.Box, "get", "g", None, None)]
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(t, table):
            assert module.work() == 1 and module.Box().get() == 2
            assert module.work is not originals[0]
            raise RuntimeError("traced call failed")
    assert (module.work, vars(module.Box)["get"]) == originals
    assert t.calls == {"w": 1, "g": 1}


def test_every_layer_patch_is_restored():
    resolved = tracer.resolve()
    before = [vars(owner)[attr] for owner, attr, *_ in resolved]
    with pytest.raises(KeyError):
        with tracer.patched(tracer.Tracer(), resolved):
            assert all(vars(owner)[attr] is not orig
                       for (owner, attr, *_), orig in zip(resolved, before))
            raise KeyError("boom")
    assert [vars(owner)[attr] for owner, attr, *_ in resolved] == before


_TINY = """\
payoff.kind = QuadraticBilinear
payoff.dim = 1
payoff.A = [1.0]
payoff.B = [1.0]
payoff.C = [0.5]
tau = 1.0
seed = 3
checkpoint_every = 5
algorithm.eta = 0.01
algorithm.n_particles = 8
algorithm.steps = 20
init.mean_mode = explicit
init.mean = [3.0, -3.0]
init.cov_scale = 0.25
"""


def _run(tmp_path, name):
    from minmax_langevin import cli

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(_TINY)
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 0
    return (out / "metrics.csv").read_bytes()


def test_traced_run_counts_exactly_and_keeps_csv_bytes(tmp_path):
    plain = _run(tmp_path, "plain")
    t = tracer.Tracer()
    with tracer.patched(t, tracer.resolve()):
        traced = _run(tmp_path, "traced")
    assert traced == plain
    n, d, steps = 8, 1, 20
    assert t.counts["dynamics.steps"] == steps
    assert t.calls["dynamics.drift"] == steps
    # init-x and init-y, then the x and y blocks of every step
    assert t.counts["rng.variates"] == 2 * n * d * (steps + 1)
    assert t.calls["rng.block"] == 2 * (steps + 1)
    assert t.calls["metrics.fit"] == steps // 5 + 1
    assert t.self_s["cli"] > 0.0
