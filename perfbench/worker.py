"""One benchmark repeat in a fresh interpreter.

    python3 perfbench/worker.py <spawn time> <job.json>

``spawn time`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux).  The worker imports
the package, parses the workload config, notes when it is ready, makes the
workload's CLI call and writes what it measured to the job's result path.
With ``trace`` set, the call runs under the per-layer wrappers of tracer.py.
"""

import time  # first, so nothing runs before the set-up clock is readable

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import traceback
from pathlib import Path

PROBE_PERIOD_S = 0.05  # wall time between probes during an untraced call
ENDPOINT_PROBES = 5    # probes right before and right after the call


def _records_summary(bundle, kl_target):
    """(time_to_kl_s, time_to_kl_steps) read off the checkpoint records."""
    records = bundle.records
    if kl_target is None:
        last = records[-1]
        return last.wall_time, last.step
    for rec in records:
        if rec.kl_fit_to_eq is not None and rec.kl_fit_to_eq <= kl_target:
            return rec.wall_time, rec.step
    return None, None


def main():
    spawn_time = float(sys.argv[1])
    job = json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))

    import minmax_langevin
    from minmax_langevin import cli, config

    from workloads import WORKLOADS

    src = Path(job["src"]).resolve()
    if src not in Path(minmax_langevin.__file__).resolve().parents:
        raise SystemExit(f"minmax_langevin imported from outside {src}")
    workload = WORKLOADS[job["workload"]]

    tracer = None
    patches = contextlib.nullcontext()
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        patches = tracing.patched(tracer, tracing.resolve())

    result = {}
    with patches:
        if workload.config:
            config.parse_config(
                Path(job["config_path"]).read_text(encoding="utf-8")
            )
        ready = time.monotonic()
        result["setup_s"] = ready - spawn_time
        if not job["setup_only"]:
            # Traced calls are not probed inside: the probes would land in
            # the self time of whichever layer they interrupt.
            sampler = _Sampler(0.0 if tracer else PROBE_PERIOD_S)
            sampler.probe(ENDPOINT_PROBES)
            result.update(_call(workload, job, cli, sampler))
            sampler.probe(ENDPOINT_PROBES)
            result["probe_s"] = sum(sampler.samples) / len(sampler.samples)
            result["probes"] = len(sampler.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
        }
    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "minmax_langevin": minmax_langevin.__version__,
    }
    result["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")


def _probe_s():
    """Seconds for fixed work shaped like the workloads' steps: interpreter
    loops, small-array numpy calls, uint64 mixing and the inverse normal CDF
    (as in counter-based noise), and one pairwise-difference kernel.

    It runs no package code, so only the speed of the host moves it.  The
    benchmark divides by it to take out the slow spells other tenants put on
    a shared core (README.md, "Noise on this host").  Its arrays are small,
    so it does not set the worker's peak RSS.
    """
    import numpy
    from scipy.special import ndtri

    small = numpy.linspace(-1.0, 1.0, 128).reshape(64, 2)
    mixing = numpy.array([[0.9, 0.1], [-0.1, 0.9]])
    words = numpy.arange(1, 1025, dtype=numpy.uint64)
    multiplier = numpy.uint64(0xD2E7470EE14C6C93)
    large = numpy.linspace(-1.0, 1.0, 512).reshape(64, 8)
    diff = numpy.empty((64, 64, 8))
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i & 7
    state = small
    for _ in range(150):
        state = state @ mixing + 0.01 * small
        numpy.isfinite(state).all()
    for _ in range(50):
        mixed = (words * multiplier) ^ (words >> numpy.uint64(29))
        ndtri((mixed >> numpy.uint64(11)) * 2.0**-53 + 2.0**-54)
    for _ in range(6):
        numpy.subtract(large[:, None, :], large[None, :, :], out=diff)
        numpy.multiply(diff, diff, out=diff).sum()
    return time.perf_counter() - start


class _Sampler:
    """Host-speed samples: _probe_s() times taken around and during a call.

    While active it runs a probe every ``period`` seconds of wall time from a
    SIGALRM handler, that is on the main thread between the call's bytecodes,
    so a slow spell in the middle of a long call is seen too.  ``spent`` is
    the time those probes took; the caller takes it off the call's wall time.
    A period of 0 probes nothing during the call.
    """

    def __init__(self, period):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def probe(self, count=1):
        for _ in range(count):
            self.samples.append(_probe_s())

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.probe()
        self.spent += time.perf_counter() - start

    def __enter__(self):
        if self.period:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def _call(workload, job, cli, sampler):
    """Make the workload's CLI call and describe its outcome."""
    argv = workload.argv(job["seed"], job["config_path"], job["output_dir"])
    bundles = []
    run_experiment = cli.run_experiment

    def capture(*args, **kwargs):
        bundle = run_experiment(*args, **kwargs)
        bundles.append(bundle)
        return bundle

    out, err = io.StringIO(), io.StringIO()
    cli.run_experiment = capture
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with sampler:
                start = time.perf_counter()
                exit_code = cli.main(argv)
                raw_wall = time.perf_counter() - start
    except Exception:  # the call's failure is this repeat's result
        return {"exit_code": None, "error": traceback.format_exc()}
    finally:
        cli.run_experiment = run_experiment

    wall = raw_wall - sampler.spent
    result = {"exit_code": exit_code, "wall_s": wall, "error": err.getvalue()[-2000:]}
    if bundles:
        bundle = bundles[-1]
        result["digest"] = hashlib.sha256(bundle.csv_path.read_bytes()).hexdigest()
        result["records"] = len(bundle.records)
        record_time, result["time_to_kl_steps"] = _records_summary(
            bundle, workload.kl_target
        )
        # Records are timed by the program's own clock, probes included; the
        # probes are evenly spread, so they take the same share off.
        result["time_to_kl_s"] = (
            None if record_time is None else record_time * wall / raw_wall)
        result["bytes_written"] = sum(
            p.stat().st_size for p in Path(job["output_dir"]).rglob("*") if p.is_file()
        )
    else:
        result["digest"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        result["records"] = 0
        result["time_to_kl_s"], result["time_to_kl_steps"] = wall, 0
        result["bytes_written"] = 0
    return result


if __name__ == "__main__":
    main()
