"""Benchmark entry point: repeat one workload's CLI call for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Every repeat is a fresh worker process (worker.py), started only after the
previous one has ended; each sets up, makes the workload's call once and
exits.  Repeats continue until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repeats, with every timing scaled to a nominal host speed (see
``_scaled``).  ``--trace 1`` alternates untraced and traced repeats and
reports the per-layer metrics from the traced ones.  Every repeat is checked
(see ``_problems``); the last stdout line is the JSON result, and the lines
before it give machine facts, sample counts and, when tracing, layer shares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SUBSEEDS = 8             # config seeds per run, derived from --seed
MIN_REPEATS = 3          # untraced repeats per run, at least
MIN_TRACED = 2           # traced repeats per traced run, at least
DEADLINE_S = 170         # the whole run ends within this, hung workers included
BLAS_THREADS = "1"
# About worker._probe_s() on an undisturbed core of the host in README.md.  Every
# timing is scaled by PROBE_NOMINAL_S / (the repeat's mean probe time).
PROBE_NOMINAL_S = 0.003

# Self-time per-layer metrics and the span whose self time they report.
SPAN_METRICS = {
    "payoff.grad_s": "payoff.grad",
    "dynamics.drift_s": "dynamics.drift",
    "dynamics.step_s": "dynamics.step",
    "dynamics.coupled_s": "dynamics.coupled",
    "dynamics.run_s": "dynamics.run",
    "rng.block_s": "rng.block",
    "rng.stream_id_s": "rng.stream_id",
    "rng.stream_draw_s": "rng.stream_draw",
    "metrics.fit_s": "metrics.fit",
    "metrics.kl_s": "metrics.kl",
    "metrics.w2_s": "metrics.w2",
    "deterministic.gap_s": "deterministic.gap",
    "deterministic.solve_s": "deterministic.solve",
    "oracle.envelope_s": "oracle.envelope",
    "oracle.reference_s": "oracle.reference",
    "experiment.self_s": "experiment",
    "experiment.init_s": "experiment.init",
    "config.parse_s": "config.parse",
    "checks.self_s": "checks",
    "cli.self_s": "cli",
}
# Per-layer counts: span entries, or counters the wrappers tally.
CALL_METRICS = {
    "payoff.grad_calls": "payoff.grad",
    "dynamics.drift_calls": "dynamics.drift",
    "rng.block_calls": "rng.block",
}
COUNT_METRICS = ("payoff.grad_elems", "dynamics.steps", "rng.variates",
                 "checks.probes")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _machine_facts():
    facts = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), "unknown")
    except OSError:
        facts["cpu_model"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    facts["caches"] = caches
    return facts


def _code_hash():
    """Hash of the package source and the workload inputs."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "minmax_langevin").glob("*.py")) + [HERE / "workloads.py"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _spawn(workload, seed, index, trace, setup_only, run_dir, config_path, timeout):
    """Run one worker to completion and return its result, or its error."""
    output_dir = run_dir / f"out{index}"
    result_path = run_dir / f"result{index}.json"
    job_path = run_dir / f"job{index}.json"
    job = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "setup_only": setup_only, "src": str(SRC),
        "config_path": str(config_path), "output_dir": str(output_dir),
        "result_path": str(result_path),
    }
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    spawn_time = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), repr(spawn_time), str(job_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker killed after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": proc.stderr.decode(errors="replace")[-2000:]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(output_dir, ignore_errors=True)
    return result


def _problems(workload, result, reference_digest):
    """Why this repeat fails, or an empty list."""
    if "exit_code" not in result:
        return [f"worker failed: {result.get('error', '')}"]
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}: {result['error']}")
    elif workload.kl_target is not None and result["time_to_kl_steps"] is None:
        problems.append(f"KL never reached {workload.kl_target}")
    if reference_digest is not None and result.get("digest") != reference_digest:
        problems.append("output digest differs from an earlier repeat of this code and seed")
    return problems


def _load_digests(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _scaled(result, key):
    """A timing of one repeat, scaled to the nominal host speed."""
    return result[key] * PROBE_NOMINAL_S / result["probe_s"]


def _end_to_end(workload, results):
    wall = median(_scaled(r, "wall_s") for r in results)
    return {
        "wall_s": wall,
        "particle_steps_per_s": workload.particle_steps / wall,
        "time_to_kl_s": median(_scaled(r, "time_to_kl_s") for r in results),
        "setup_s": median(_scaled(r, "setup_s") for r in results),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
    }


def _per_layer(traced, untraced):
    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = median(r["trace"]["self_s"].get(span, 0.0) for r in traced)
    first = traced[0]
    for name, span in CALL_METRICS.items():
        metrics[name] = first["trace"]["calls"].get(span, 0)
    for name in COUNT_METRICS:
        metrics[name] = first["trace"]["counts"].get(name, 0)
    metrics["metrics.records"] = first["records"]
    metrics["metrics.time_to_kl_steps"] = first["time_to_kl_steps"]
    metrics["experiment.bytes_written"] = median(r["bytes_written"] for r in traced)
    metrics["trace.overhead_ratio"] = (
        median(_scaled(r, "wall_s") for r in traced)
        / median(_scaled(r, "wall_s") for r in untraced))
    return metrics


def _exact_mismatch(traced, untraced):
    """What differs between traced repeats, or between traced and untraced."""
    def outcome(r):
        return r["records"], r["time_to_kl_steps"]

    first = traced[0]
    for other in traced[1:]:
        if (outcome(other), other["trace"]["calls"], other["trace"]["counts"]) != (
                outcome(first), first["trace"]["calls"], first["trace"]["counts"]):
            return "traced repeats disagree on counts"
    if any(outcome(other) != outcome(first) for other in untraced):
        return "traced and untraced repeats disagree on records"
    return None


def main(argv=None):
    deadline = time.monotonic() + DEADLINE_S
    args = _parse_args(argv)
    if not (SRC / "minmax_langevin" / "__init__.py").is_file():
        print(f"no minmax_langevin source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    # Untraced repeats cycle through SUBSEEDS config seeds derived from --seed,
    # so a seed-dependent result (the KL crossing) is a median over seeds.
    # Traced repeats all use the first, so their counts can be compared.
    seeds = [(args.seed * SUBSEEDS + j) % 2**64 for j in range(SUBSEEDS)]

    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_paths = [run_dir / f"seed{j}.cfg" for j in range(SUBSEEDS)]
    for seed, path in zip(seeds, config_paths):
        path.write_text(workload.config_text(seed), encoding="utf-8")
    digest_path = WORK / "digests.json"
    digests = _load_digests(digest_path)
    code_hash = _code_hash()

    # Untimed: compiles bytecode and warms the file cache, which users pay once.
    _spawn(workload, seeds[0], "warmup", False, True, run_dir, config_paths[0],
           deadline - time.monotonic())

    start = time.monotonic()
    ok = {False: [], True: []}
    attempted = failed = 0
    problems_seen = []
    versions = None
    durations = []
    crossings = {}
    while True:
        enough = len(ok[False]) >= MIN_REPEATS and (
            not args.trace or len(ok[True]) >= MIN_TRACED)
        # Stop when one more typical repeat would run past --seconds.
        if enough and time.monotonic() - start + median(durations) > args.seconds:
            break
        if time.monotonic() > deadline:
            break
        if attempted >= MIN_REPEATS and not ok[False] and not ok[True]:
            break  # every repeat so far failed: report rather than retry
        trace = bool(args.trace) and attempted % 2 == 1
        # In pairs, so each seed's digest is checked within the run.
        j = 0 if args.trace else attempted // 2 % SUBSEEDS
        began = time.monotonic()
        result = _spawn(workload, seeds[j], attempted, trace, False, run_dir,
                        config_paths[j], max(deadline - time.monotonic(), 1.0))
        durations.append(time.monotonic() - began)
        attempted += 1
        digest_key = f"{workload.name}:{seeds[j]}:{code_hash}"
        problems = _problems(workload, result, digests.get(digest_key))
        if problems:
            failed += 1
            problems_seen.extend(problems)
            continue
        digests.setdefault(digest_key, result["digest"])
        crossings[seeds[j]] = result["time_to_kl_steps"]
        versions = result["versions"]
        ok[trace].append(result)

    correct = failed == 0
    traced_run = bool(args.trace and ok[True] and ok[False])
    if traced_run:
        mismatch = _exact_mismatch(ok[True], ok[False])
        if mismatch:
            correct = False
            problems_seen.append(mismatch)
        values = _per_layer(ok[True], ok[False])
    elif ok[False]:
        values = _end_to_end(workload, ok[False])
    else:
        correct = False
        values = {}
    digest_path.write_text(json.dumps(digests, indent=1), encoding="utf-8")

    facts = _machine_facts()
    facts["versions"] = versions
    print(json.dumps({"machine": facts}))
    print(json.dumps({
        "workload": workload.name, "config_seeds": seeds,
        "samples": {"untraced": len(ok[False]), "traced": len(ok[True])},
        "raw_wall_s_each": [round(r["wall_s"], 4) for r in ok[False]],
        "probe_ms_each": [round(1000 * r["probe_s"], 3) for r in ok[False]],
        "probes_each": [r["probes"] for r in ok[False]],
        "error_rate": failed / attempted, "problems": problems_seen[:5],
        "time_to_kl_steps": crossings,
    }))
    if traced_run:
        wall = median(r["wall_s"] for r in ok[True])
        print(json.dumps({"layer_share_of_traced_wall": {
            name: round(values[name] / wall, 4) for name in SPAN_METRICS}}))
    metrics = {}
    for entry in listed:
        value = values.get(entry["name"])
        if value is None:
            correct = False
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
