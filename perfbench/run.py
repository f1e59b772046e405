#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload fig19_uncached --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs the workload untraced, again and again with a fresh
set-up each time, for up to ``--seconds`` seconds (at least once), checks
every run's outputs, and reports the ``end_to_end`` metrics of ``BENCHMARK.json``:

* ``queries_per_s`` — simulated queries handled (completions, rejections,
  drops and timeouts) per host second of the simulation phase, median over
  the runs;
* ``setup_s`` — the median of three cold ``import repro.cli`` times, each in a
  fresh interpreter, plus the median set-up (planning and engine or tenant
  construction) over the runs;
* ``peak_rss_mb`` — this process's peak RSS, or a shard worker's if larger.

``--trace 1`` reports the ``per_layer`` metrics of one traced run instead
(see ``perfbench/traced.py``).  ``--workload all`` runs every workload in its
own process and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``detail``, holds the host record, each tenant's simulated regime,
the digests and every check's verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"
#: Pinned to one thread so sharded_spool's two workers fit a 2-CPU host.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: What the detail line records of each untraced run.
RUN_FIELDS = ("setup_s", "sim_s", "queries", "digests", "failures")
IMPORT_SAMPLES = 3
IMPORT_CODE = (
    "import time; start = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - start)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sample_imports() -> list[float]:
    """Seconds to import ``repro.cli`` in fresh interpreters."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def host_record() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
    }


def regime(results: dict) -> dict:
    """Each tenant's simulated regime: queries and p95 against the SLA."""
    return {
        name: {
            "queries": result.tracker.num_samples,
            "p95_ms": round(result.overall_p95_latency_ms, 1),
            "sla_ms": round(result.sla_s * 1000.0, 1),
            "over_sla": round(result.sla_violation_fraction(), 4),
        }
        for name, result in results.items()
    }


def measure_untraced(workload: str, seed: int, seconds: float, work_dir: Path) -> dict:
    """Run ``workload`` for ``seconds`` (at least once) and check each run."""
    from perfbench import checks
    from perfbench.workloads import WORKLOADS

    build = WORKLOADS[workload]
    import_s = sample_imports()
    runs = []
    reference = None
    worker_rss = [0.0]
    started = time.perf_counter()
    last_run_s = 0.0
    # Start another run only while it should end within ``seconds``.
    while not runs or time.perf_counter() - started + last_run_s <= seconds:
        run = {"failures": {}}
        begin = time.perf_counter()
        try:
            simulation = build(seed, work_dir)
            built = time.perf_counter()
            try:
                results = simulation.run()
                run["sim_s"] = time.perf_counter() - built
                facts = simulation.inspect()
            finally:
                simulation.close()
            run["setup_s"] = built - begin
            run["queries"] = sum(r.tracker.num_samples for r in results.values())
            run["digests"] = {name: r.digest() for name, r in results.items()}
            run["failures"]["conservation"] = checks.conservation(results)
            if reference is None:
                reference = run["digests"]
                run["regime"] = regime(results)
            run["failures"]["repeat_digests"] = checks.same_digests(reference, run["digests"])
            if facts:
                run["failures"]["shard_totals"] = checks.shard_totals(results, facts)
                worker_rss.extend(facts["stats"]["peak_rss_mb"])
            del results
        except Exception:  # noqa: BLE001 - a crashed run is a failed operation
            run["failures"]["completed"] = [traceback.format_exc(limit=5)]
        runs.append(run)
        last_run_s = time.perf_counter() - begin
    done = [run for run in runs if "queries" in run]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    if done:
        metrics = {
            "queries_per_s": statistics.median(r["queries"] / r["sim_s"] for r in done),
            "setup_s": statistics.median(import_s) + statistics.median(r["setup_s"] for r in done),
            "peak_rss_mb": max(rss, *worker_rss),
        }
    return {"import_s": statistics.median(import_s), "runs": runs, "metrics": metrics}


def verdicts(failure_sets: list[dict]) -> dict:
    """Check name -> (runs failing it, first failure message)."""
    summary: dict[str, list] = {}
    for failures in failure_sets:
        for name, messages in failures.items():
            entry = summary.setdefault(name, [0, ""])
            if messages:
                entry[0] += 1
                entry[1] = entry[1] or messages[0]
    return summary


def report(spec: dict, kind: str, metrics: dict, runs_failures: list[dict], detail: dict) -> int:
    """Print the verdicts, metrics, detail record and the final JSON line."""
    host = detail["host"]
    print(
        f"host: Python {host['python']}, numpy {host['numpy']}, "
        f"{host['usable_cpus']} usable CPUs, BLAS threads {host['blas_threads']}"
    )
    for tenant, stats in detail["regime"].items():
        print(
            f"regime {tenant}: {stats['queries']} queries, p95 {stats['p95_ms']} ms "
            f"vs SLA {stats['sla_ms']} ms ({100 * stats['over_sla']:.1f} % over SLA)"
        )
    checks = verdicts(runs_failures)
    attempted = len(runs_failures)
    failed = sum(any(failures.values()) for failures in runs_failures)
    for name, (failing, message) in checks.items():
        state = "pass" if not failing else f"FAIL in {failing} of {attempted} runs: {message}"
        print(f"check {name}: {state}")
    declared = {metric["name"]: metric["unit"] for metric in spec[kind]}
    values = {}
    if metrics:
        values = {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}
    for name, value in values.items():
        print(f"{name} = {value['value']:.6g} {value['unit']}")
    detail["checks"] = {
        name: {"failing_runs": failing, "first_failure": message}
        for name, (failing, message) in checks.items()
    }
    print("detail " + json.dumps(detail, default=float))
    correct = failed == 0 and bool(values)
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}
    ))
    return 0 if correct or values else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own process; print one row per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        proc = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            if not line.startswith("detail "):
                print(f"{name}: {line}")
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = value
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "host": host_record()}
    try:
        if args.trace:
            from perfbench import traced

            outcome = traced.measure(args.workload, args.seed, work_dir)
            reference = outcome["reference"]
            spans = traced.spans_file(OUT_DIR, args.workload, args.seed, outcome["spans"])
            detail.update(
                regime=reference["regime"],
                digests=reference["runs"][0]["digests"],
                tracer_accounting=outcome["accounting"],
                spans=str(spans.relative_to(ROOT)),
            )
            runs_failures = [run["failures"] for run in reference["runs"]] + [outcome["failures"]]
            return report(spec, "per_layer", outcome["metrics"], runs_failures, detail)
        outcome = measure_untraced(args.workload, args.seed, seconds, work_dir)
        runs = outcome["runs"]
        detail.update(
            regime=next((run["regime"] for run in runs if "regime" in run), {}),
            import_s=outcome["import_s"],
            runs=[{key: run.get(key) for key in RUN_FIELDS} for run in runs],
        )
        runs_failures = [run["failures"] for run in runs]
        return report(spec, "end_to_end", outcome["metrics"], runs_failures, detail)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
