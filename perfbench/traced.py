"""The traced run: per-layer metrics of one workload.

A fresh untraced child process runs the workload once first; its digests
and wall time are the reference.  This process then installs the tracer,
runs the same workload with the same seed once, restores every wrapped
attribute, checks that the digests match the reference, and turns the
counters into the ``per_layer`` metrics of ``BENCHMARK.json``.

``sharded_spool``'s workers are forked with the wrappers in place; each one
writes its counters to a file that this process adds in.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from repro.cluster import autoscaler, cluster
from repro.core import planner
from repro.serving import engine, latency, replica_server, routing, sharding, watchdog

from perfbench import checks
from perfbench.tracer import Tracer, calibrate, tracing_cost
from perfbench.workloads import WORKLOADS

#: The policy classes the workloads route with, one counter each.
POLICIES = (routing.LeastWorkPolicy, routing.PowerOfTwoPolicy, routing.LeastOutstandingPolicy)
#: |traced wall - untraced wall - calibrated tracer cost| within this share
#: of the untraced wall counts as the tracer accounting for the traced run.
ACCOUNTING_TOLERANCE = 0.25

_RUNTIME = engine._TenantRuntime
#: (owner, attribute, layer name, keeps spans).
LAYERS = (
    (planner.ElasticRecPlanner, "plan", "core.planner.plan", True),
    (engine.ServingEngine, "__init__", "serving.engine.init", True),
    (engine.MultiTenantEngine, "__init__", "serving.engine.init", True),
    (_RUNTIME, "begin_run", "serving.engine.begin_run", True),
    (_RUNTIME, "serve_query", "serving.engine.serve_query", False),
    (_RUNTIME, "sample", "serving.engine.sample", True),
    (_RUNTIME, "sync_servers", "serving.engine.sync_servers", True),
    (_RUNTIME, "handle_timeout", "serving.engine.handle_timeout", False),
    (_RUNTIME, "handle_retry", "serving.engine.handle_retry", False),
    (_RUNTIME, "start_replan", "serving.engine.start_replan", True),
    (_RUNTIME, "apply_replan", "serving.engine.apply_replan", True),
    *(
        (policy, "select_index", f"serving.routing.select_index.{policy.__name__}", False)
        for policy in POLICIES
    ),
    *((policy, "on_complete", "serving.routing.on_complete", False) for policy in POLICIES),
    (replica_server.ReplicaServer, "submit", "serving.replica_server.submit", False),
    (latency.LatencyTracker, "record", "serving.latency.record", False),
    (autoscaler.HorizontalPodAutoscaler, "evaluate", "cluster.autoscaler.evaluate", True),
    (cluster.Cluster, "reconcile", "cluster.cluster.reconcile", True),
    (watchdog.SloWatchdog, "observe", "serving.watchdog.observe", False),
    (watchdog, "detect_shift", "serving.watchdog.detect_shift", False),
    (sharding, "merge_stream", "serving.sharding.merge_stream", True),
)


def install(tracer: Tracer, worker_dir: Path) -> None:
    """Wrap every layer of :data:`LAYERS`, plus untimed hooks.

    The hooks feed the engines' ``on_event`` to the tracer, read the cache
    gather counters before each sample tick clears them, and make each
    forked shard worker write its counters to ``worker_dir``.
    """
    for owner, attr, name, span in LAYERS:
        tracer.patch(owner, attr, name, span)

    def count_events(run):
        def run_with_events(self, *args, on_event=None, **kwargs):
            return run(self, *args, on_event=on_event or tracer.on_event, **kwargs)

        return functools.update_wrapper(run_with_events, run)

    def read_cache(sample):
        gathers = tracer.cache_gathers

        def sample_after_reading(self, now):
            for lane in self._lanes:
                if lane.cached:
                    gathers[0] += lane.hit_sum
                    gathers[1] += lane.gather_sum
            return sample(self, now)

        return functools.update_wrapper(sample_after_reading, sample)

    parent = os.getpid()

    def report_worker(run_shard):
        def run_shard_reporting(args):
            if os.getpid() == parent:
                return run_shard(args)
            tracer.reset()
            try:
                return run_shard(args)
            finally:
                path = worker_dir / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.snapshot()))

        return functools.update_wrapper(run_shard_reporting, run_shard)

    tracer.patch(engine.ServingEngine, "run", wrapper=count_events)
    tracer.patch(engine.MultiTenantEngine, "run", wrapper=count_events)
    tracer.patch(_RUNTIME, "sample", wrapper=read_cache)
    tracer.patch(sharding, "_run_shard", wrapper=report_worker)


def untraced_reference(workload: str, seed: int) -> dict:
    """One untraced run in a fresh process: its printed detail record."""
    command = [
        sys.executable,
        str(Path(__file__).resolve().parent / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0",
        "--trace", "0",
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170, check=False)
    for line in proc.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise RuntimeError(
        f"the untraced reference run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    )


def measure(workload: str, seed: int, work_dir: Path) -> dict:
    """Run ``workload`` traced once; return checks, per-layer metrics, spans."""
    reference = untraced_reference(workload, seed)
    wrapper_s, hook_s = calibrate()
    tracer = Tracer()
    worker_dir = work_dir / "workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    install(tracer, worker_dir)
    try:
        simulation = WORKLOADS[workload](seed, work_dir)
        results = tracer.wrap(simulation.run, "run", span=True)()
        facts = simulation.inspect()
        simulation.close()
    finally:
        tracer.restore()
    workers = [json.loads(path.read_text()) for path in sorted(worker_dir.glob("worker-*.json"))]
    # Workers run side by side, so only the costliest adds to the wall time.
    tracer_cost = tracing_cost(tracer.snapshot(), wrapper_s, hook_s) + max(
        (tracing_cost(snapshot, wrapper_s, hook_s) for snapshot in workers), default=0.0
    )
    for snapshot in workers:
        tracer.add(snapshot)

    failures = {
        "conservation": checks.conservation(results),
        "traced_matches_untraced": checks.same_digests(
            reference["runs"][0]["digests"], {name: r.digest() for name, r in results.items()}
        ),
    }
    if facts:
        failures["shard_totals"] = checks.shard_totals(results, facts)

    untraced_wall = reference["runs"][0]["sim_s"]
    traced_wall = tracer.metric("run", 1)
    metrics = layer_metrics(tracer, results, facts, reference["import_s"])
    metrics.update(trace_health(traced_wall, untraced_wall, wrapper_s, tracer_cost))
    return {
        "reference": reference,
        "failures": failures,
        "metrics": metrics,
        "accounting": {
            "tolerance": ACCOUNTING_TOLERANCE,
            "passed": abs(metrics["trace.unattributed_s"])
            <= ACCOUNTING_TOLERANCE * untraced_wall,
        },
        "spans": {
            "parent": tracer.span_records(),
            "workers": [snapshot["spans"] for snapshot in workers],
        },
    }


def trace_health(traced_wall: float, untraced_wall: float, wrapper_s: float, cost_s: float) -> dict:
    """The tracer's own metrics.  ``trace.unattributed_s`` is the part of
    the traced wall time that neither the untraced run nor the calibrated
    tracing cost explains."""
    return {
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.wrapper_ns": wrapper_s * 1e9,
        "trace.cost_s": cost_s,
        "trace.unattributed_s": traced_wall - untraced_wall - cost_s,
    }


def layer_metrics(tracer: Tracer, results: dict, facts: dict, import_s: float) -> dict:
    """Counters and run outputs as named per-layer metrics."""
    calls = functools.partial(tracer.metric, field=0)
    self_s = tracer.metric
    select_calls = sum(calls(f"serving.routing.select_index.{p.__name__}") for p in POLICIES)
    serve_calls = calls("serving.engine.serve_query")
    events = {kind.name: tracer.event_counts[kind] for kind in engine.EventKind}
    plan_calls = calls("core.planner.plan")
    hits, gathers = tracer.cache_gathers
    tenants = list(results.values())
    arrivals = sum(r.tracker.num_samples for r in tenants)
    retried = sum(r.retried_queries for r in tenants)
    metrics = {
        "import_s": import_s,
        "core.planner.plan_s": tracer.metric("core.planner.plan", 1) / max(plan_calls, 1),
        "serving.engine.init_s": tracer.metric("serving.engine.init", 1),
        "serving.engine.drive.self_s": self_s("run"),
        "serving.engine.queries": arrivals,
        "serving.engine.hops_per_query": select_calls / serve_calls if serve_calls else 0.0,
        "serving.engine.queries_per_drain": (
            serve_calls / events["ARRIVAL"] if events["ARRIVAL"] else 0.0
        ),
        "serving.cache.hit_ratio": hits / gathers if gathers else 0.0,
        "serving.engine.retried_queries": retried,
        "serving.engine.timeout_queries": sum(r.timeout_queries for r in tenants),
        "serving.engine.requeued_queries": sum(r.requeued_queries for r in tenants),
        "serving.engine.faults_injected": sum(r.faults_injected for r in tenants),
        "serving.engine.useful_ratio": (
            sum(r.completed_queries for r in tenants) / (arrivals + retried) if arrivals else 0.0
        ),
        "serving.watchdog.detect_shift.calls": calls("serving.watchdog.detect_shift"),
    }
    for policy in POLICIES:
        name = f"serving.routing.select_index.{policy.__name__}"
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    for name in (
        "serving.replica_server.submit",
        "serving.engine.serve_query",
        "serving.latency.record",
        "serving.routing.on_complete",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    for name in (
        "serving.engine.begin_run",
        "serving.engine.handle_timeout",
        "serving.engine.handle_retry",
        "serving.engine.sample",
        "serving.engine.sync_servers",
        "serving.engine.start_replan",
        "serving.engine.apply_replan",
        "cluster.autoscaler.evaluate",
        "cluster.cluster.reconcile",
        "serving.watchdog.observe",
    ):
        metrics[f"{name}.self_s"] = self_s(name)
    for kind, count in events.items():
        metrics[f"serving.engine.events.{kind}"] = count

    shard_queries = [
        sum(shard["tenants"].values()) for shard in facts.get("shards", {}).values()
    ]
    stats = facts.get("stats", {})
    metrics.update(
        {
            "serving.sharding.pool_s": stats.get("wall_s", 0.0),
            "serving.sharding.merge_s": tracer.metric("serving.sharding.merge_stream", 1),
            "serving.sharding.worker_rss_mb": max(stats.get("peak_rss_mb", [0.0])),
            "serving.sharding.shard_imbalance": (
                max(shard_queries) / statistics.mean(shard_queries) if shard_queries else 0.0
            ),
            "serving.streaming.spool_bytes": facts.get("spool_bytes", 0),
            "serving.streaming.chunks": facts.get("chunks", 0),
            "serving.streaming.spooling_workers": sum(
                shard["query_chunks"] > 0 for shard in facts.get("shards", {}).values()
            ),
        }
    )
    return metrics


def spans_file(out_dir: Path, workload: str, seed: int, spans: dict) -> Path:
    """Write the traced run's spans; return the file's path."""
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(spans) + "\n")
    return path
