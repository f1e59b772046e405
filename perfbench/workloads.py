"""The benchmark's four workloads.

Each workload is a set-up step (planning plus engine or tenant
construction, which the benchmark times as ``setup_s``) that returns a
simulation object; calling its ``run`` once is one operation, timed as the
simulation phase.  Every engine and tenant seed derives from the benchmark's
``--seed`` through :func:`derive_seeds`; the program only ever receives the
derived values.

Why these four: each layer an optimisation is likely to touch carries most
of the work in one workload and little in another (see ``PREDICTIONS.md``).

* ``fig19_uncached`` — the data path.  Chunked ``least-work`` drains of
  about 730 queries each, 13 route+submit hops per query, an idle heap.
* ``fig19_cached`` — the same arrivals priced through the skewed cost model
  and a 64 MB per-replica cache; the difference from ``fig19_uncached`` is
  skewed cost sampling in ``begin_run`` plus inline cache pricing.
* ``tenants_control`` — the event and control plane.  Per-arrival event mode,
  completions, faults, deadlines/retries, watchdog and re-plan events.
* ``sharded_spool`` — process sharding, spool I/O and ``merge_stream``.
"""

from __future__ import annotations

import shutil
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import rm1
from repro.serving.engine import (
    MultiTenantEngine,
    MultiTenantResult,
    ServingEngine,
    SimulationResult,
    TenantSpec,
)
from repro.serving.scenarios import build_scenario
from repro.serving.sharding import run_sharded
from repro.serving.streaming import chunk_paths, iter_chunks, read_meta
from repro.serving.traffic import TrafficPattern, paper_dynamic_pattern

#: The paper's 30-minute fig19 horizon.  Much shorter horizons compress the
#: 18 -> 90 QPS ramp faster than replicas cold-start (at 600 s the p95 is
#: 53 s), which would measure a collapsed cluster instead of the paper regime.
FIG19_DURATION_S = 1800.0
#: Keeps one tenants_control run near 6 s on a 2-CPU host, so one
#: invocation of the benchmark holds several runs.
TENANTS_DURATION_S = 600.0
SHARDED_DURATION_S = 900.0
#: Worker processes for ``sharded_spool``, fixed so the workload is the same
#: on every host; two fit a 2-CPU host with BLAS pinned to one thread.
SHARD_WORKERS = 2
SHARDED_TENANTS = 8

#: Tenant ``rank`` of tenants_control: an SLO watchdog that arms deadlines
#: and retries (the watchdog experiment's availability-first policy).
_RANK_SLO = (
    "p95@1.5:p99=8,availability=0.995,reject=0.02,patience=1,"
    "shed=0.0,deadline=20,timeout=6,retries=3,storm=0.5,recover=2"
)
#: Tenant ``ads``: the SLA-relative drift detector re-plans once.
_ADS_REPLAN = "sla@1.3:patience=2,cooldown=120,max=1"


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` engine/tenant seeds derived from the benchmark seed."""
    return [int(value) for value in np.random.SeedSequence(seed).generate_state(count)]


def _plan(num_nodes: int):
    """RM1 with 4 tables planned for 18 QPS, as in the reduced fig19 run."""
    workload = rm1().scaled_tables(4).with_name("RM1-bench4")
    return ElasticRecPlanner(cpu_only_cluster(num_nodes=num_nodes)).plan(workload, 18.0)


class EngineSimulation:
    """One single-tenant :class:`ServingEngine` run."""

    def __init__(self, engine: ServingEngine, pattern: TrafficPattern) -> None:
        self.engine = engine
        self.pattern = pattern

    def run(self) -> dict[str, SimulationResult]:
        return {"fig19": self.engine.run(self.pattern)}

    def inspect(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class TenantsSimulation:
    """One :class:`MultiTenantEngine` run over a shared pool."""

    def __init__(self, engine: MultiTenantEngine) -> None:
        self.engine = engine

    def run(self) -> dict[str, SimulationResult]:
        return self.engine.run().tenants

    def inspect(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class ShardedSimulation:
    """One streamed ``run_sharded`` run; the spool is read back, then removed."""

    def __init__(self, tenants: list[TenantSpec], spool: Path) -> None:
        self.tenants = tenants
        self.spool = spool
        self.result: MultiTenantResult | None = None

    def run(self) -> dict[str, SimulationResult]:
        self.result = run_sharded(
            self.tenants, workers=SHARD_WORKERS, stream_dir=self.spool
        )
        return self.result.tenants

    def inspect(self) -> dict:
        """Spool facts, read independently of ``merge_stream``."""
        shards = {}
        spool_bytes = 0
        chunks = 0
        for path in self.spool.rglob("*"):
            if path.is_file():
                spool_bytes += path.stat().st_size
                chunks += path.suffix == ".npz"
        for shard_name in read_meta(self.spool, "run manifest")["shards"]:
            shard_dir = self.spool / shard_name
            shard_meta = read_meta(shard_dir, "shard manifest")
            memory = [chunk["memory_gb"] for chunk in iter_chunks(shard_dir, "cluster")]
            shards[shard_name] = {
                "tenants": {
                    name: int(read_meta(shard_dir / tenant_dir, "tenant spool")["num_samples"])
                    for name, tenant_dir in zip(shard_meta["tenants"], shard_meta["tenant_dirs"])
                },
                "memory_gb": np.concatenate(memory) if memory else np.empty(0),
                "query_chunks": sum(
                    len(chunk_paths(shard_dir / tenant_dir, "queries"))
                    for tenant_dir in shard_meta["tenant_dirs"]
                ),
            }
        return {
            "stats": self.result.sharding_stats,
            "cluster_memory_gb": self.result.cluster_series.memory_gb,
            "spool_bytes": spool_bytes,
            "chunks": chunks,
            "shards": shards,
        }

    def close(self) -> None:
        shutil.rmtree(self.spool, ignore_errors=True)


def fig19(seed: int, work_dir: Path, duration_s: float = FIG19_DURATION_S, cached: bool = False):
    """RM1 on 8 CPU nodes under the paper's 18 -> 90 QPS fig19 traffic."""
    (engine_seed,) = derive_seeds(seed, 1)
    extra = {"cost_model": "skewed", "cache_mb": 64.0} if cached else {}
    engine = ServingEngine(_plan(8), routing="least-work", seed=engine_seed, **extra)
    pattern = paper_dynamic_pattern(base_qps=18.0, peak_qps=90.0, duration_s=duration_s)
    return EngineSimulation(engine, pattern)


def tenants_control(seed: int, work_dir: Path, duration_s: float = TENANTS_DURATION_S):
    """Three tenants of one RM1 plan sharing a 32-node pool.

    ``feed`` is a chunked ``least-work`` tenant on fig19-shaped traffic;
    ``ads`` is a ``power-of-two`` tenant on skewed costs with a cache,
    access-skew drift and re-planning; ``rank`` is a ``least-outstanding``
    tenant (per-arrival events, completion callbacks) under a brownout and a
    Poisson crash storm, with an SLO watchdog that arms deadlines and retries.
    """
    feed_seed, ads_seed, rank_seed = derive_seeds(seed, 3)
    plan = _plan(8)
    # Incident windows scale with the horizon: drift from 1/6 of the run,
    # brownout and crash storm from 1/5.
    drift = f"linear@{duration_s / 6:g}+{duration_s / 3:g}:to=0.1"
    faults = (
        f"degrade@{duration_s / 5:g}+{duration_s / 5:g}:factor=2.0;"
        f"crashes@{duration_s / 5:g}+{duration_s / 3:g}:rate=2.5,policy=requeue"
    )
    tenants = [
        TenantSpec(
            "feed",
            plan,
            # A 90 QPS peak outruns replica cold starts on a ramp this short
            # for some seeds; 60 keeps the tenant out of collapse.
            paper_dynamic_pattern(base_qps=18.0, peak_qps=60.0, duration_s=duration_s),
            seed=feed_seed,
        ),
        TenantSpec(
            "ads",
            plan,
            TrafficPattern.constant(15.0, duration_s=duration_s),
            routing="power-of-two",
            seed=ads_seed,
            cost_model="skewed",
            cache_mb=64.0,
            drift=drift,
            replan=_ADS_REPLAN,
        ),
        TenantSpec(
            "rank",
            plan,
            TrafficPattern.constant(10.0, duration_s=duration_s),
            routing="least-outstanding",
            seed=rank_seed,
            faults=faults,
            slo=_RANK_SLO,
        ),
    ]
    return TenantsSimulation(MultiTenantEngine(tenants, cluster_spec=plan.cluster.with_nodes(32)))


def sharded_spool(seed: int, work_dir: Path, duration_s: float = SHARDED_DURATION_S):
    """Eight diurnal tenants streamed through ``run_sharded`` on 2 workers."""
    plan = _plan(32)
    pattern = build_scenario("diurnal", 10.0, 45.0, duration_s)
    tenants = [
        TenantSpec(f"user-{index:02d}", plan, pattern, seed=tenant_seed, max_replicas=4)
        for index, tenant_seed in enumerate(derive_seeds(seed, SHARDED_TENANTS))
    ]
    return ShardedSimulation(tenants, work_dir / "spool")


#: Workload name -> set-up function ``(seed, work_dir, duration_s=...)``.
WORKLOADS = {
    "fig19_uncached": fig19,
    "fig19_cached": partial(fig19, cached=True),
    "tenants_control": tenants_control,
    "sharded_spool": sharded_spool,
}
