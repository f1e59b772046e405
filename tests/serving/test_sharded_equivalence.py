"""Sharded == serial bit-exactness for the multi-process run executor.

The contract under test (see :mod:`repro.serving.sharding`): a multi-tenant
run whose tenants do not contend for the node pool produces byte-identical
per-tenant results whether it runs in one process or sharded across worker
processes on pool slices.  The configurations here keep the pool
uncontended by capping ``max_replicas`` well below each shard's slice —
``peak_pending_placements == 0`` is asserted, so a config drifting into
contention fails loudly rather than masking a sharding bug.

The fast tier runs the smallest config at two worker counts; the slow tier
(``--runslow``) sweeps the scenario × routing × fault × cost-model matrix
at worker counts {1, 2, 7}, including uneven tenant/node splits.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import MultiTenantEngine, SimulationResult, TenantSpec
from repro.serving.scenarios import build_scenario
from repro.serving.sharding import plan_shards, run_sharded


@pytest.fixture(scope="module")
def cluster():
    return cpu_only_cluster(num_nodes=16)


@pytest.fixture(scope="module")
def plan(cluster):
    return ElasticRecPlanner(cluster).plan(microbenchmark(num_tables=2), target_qps=30.0)


def make_tenants(
    plan,
    count: int = 5,
    scenario: str = "flash-crowd",
    routing: str = "least-work",
    faults: str | None = "crash-storm",
    cost_model: str = "skewed",
    duration_s: float = 120.0,
    cache_mb: float = 0.0,
    slo: str = "none",
) -> list[TenantSpec]:
    """``count`` tenants; tenant 2 gets the faults, tenant 3 the cost model
    (and the embedding cache, when ``cache_mb`` is set); tenants 2 and 3
    both get the SLO watchdog when ``slo`` is set."""
    return [
        TenantSpec(
            name=f"t{index}",
            plan=plan,
            pattern=build_scenario(scenario, 8.0, 24.0, duration_s),
            routing=routing,
            seed=index,
            max_replicas=6,
            cost_model=cost_model if index == 3 else "homogeneous",
            faults=faults if index == 2 else None,
            cache_mb=cache_mb if index == 3 else 0.0,
            slo=slo if index in (2, 3) else "none",
        )
        for index in range(count)
    ]


def assert_results_identical(expected, actual, label) -> None:
    """Every :class:`SimulationResult` field equal in value and dtype.

    Dict fields must also list their keys in the same order; the tracker is
    compared by its completion-time and latency arrays.
    """
    for item in dataclasses.fields(SimulationResult):
        want, got = getattr(expected, item.name), getattr(actual, item.name)
        where = (label, item.name)
        if item.name == "tracker":
            pairs = [
                (want.completion_times, got.completion_times),
                (want.latencies_s, got.latencies_s),
            ]
        elif isinstance(want, dict):
            assert list(got) == list(want), where
            pairs = [(want[key], got[key]) for key in want]
        elif isinstance(want, np.ndarray):
            pairs = [(want, got)]
        else:
            assert type(got) is type(want) and got == want, where
            continue
        for want_array, got_array in pairs:
            assert got_array.dtype == want_array.dtype, where
            assert np.array_equal(got_array, want_array), where


def assert_tenants_identical(serial, sharded) -> None:
    assert list(serial.tenants) == list(sharded.tenants)
    for name, expected in serial.tenants.items():
        actual = sharded.tenants[name]
        assert actual.digest() == expected.digest(), name
        assert_results_identical(expected, actual, name)


class TestShardPlanning:
    def test_single_worker_takes_the_whole_pool(self, plan, cluster):
        tenants = make_tenants(plan, count=3)
        shard_plan = plan_shards(tenants, 1, cluster)
        assert shard_plan.num_shards == 1
        assert shard_plan.tenant_indices == ((0, 1, 2),)
        assert shard_plan.node_counts == (cluster.num_nodes,)

    def test_uneven_split_covers_every_tenant_and_node(self, plan, cluster):
        tenants = make_tenants(plan, count=5)
        shard_plan = plan_shards(tenants, 2, cluster)
        covered = [i for part in shard_plan.tenant_indices for i in part]
        assert covered == list(range(5))
        assert sum(shard_plan.node_counts) == cluster.num_nodes
        assert all(count >= 1 for count in shard_plan.node_counts)

    def test_workers_clamp_to_tenant_count(self, plan, cluster):
        tenants = make_tenants(plan, count=3)
        shard_plan = plan_shards(tenants, 16, cluster)
        assert shard_plan.num_shards == 3

    def test_node_drain_faults_are_rejected_with_a_one_liner(self, plan, cluster):
        tenants = make_tenants(plan, count=3, faults="rolling-drain")
        with pytest.raises(ValueError) as excinfo:
            plan_shards(tenants, 2, cluster)
        message = str(excinfo.value)
        assert "node drains" in message
        assert "--shard-workers 1" in message
        assert "\n" not in message
        # A single-process plan carries the drain just fine.
        assert plan_shards(tenants, 1, cluster).num_shards == 1

    def test_pool_smaller_than_worker_count_is_rejected(self, plan):
        tenants = make_tenants(plan, count=3, faults=None)
        with pytest.raises(ValueError, match="at most"):
            plan_shards(tenants, 3, cpu_only_cluster(num_nodes=2))


class TestShardedEquivalenceFast:
    """The smallest equivalence config — runs in the default (fast) tier."""

    @pytest.fixture(scope="class")
    def serial(self, plan, cluster):
        tenants = make_tenants(plan, count=3, duration_s=60.0)
        result = MultiTenantEngine(tenants, cluster_spec=cluster).run()
        assert result.cluster_series.peak_pending_placements == 0
        return result

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sharded_matches_serial(self, plan, cluster, serial, workers):
        tenants = make_tenants(plan, count=3, duration_s=60.0)
        sharded = run_sharded(tenants, cluster, workers=workers)
        assert sharded.cluster_series.peak_pending_placements == 0
        assert_tenants_identical(serial, sharded)

    def test_sharding_stats_are_attached(self, plan, cluster):
        tenants = make_tenants(plan, count=3, duration_s=60.0)
        result = run_sharded(tenants, cluster, workers=2)
        stats = result.sharding_stats
        assert stats["workers"] == 2
        assert stats["requested_workers"] == 2
        assert [name for shard in stats["shards"] for name in shard] == [
            "t0",
            "t1",
            "t2",
        ]
        assert sum(stats["node_counts"]) == cluster.num_nodes
        assert len(stats["peak_rss_mb"]) == 2
        assert all(rss > 0 for rss in stats["peak_rss_mb"])
        assert stats["streamed"] is False

    def test_streamed_sharded_matches_serial(self, plan, cluster, serial, tmp_path):
        tenants = make_tenants(plan, count=3, duration_s=60.0)
        sharded = run_sharded(
            tenants,
            cluster,
            workers=2,
            stream_dir=tmp_path / "spool",
            spill_threshold=64,
            flush_series_every=3,
        )
        assert sharded.sharding_stats["streamed"] is True
        assert_tenants_identical(serial, sharded)

    def test_cached_tenant_matches_serial_and_streamed(self, plan, cluster, tmp_path):
        # Tenant 3 runs skewed with a per-replica embedding cache: the
        # hit-rate series must round-trip through the sharded merge and the
        # streamed spool bit-exactly (its rows travel under the manifest's
        # cached-deployment order).
        tenants = make_tenants(plan, count=4, duration_s=60.0, cache_mb=16.0)
        serial = MultiTenantEngine(tenants, cluster_spec=cluster).run()
        cached = serial.tenants["t3"]
        assert cached.cache_hit_rate and cached.cache_mb == 16.0
        assert serial.tenants["t0"].cache_hit_rate == {}
        sharded = run_sharded(tenants, cluster, workers=2)
        streamed = run_sharded(
            tenants,
            cluster,
            workers=2,
            stream_dir=tmp_path / "spool",
            spill_threshold=64,
            flush_series_every=3,
        )
        assert_tenants_identical(serial, sharded)
        assert_tenants_identical(serial, streamed)
        assert streamed.tenants["t3"].cache_mb == 16.0

    def test_watchdog_tenant_matches_serial_and_streamed(self, plan, cluster, tmp_path):
        # Tenants 2 (faulted) and 3 (skewed) run under an aggressive SLO
        # watchdog: the degradation ladder, shed decisions, retries and the
        # per-tick watchdog series must all round-trip through the sharded
        # merge and the streamed spool bit-exactly.
        slo = (
            "p95@0.5:availability=0.999,reject=0.001,patience=1,"
            "shed=0.2,deadline=20,timeout=6,retries=2,recover=3"
        )
        tenants = make_tenants(plan, count=4, duration_s=60.0, slo=slo)
        serial = MultiTenantEngine(tenants, cluster_spec=cluster).run()
        guarded = serial.tenants["t2"]
        assert guarded.slo != "none"
        assert guarded.watchdog_series and max(guarded.watchdog_series["level"]) > 0
        assert serial.tenants["t0"].watchdog_series == {}
        # Conservation identity: every arrival is accounted for exactly once.
        assert (
            guarded.completed_queries
            + guarded.rejected_queries
            + guarded.dropped_queries
            + guarded.timeout_queries
            == guarded.tracker.num_samples
        )
        sharded = run_sharded(tenants, cluster, workers=2)
        streamed = run_sharded(
            tenants,
            cluster,
            workers=2,
            stream_dir=tmp_path / "spool",
            spill_threshold=64,
            flush_series_every=3,
        )
        assert_tenants_identical(serial, sharded)
        assert_tenants_identical(serial, streamed)
        assert streamed.tenants["t2"].slo == slo

    def test_merged_cluster_series_sums_shard_pools(self, plan, cluster, serial):
        tenants = make_tenants(plan, count=3, duration_s=60.0)
        sharded = run_sharded(tenants, cluster, workers=2)
        merged = sharded.cluster_series
        assert np.array_equal(merged.sample_times, serial.cluster_series.sample_times)
        # Memory is an exact sum of the same per-tenant allocations.
        assert np.allclose(merged.memory_gb, serial.cluster_series.memory_gb)
        # nodes_in_use may only exceed serial (shards cannot share a node).
        assert np.all(merged.nodes_in_use >= serial.cluster_series.nodes_in_use)


MATRIX = [
    ("flash-crowd", "least-work", "crash-storm", "skewed"),
    ("diurnal", "power-of-two", "crash-storm", "homogeneous"),
    ("sinusoidal", "round-robin", "stragglers", "skewed"),
    ("ramp-and-hold", "least-outstanding", "brownout", "homogeneous"),
]


@pytest.mark.slow
@pytest.mark.parametrize("scenario,routing,faults,cost_model", MATRIX)
@pytest.mark.parametrize("workers", [1, 2, 7])
def test_equivalence_matrix(plan, cluster, scenario, routing, faults, cost_model, workers):
    """Scenario × routing × fault × cost matrix at worker counts {1, 2, 7}."""
    tenants = make_tenants(
        plan,
        count=5,
        scenario=scenario,
        routing=routing,
        faults=faults,
        cost_model=cost_model,
    )
    serial = MultiTenantEngine(tenants, cluster_spec=cluster).run()
    assert serial.cluster_series.peak_pending_placements == 0
    sharded = run_sharded(tenants, cluster, workers=workers)
    assert sharded.cluster_series.peak_pending_placements == 0
    assert sharded.sharding_stats["workers"] == min(workers, len(tenants))
    assert_tenants_identical(serial, sharded)


@pytest.mark.slow
def test_streamed_equivalence_under_spill_pressure(plan, cluster, tmp_path):
    """Tiny spill/flush thresholds force many chunks; the merge stays exact."""
    tenants = make_tenants(plan, count=5)
    serial = MultiTenantEngine(tenants, cluster_spec=cluster).run()
    sharded = run_sharded(
        tenants,
        cluster,
        workers=2,
        stream_dir=tmp_path / "spool",
        spill_threshold=64,
        flush_series_every=3,
    )
    assert_tenants_identical(serial, sharded)
