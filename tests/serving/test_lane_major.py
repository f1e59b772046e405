"""Oracle for lane-major chunk serving over tenant-local drain horizons.

A chunked drain serves each deployment lane over the whole chunk
(``_TenantRuntime._serve_lanes``), and a tenant's drain runs up to the
earliest heap event that is not another tenant's arrival
(``engine._drain_horizon``).  Both claim to be exact re-orderings of the
query-major, globally-ordered engine.  The oracle re-runs every
configuration with the module-level horizon helper replaced two ways:

* **one-query drains** — every chunk holds a single query, which the engine
  serves query-major through ``serve_query`` (the reference path);
* **the global horizon** — ``heap[0][0]``, the rule before tenant-local
  horizons, under which a drain stops at any tenant's next event;

and requires digests identical to the natural drains, for every routing
policy x feature set x {one tenant, three tenants sharing a pool}.  In the
three-tenant rows the first tenant carries the feature set and the other two
serve plain traffic beside it: their drains must run past its arrivals yet
stop at its events — its node drain evicts their replicas too.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.planner import ElasticRecPlanner
from repro.hardware.perf_model import BatchLatencyModel
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving import engine as engine_module
from repro.serving.engine import EventKind, MultiTenantEngine, ServingEngine, TenantSpec
from repro.serving.replica_server import ReplicaServer
from repro.serving.routing import PowerOfTwoPolicy, routing_policy_names
from repro.serving.scenarios import build_scenario
from repro.serving.traffic import TrafficPattern

DURATION_S = 120.0

#: Feature sets of the matrix, as engine/tenant keyword arguments.
FEATURES = {
    "uncached": {},
    "cached": {"cost_model": "skewed", "cache_mb": 64.0},
    "drift-replan": {
        "cost_model": "skewed",
        "drift": "linear@10+60:to=0.1",
        "replan": "sla@1.2:patience=2,cooldown=30,max=1",
    },
    "crashes-drain": {
        "faults": (
            "crash@30.3:policy=requeue,deployment=dense;"
            "crash@52.7:policy=requeue,deployment=dense;"
            "drain@70+30:node=1,grace=0.05,policy=requeue"
        ),
    },
    # Hair-trigger ladder: sheds inside chunked drains first, then arms
    # deadlines and falls back (per-arrival events) during the brownout.
    "watchdog": {
        "cost_model": "skewed",
        "faults": "degrade@20+60:factor=3",
        "slo": "p95@0.5:patience=1,shed=0.2,retries=2,recover=3",
    },
}


def _one_query(heap, tenant_index):
    return -np.inf


def _global(heap, tenant_index):
    return heap[0][0] if heap else np.inf


@pytest.fixture(scope="module")
def plan():
    return ElasticRecPlanner(cpu_only_cluster(num_nodes=4)).plan(
        microbenchmark(num_tables=2), target_qps=30.0
    )


def _run(plan, routing, features, tenants):
    """Per-tenant digests of one run."""
    kwargs = FEATURES[features]
    if tenants == 1:
        pattern = build_scenario("flash-crowd", 8.0, 24.0, DURATION_S, seed=3)
        result = ServingEngine(plan, routing=routing, seed=3, **kwargs).run(pattern)
        return {"single": result.digest()}
    specs = [
        TenantSpec(
            name=f"t{index}",
            plan=plan,
            pattern=(
                build_scenario("flash-crowd", 8.0, 24.0, DURATION_S, seed=index)
                if index == 0
                else TrafficPattern.constant(12.0 + 4.0 * index, duration_s=DURATION_S)
            ),
            routing=routing,
            seed=11 + index,
            max_replicas=6,
            **(kwargs if index == 0 else {}),
        )
        for index in range(tenants)
    ]
    engine = MultiTenantEngine(specs, cluster_spec=plan.cluster.with_nodes(12))
    return {name: result.digest() for name, result in engine.run().tenants.items()}


class _DrainLog:
    """Counts drains, multi-query drains and lane-major drains."""

    def __init__(self, monkeypatch):
        self.drains = 0
        self.multi = 0
        self.lane_major = 0
        runtime = engine_module._TenantRuntime
        drain = runtime.drain
        serve_lanes = runtime._serve_lanes

        def counting_drain(this, start, arrivals, tenant_index):
            self.drains += 1
            self.multi += len(arrivals) > 1
            return drain(this, start, arrivals, tenant_index)

        def counting_serve_lanes(this, start, arrivals):
            self.lane_major += 1
            return serve_lanes(this, start, arrivals)

        monkeypatch.setattr(runtime, "drain", counting_drain)
        monkeypatch.setattr(runtime, "_serve_lanes", counting_serve_lanes)


@pytest.mark.parametrize("tenants", [1, 3], ids=["one-tenant", "three-tenants"])
@pytest.mark.parametrize("features", list(FEATURES))
@pytest.mark.parametrize("routing", routing_policy_names())
def test_natural_drains_match_query_major_and_global_horizons(
    plan, routing, features, tenants, monkeypatch
):
    with monkeypatch.context() as patch:
        log = _DrainLog(patch)
        natural = _run(plan, routing, features, tenants)
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_drain_horizon", _one_query)
        assert _run(plan, routing, features, tenants) == natural, "one-query drains differ"
    if tenants > 1:
        # With one tenant the two horizons coincide.
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "_drain_horizon", _global)
            assert _run(plan, routing, features, tenants) == natural, "global horizons differ"
    if routing != "least-outstanding":
        # The comparison only bites where drains really hold many queries.
        assert log.multi > 0
        assert (log.lane_major > 0) == (routing != "power-of-two")


def test_lane_ordered_power_of_two_draws_are_caught(plan, monkeypatch):
    """Power-of-two draws pairs from one RNG stream shared by every lane:
    drawn in lane order, the picks change, and the oracle must see it."""
    natural = _run(plan, "power-of-two", "uncached", 1)
    monkeypatch.setattr(PowerOfTwoPolicy, "shares_lane_state", False)
    assert _run(plan, "power-of-two", "uncached", 1) != natural


def test_tenant_local_horizons_lengthen_multi_tenant_drains(plan, monkeypatch):
    with monkeypatch.context() as patch:
        local = _DrainLog(patch)
        _run(plan, "least-work", "uncached", 3)
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_drain_horizon", _global)
        shared = _DrainLog(patch)
        _run(plan, "least-work", "uncached", 3)
    assert local.drains * 4 < shared.drains


class TestDrainHorizon:
    @staticmethod
    def _heap(*entries):
        heap = []
        counter = itertools.count()
        for at, kind, payload in entries:
            heap.append((at, kind, next(counter), payload))
        heap.sort()
        return heap

    def test_skips_only_other_tenants_arrivals(self):
        heap = self._heap(
            (1.0, EventKind.ARRIVAL, (1, 5)),
            (2.0, EventKind.ARRIVAL, (2, 9)),
            (3.0, EventKind.COMPLETION, (2, "d", "r")),
            (4.0, EventKind.AUTOSCALE, [0, 1, 2]),
        )
        assert engine_module._drain_horizon(heap, 0) == 3.0
        assert engine_module._drain_horizon(heap, 1) == 1.0
        assert engine_module._drain_horizon(heap, None) == 1.0

    def test_empty_and_arrival_only_heaps_have_no_horizon(self):
        assert engine_module._drain_horizon([], 0) == np.inf
        heap = self._heap((1.0, EventKind.ARRIVAL, (1, 0)), (2.0, EventKind.ARRIVAL, (2, 0)))
        assert engine_module._drain_horizon(heap, 0) == np.inf

    def test_matches_a_linear_scan_on_random_heaps(self):
        rng = np.random.default_rng(0)
        kinds = [EventKind.ARRIVAL, EventKind.COMPLETION, EventKind.AUTOSCALE, EventKind.FAULT]
        for _ in range(200):
            heap = []
            counter = itertools.count()
            for _ in range(int(rng.integers(0, 30))):
                kind = kinds[int(rng.integers(len(kinds)))]
                entry = (float(rng.integers(0, 10)), kind, next(counter), (int(rng.integers(3)), 0))
                heap.append(entry)
            heap.sort()
            tenant = int(rng.integers(3))
            expected = min(
                (
                    at
                    for at, kind, _, payload in heap
                    if kind != EventKind.ARRIVAL or payload[0] == tenant
                ),
                default=np.inf,
            )
            assert engine_module._drain_horizon(heap, tenant) == expected


class TestServeLeastWork:
    """The inline least-work FIFO run == argmin picks + one submit each."""

    @staticmethod
    def _servers(rng, model):
        return [
            ReplicaServer(f"r{index}", ready_at=float(rng.uniform(0.0, 0.5)), batch_model=model)
            for index in range(int(rng.integers(1, 5)))
        ]

    @pytest.mark.parametrize("kind", [None, "dense", "embedding"])
    def test_bit_exact_with_submit(self, kind):
        rng = np.random.default_rng(1)
        model = None if kind is None else BatchLatencyModel(kind, 0.8, 0.3)
        for _ in range(50):
            seed = int(rng.integers(1 << 30))
            fast = self._servers(np.random.default_rng(seed), model)
            slow = self._servers(np.random.default_rng(seed), model)
            count = int(rng.integers(1, 40))
            arrivals = np.sort(rng.uniform(0.0, 2.0, count)).tolist()
            multipliers = rng.choice([1.0, 0.5, 2.5], count) if rng.random() < 0.5 else None
            completions, picks = ReplicaServer.serve_least_work(fast, arrivals, 0.05, multipliers)
            for offset, arrival in enumerate(arrivals):
                busy = [server.busy_until for server in slow]
                index = int(np.argmin(busy))
                multiplier = 1.0 if multipliers is None else float(multipliers[offset])
                assert picks[offset] == index
                assert completions[offset] == slow[index].submit(arrival, 0.05, multiplier)
            for a, b in zip(fast, slow):
                assert (a.busy_until, a.busy_seconds) == (b.busy_until, b.busy_seconds)
                assert (a.completed_queries, a.completed_batches) == (
                    b.completed_queries,
                    b.completed_batches,
                )
                assert a._run_starts == b._run_starts and a._run_ends == b._run_ends

    def test_price_callback_sees_each_pick(self):
        servers = [ReplicaServer("a"), ReplicaServer("b")]
        seen = []

        def price(index, offset):
            seen.append((index, offset))
            return 2.0

        completions, picks = ReplicaServer.serve_least_work(
            servers, [0.0, 0.0, 0.0], 1.0, price=price
        )
        assert picks == [0, 1, 0]
        assert seen == [(0, 0), (1, 1), (0, 2)]
        assert completions == [2.0, 2.0, 4.0]

    def test_keeps_submits_checks(self):
        servers = [ReplicaServer("a")]
        with pytest.raises(ValueError, match="service_time"):
            ReplicaServer.serve_least_work(servers, [0.0], 0.0)
        with pytest.raises(ValueError, match="multiplier"):
            ReplicaServer.serve_least_work(servers, [0.0], 1.0, np.array([0.0]))
        with pytest.raises(ValueError, match="multiplier"):
            ReplicaServer.serve_least_work(servers, [0.0], 1.0, price=lambda i, k: -1.0)
        with pytest.raises(ValueError, match="single-batch"):
            ReplicaServer.serve_least_work([ReplicaServer("b", max_batch=2)], [0.0], 1.0)
