"""Profile the serving engine's hot path and lock its vectorized shape.

Runs a mid-size dynamic-traffic simulation under ``cProfile`` and reports the
top cumulative hot spots through ``benchmark.extra_info``, so the recorded
benchmark artifacts show *where* the time went, not just how much there was.

Beyond reporting, the profile is used as a structural regression test of the
hot path itself:

* every query must be served exactly once: the queries of lane-major drains
  (``_serve_lanes``) plus the query-major ``serve_query`` calls add up to
  the query count, guarding the chunked arrival drain against
  double-serving or skipping — and lane-major drains must carry the run;
* every routing decision must take a vectorized route — a ``select_index``
  call or an inline least-work pick (``ReplicaServer.serve_least_work``),
  one per query per deployment — and the scalar ``_ready_pool`` and
  ``select`` must not appear at all: if a change silently knocks the engine
  back onto the scalar per-server loop, the assertion fails before any
  wall-clock regression shows up in CI timing noise;
* the *cached* run must stay on the same vectorized shape: pricing happens
  inline against the pool's array-backed fills, so neither the scalar
  ``ReplicaCache.serve`` loop nor the ``cache_adjusted_multiplier`` helper
  may appear in the profile at all.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import rm1
from repro.serving.engine import ServingEngine, _TenantRuntime
from repro.serving.replica_server import ReplicaServer
from repro.serving.traffic import paper_dynamic_pattern


def _reduced_plan():
    cluster = cpu_only_cluster(num_nodes=8)
    workload = rm1().scaled_tables(4).with_name("RM1-profile")
    return ElasticRecPlanner(cluster).plan(workload, 18.0)


def _stats_by_name(stats: pstats.Stats) -> dict[str, tuple[int, float]]:
    """Map ``filename:function`` to summed (primitive calls, cumulative secs).

    cProfile keys entries by (filename, lineno, funcname); same-named
    functions at different lines (``select_index`` on every policy class,
    the policies' ``__init__``\\ s) are *summed*, not overwritten, so call
    totals stay meaningful.
    """
    table: dict[str, tuple[int, float]] = {}
    for (filename, _, function), (pcalls, _, _, cumulative, _) in stats.stats.items():
        key = f"{filename.rsplit('/', 1)[-1]}:{function}"
        calls, seconds = table.get(key, (0, 0.0))
        table[key] = (calls + pcalls, seconds + cumulative)
    return table


class _Routed:
    """Counts queries served lane-major and replica picks made inline."""

    def __init__(self, monkeypatch) -> None:
        self.lane_major_queries = 0
        self.inline_picks = 0
        serve_lanes = _TenantRuntime._serve_lanes
        serve_least_work = ReplicaServer.serve_least_work

        def counting_serve_lanes(runtime, start, arrivals):
            self.lane_major_queries += len(arrivals)
            return serve_lanes(runtime, start, arrivals)

        def counting_serve_least_work(servers, arrivals, *args):
            self.inline_picks += len(arrivals)
            return serve_least_work(servers, arrivals, *args)

        monkeypatch.setattr(_TenantRuntime, "_serve_lanes", counting_serve_lanes)
        monkeypatch.setattr(
            ReplicaServer, "serve_least_work", staticmethod(counting_serve_least_work)
        )

    def check(self, table: dict, queries: int, deployments: int) -> None:
        """Assert the structural guards against one profiled run."""
        serve_calls = table.get("engine.py:serve_query", (0, 0.0))[0]
        assert self.lane_major_queries > queries // 2, "lane-major drains must carry the run"
        assert self.lane_major_queries + serve_calls == queries, (
            "every query must be served exactly once "
            f"({self.lane_major_queries} lane-major + {serve_calls} query-major "
            f"for {queries} queries)"
        )
        select_calls = table.get("routing.py:select_index", (0, 0.0))[0]
        assert select_calls + self.inline_picks == queries * deployments, (
            "the vectorized paths must carry every routing decision "
            f"(saw {select_calls} select_index + {self.inline_picks} inline, "
            f"expected {queries * deployments})"
        )
        for scalar in ("routing.py:_ready_pool", "routing.py:select"):
            assert scalar not in table, f"the scalar {scalar} leaked into a vectorized run"


def test_bench_profile_hot_path(benchmark, monkeypatch):
    """Profile a mid-size run; assert the vectorized hot path carried it."""
    pattern = paper_dynamic_pattern(base_qps=30.0, peak_qps=110.0, duration_s=600.0)
    profiler = cProfile.Profile()
    routed = _Routed(monkeypatch)

    def run():
        engine = ServingEngine(_reduced_plan(), seed=0)
        profiler.enable()
        result = engine.run(pattern)
        profiler.disable()
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    queries = result.tracker.num_samples
    assert queries > 10_000

    stats = pstats.Stats(profiler)
    table = _stats_by_name(stats)
    deployments = len(result.replica_counts)
    routed.check(table, queries, deployments)

    top = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["deployments"] = deployments
    for rank, (name, (calls, cumulative)) in enumerate(top[:8]):
        benchmark.extra_info[f"hot_{rank}"] = f"{name} calls={calls} cum={cumulative:.3f}s"


def test_bench_profile_cached_hot_path(benchmark, monkeypatch):
    """Profile a cached run; assert pricing stayed inline and array-backed.

    The per-replica embedding caches must not drag the engine off the
    vectorized shape: fills live in ``ReplicaPool.fill_rows`` and pricing runs
    against them inline, so the scalar ``ReplicaCache`` machinery and the
    ``cache_adjusted_multiplier`` helper must be absent from the profile.
    """
    pattern = paper_dynamic_pattern(base_qps=30.0, peak_qps=110.0, duration_s=600.0)
    profiler = cProfile.Profile()
    routed = _Routed(monkeypatch)

    def run():
        engine = ServingEngine(
            _reduced_plan(), seed=0, cost_model="skewed", cache_mb=64.0
        )
        profiler.enable()
        result = engine.run(pattern)
        profiler.disable()
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    queries = result.tracker.num_samples
    assert queries > 10_000
    assert result.cache_hit_rate, "the cached profile run recorded no hit-rate series"

    stats = pstats.Stats(profiler)
    table = _stats_by_name(stats)
    deployments = len(result.replica_counts)
    routed.check(table, queries, deployments)
    for leaked in (
        "replica_server.py:serve",
        "replica_server.py:hit_fractions",
        "perf_model.py:cache_adjusted_multiplier",
        "perf_model.py:factor",
    ):
        assert leaked not in table, (
            f"{leaked} leaked into the cached hot path; pricing must stay "
            "inline against the pool's array-backed fills"
        )

    top = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["deployments"] = deployments
    for rank, (name, (calls, cumulative)) in enumerate(top[:8]):
        benchmark.extra_info[f"hot_{rank}"] = f"{name} calls={calls} cum={cumulative:.3f}s"
