"""Tests of the benchmark itself: tracer hygiene, checks, names, exit codes."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, traced
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(workload: str, work_dir: Path, duration_s: float, seed: int = 3):
    """One short run of ``workload``: its results and spool facts."""
    simulation = WORKLOADS[workload](seed, work_dir, duration_s=duration_s)
    try:
        results = simulation.run()
        facts = simulation.inspect()
    finally:
        simulation.close()
    return results, facts


def test_names_are_well_formed_unique_and_implemented():
    for kind in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in SPEC[kind]]
        assert len(names) == len(set(names)), kind
        assert all(NAME.fullmatch(name) for name in names), kind
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_are_exactly_the_declared_ones(tmp_path):
    results, facts = _run("fig19_uncached", tmp_path, 60.0)
    emitted = set(traced.layer_metrics(Tracer(), results, facts, 0.5))
    emitted |= set(traced.trace_health(2.0, 1.0, 1e-6, 0.5))
    assert emitted == {metric["name"] for metric in SPEC["per_layer"]}


def test_restore_puts_back_every_wrapped_attribute(tmp_path):
    owners = {id(owner): owner for owner, *_ in traced.LAYERS}
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    tracer = Tracer()
    traced.install(tracer, tmp_path)
    assert any(dict(vars(owner)) != before[key] for key, owner in owners.items())
    tracer.restore()
    for key, owner in owners.items():
        assert dict(vars(owner)) == before[key], owner


@pytest.mark.parametrize(
    "workload, duration_s",
    [("fig19_cached", 120.0), ("tenants_control", 120.0), ("sharded_spool", 60.0)],
)
def test_tiny_traced_run_matches_untraced(tmp_path, workload, duration_s):
    untraced, _ = _run(workload, tmp_path, duration_s)
    tracer = Tracer()
    traced.install(tracer, tmp_path)
    try:
        traced_results, _ = _run(workload, tmp_path, duration_s)
    finally:
        tracer.restore()
    assert {n: r.digest() for n, r in traced_results.items()} == {
        n: r.digest() for n, r in untraced.items()
    }
    for snapshot in tmp_path.glob("worker-*.json"):
        tracer.add(json.loads(snapshot.read_text()))
    queries = sum(r.tracker.num_samples for r in untraced.values())
    assert tracer.metric("serving.latency.record", field=0) == queries


def test_conservation_fails_on_a_doctored_counter(tmp_path):
    results, _ = _run("fig19_uncached", tmp_path, 60.0)
    assert checks.conservation(results) == []
    result = results["fig19"]
    result.rejected_queries = result.tracker.num_samples + 1
    assert checks.conservation(results)


def test_same_digests_fails_on_a_mismatch():
    assert checks.same_digests({"a": "x"}, {"a": "x"}) == []
    assert checks.same_digests({"a": "x"}, {"a": "y"})
    assert checks.same_digests({"a": "x"}, {"b": "x"})


def test_shard_totals_fail_on_doctored_shard_records(tmp_path):
    results, facts = _run("sharded_spool", tmp_path, 60.0)
    assert checks.shard_totals(results, facts) == []
    shard = next(iter(facts["shards"].values()))
    tenant = next(iter(shard["tenants"]))
    shard["tenants"][tenant] += 1
    assert checks.shard_totals(results, facts)
    shard["tenants"][tenant] -= 1
    shard["memory_gb"] = shard["memory_gb"] + 1.0
    assert checks.shard_totals(results, facts)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig19_uncached",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
