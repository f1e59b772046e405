"""Correctness checks on one simulation run's outputs.

Each check returns a list of failure messages; an empty list is a pass.  A
run with any failure is a failed operation.
"""

from __future__ import annotations

import numpy as np


def conservation(results: dict) -> list[str]:
    """Per tenant: completions, rejections, drops and timeouts are
    non-negative and sum to the recorded arrivals, and every recorded
    latency is finite and non-negative."""
    failures = []
    for name, result in results.items():
        parts = {
            "completions": result.completed_queries,
            "rejections": result.rejected_queries,
            "drops": result.dropped_queries,
            "timeouts": result.timeout_queries,
        }
        arrivals = result.tracker.num_samples
        negative = [part for part, count in parts.items() if count < 0]
        if negative or sum(parts.values()) != arrivals:
            failures.append(
                f"{name}: {parts} do not split {arrivals} arrivals into "
                "non-negative parts"
            )
        latencies = result.tracker.latencies_s
        if latencies.size != arrivals or not np.all(np.isfinite(latencies) & (latencies >= 0)):
            failures.append(f"{name}: a recorded latency is missing, negative or not finite")
    return failures


def same_digests(reference: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Every tenant's digest equals the reference run's."""
    if set(reference) != set(digests):
        return [f"tenants {sorted(digests)} differ from the reference's {sorted(reference)}"]
    return [
        f"{name}: digest {digests[name][:12]} differs from the reference's {reference[name][:12]}"
        for name in sorted(reference)
        if digests[name] != reference[name]
    ]


def shard_totals(results: dict, facts: dict) -> list[str]:
    """The merged result equals the shards' own spool records: each tenant's
    sample count (so the totals too) and the summed pool memory series."""
    failures = []
    shard_counts: dict[str, int] = {}
    for shard in facts["shards"].values():
        for tenant, count in shard["tenants"].items():
            if tenant in shard_counts:
                failures.append(f"{tenant}: spooled by more than one shard")
            shard_counts[tenant] = count
    merged_counts = {name: result.tracker.num_samples for name, result in results.items()}
    if shard_counts != merged_counts:
        failures.append(f"merged tenant counts {merged_counts} != shard counts {shard_counts}")
    shard_memory = np.sum([shard["memory_gb"] for shard in facts["shards"].values()], axis=0)
    merged_memory = facts["cluster_memory_gb"]
    if shard_memory.shape != merged_memory.shape or not np.allclose(
        merged_memory, shard_memory, rtol=1e-12, atol=0.0
    ):
        failures.append("merged pool memory series != sum of the shards' series")
    return failures
