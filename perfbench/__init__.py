"""The repository's benchmark: four serving workloads, end-to-end and per layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from the repository root; ``--workload all`` runs every
workload, each in its own process.  ``BENCHMARK.json`` at the repository
root declares the workloads and metrics; ``PREDICTIONS.md`` beside this file
records which workload each per-layer metric should move.
"""
