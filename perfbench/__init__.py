"""The repository's benchmark: ``python3 perfbench/run.py --workload <name>``.

See ``BENCHMARK.json`` at the repository root for the workloads and metrics,
and :mod:`perfbench.workloads` for each workload's parameters.
"""
