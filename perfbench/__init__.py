"""Benchmark of the halfcomm package: seeded workloads, output oracles and tracing.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``run.py`` for the workloads and metrics.
"""
