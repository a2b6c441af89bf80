"""Benchmark of the matsuki engine: seeded workloads timed from outside the package.

Run ``python3 bench/run.py --workload loops --seed 1 --seconds 25 --trace 0``
from the repository root; see ``bench/README.md``.
"""
