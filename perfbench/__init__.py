"""Benchmark of the cslsim package: workloads, output checks and tracing.

Run it from the root of a checkout with `python3 perfbench/run.py`; see
perfbench/README.md.
"""
