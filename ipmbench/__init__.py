"""Benchmark of the ipmsim toolkit: seeded workloads, output checks and tracing.

Run a workload with ``python3 ipmbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout; see
``ipmbench/README.md`` for the workloads, metrics and predictions.
"""
