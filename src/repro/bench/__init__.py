"""Experiment harness regenerating the paper's figures and tables.

``repro.bench.workloads`` defines the canonical gradient/snapshot workloads
(trainers come from ``repro.ml.catalogue``);
``repro.bench.experiments`` computes the rows behind each figure/table;
``repro.bench.reporting`` renders aligned text tables.  The pytest-benchmark
modules under ``benchmarks/`` are thin wrappers that print these rows and
time the hot kernels.
"""

from repro.bench.reporting import format_table

__all__ = ["format_table"]
