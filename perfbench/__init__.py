"""The repository benchmark: three workloads, per-layer tracing, compare.

Entry points: ``perfbench/run.py`` (one run), ``perfbench/compare.py``
(two result sets) and ``perfbench/determinism.py`` (hash-seed repeat).
"""
