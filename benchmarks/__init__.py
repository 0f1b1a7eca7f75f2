"""Benchmark suite: one module per table/figure of the paper.

docs/fidelity.md maps each module to its figure or table.
"""
