"""Benchmark suite configuration.

Run with ``PYTHONPATH=src pytest benchmarks/ --benchmark-only``.  Each
benchmark regenerates one of the paper's tables or figures (printed to
stdout; use ``-s`` to see them live, or rely on pytest's captured-output
report).  Set ``REPRO_BENCH_SCALE=full`` for paper-scale experiment sizes.
"""
