"""Reference implementations the differential tests and benchmarks compare against.

Each module keeps a path the library no longer runs, unchanged, so that the
production path can be checked against it byte for byte:

* :mod:`oracles.interpreted_decode` — the interpreted constrained decoder
  (one-hot pinned slots in copied probability matrices, ``Generator.choice``
  sampling) and the per-sample policy helpers;
* :mod:`oracles.legacy_pool` — the unsupervised single-retry-pass worker-pool
  dispatch.

``tests/`` is on ``sys.path`` under pytest, and ``benchmarks/conftest.py``
adds it for the benchmarks, so both import these as ``oracles.<module>``.
"""
