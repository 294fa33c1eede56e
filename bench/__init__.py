"""The repository benchmark: four workloads, checked outputs, traced layers.

See ``bench/README.md``. Entry points: ``bench/run.py`` (one workload,
one run), ``python -m bench`` (every workload, result file),
``bench/compare.py`` (two result files) and ``python -m bench.check
--write`` (golden files).
"""
