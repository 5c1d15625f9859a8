"""The repository benchmark: one command per workload, end to end and
layer by layer.

``python3 perfbench/run.py --workload <serve|live> --seed N
--seconds S --trace <0|1>`` runs one workload from the repository
root, checks every output against an oracle, prints a human-readable
report and, as its last line, one JSON object with the metrics named
in ``BENCHMARK.json``.  See :mod:`perfbench.run` for the layout.
"""
