"""Outside-in benchmark of the repro engine (see README.md in this directory).

Run one workload with::

    python3 perfbench/run.py --workload paper-tests --seed 1 --seconds 10 --trace 0
"""
