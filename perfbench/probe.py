"""Set-up probe: run a workload's set-up in a fresh interpreter.

Usage: python3 perfbench/probe.py PLAN_JSON

Prints ``ready`` once hml is imported, every metric is built and each has
had its first cold call; run.py times the interval from starting this
process to that line as one ``setup_s`` sample.
"""

import sys

import workloads

workloads.setup(workloads.load_plan(sys.argv[1]))
print("ready", flush=True)
