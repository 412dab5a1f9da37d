"""Set-up probe, started by run.py in a fresh interpreter.

Imports ofdma_sra, parses the scenario config given as JSON in argv[1] and
builds and packs the first cell's problem instances, then prints ``ready``.
run.py times the span from starting this process to reading that line.
"""

import json
import sys

from workloads import prepare

prepare(json.loads(sys.argv[1]))
print("ready", flush=True)
