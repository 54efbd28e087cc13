"""Time one cold set-up of a workload: import inscribe and build its inputs.

Run in a fresh interpreter by ``run.py``, with the checkout's ``src`` on
``PYTHONPATH``; prints the seconds spent.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    workloads.build(sys.argv[1], Path(__file__).resolve().parent.parent)
    print(time.perf_counter() - start)
