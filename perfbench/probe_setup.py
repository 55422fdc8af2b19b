"""Time one fresh set-up: import numpy, scipy and gqd, then the workload's warm-up call.

    python3 perfbench/probe_setup.py <workload>    # prints the seconds taken

run.py starts this several times per run and reports the median as setup_s.
"""
import sys
import time

t0 = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (imports numpy, scipy and gqd)

workdir = BENCH / "out" / f"tmp-{os.getpid()}"
workdir.mkdir(parents=True, exist_ok=True)
try:
    workloads.make(sys.argv[1], workdir).warmup()
finally:
    shutil.rmtree(workdir, ignore_errors=True)
print(time.perf_counter() - t0)
