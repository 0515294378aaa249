"""Cold set-up probe, run by ``run.py`` in a fresh interpreter.

Prints the seconds taken by ``import loopalg`` plus the set-up constructors of
the workload named in ``argv[1]``.  ``PYTHONPATH`` must point at the
checkout's ``src``.
"""

import sys
import time

# The benchmark's own imports load before the clock starts, so the figure
# covers loopalg and its constructors only.
import hashlib, json, signal, subprocess, traceback  # noqa: E401,F401

t0 = time.perf_counter()
import loopalg  # noqa: E402,F401
import workloads  # noqa: E402

workloads.make(sys.argv[1], seed=0, root=".").setup()
print(repr(time.perf_counter() - t0))
