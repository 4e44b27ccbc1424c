"""Test-harness settings, applied before any test module imports numpy.

OpenBLAS, OpenMP and MKL read their thread counts once, when numpy loads.
With their default counts, the suite's many small stacked products now and
then stall on a machine with few cores, which any timed assertion sees; so
each is pinned to one thread, here, first.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py, so the "
                       "BLAS thread settings below would have no effect")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
