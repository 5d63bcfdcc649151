"""Test-session set-up.

Pins BLAS to one thread before numpy loads.  The library's work is
single-threaded by design, and several test processes or a test process
next to another numpy process would otherwise oversubscribe the cores with
spinning BLAS threads, which slows the wall-time budgets of the acceptance
tests several-fold.  A variable already set in the environment wins.
"""

import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py ran, so the "
                  "BLAS thread pins do not apply to this session")
