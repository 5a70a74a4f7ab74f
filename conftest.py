"""Test-session setup: one BLAS thread.

The operators' GEMMs are small, and with several BLAS threads on a busy
machine a single matvec can take many times longer.  pytest loads this
file before any test module imports numpy, so the variables still take
effect.  An explicit setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
