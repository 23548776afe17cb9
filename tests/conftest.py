"""Pin BLAS to one thread for the test run.

Each gate is a small matmul whose threading costs more than it saves, so
the suite runs faster single-threaded.  The variables are read when numpy is
first imported, which happens after this file is loaded; a value already set
in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
