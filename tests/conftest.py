import os

# One BLAS/OpenMP thread, set before NumPy is first imported: the tests'
# vector operations are too small to split, and a second OpenBLAS
# thread only spins, doubling the CPU time of the run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
