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


class NanOnCall:
    """A pattern family whose ``forward`` returns NaN on its ``k``-th
    call and otherwise passes through to ``family``."""

    def __init__(self, family, k):
        self.family, self.k, self.calls = family, k, 0

    def __getattr__(self, name):
        return getattr(self.family, name)

    def forward(self, length, atoms):
        self.calls += 1
        values, lo, ctx = self.family.forward(length, atoms)
        if self.calls == self.k:
            values = np.full_like(values, np.nan)
        return values, lo, ctx


@pytest.fixture
def nan_on_call():
    return NanOnCall
