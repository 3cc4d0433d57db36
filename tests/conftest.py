import os

# BLAS reads its thread count when numpy loads it, and a multi-threaded BLAS
# may sum in another order, which changes the last bits of forth's 114-DOF
# solve; the golden histories are recorded with one thread
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARIABLES:
    os.environ[_name] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


class FakeRng:
    """Scripted stand-in for numpy's Generator.

    ``random()`` pops from the ``randoms`` sequence and ``integers()`` from
    ``integers`` regardless of the bound; arrays (a ``size``) are filled in
    order.
    Running out of scripted values raises, which doubles as a check that
    the code under test consumes exactly the expected number of draws.
    """

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self, size=None):
        if size is None:
            return self._randoms.pop(0)
        if isinstance(size, tuple):
            n = int(np.prod(size))
            vals = [self._randoms.pop(0) for _ in range(n)]
            return np.array(vals).reshape(size)
        return np.array([self._randoms.pop(0) for _ in range(int(size))])

    def integers(self, *args, size=None, **kwargs):
        if size is None:
            return self._integers.pop(0)
        return np.array([self._integers.pop(0) for _ in range(int(size))])

    @property
    def exhausted(self):
        return not self._randoms and not self._integers


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
