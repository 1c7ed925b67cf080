"""Name of the OpenBLAS kernel that NumPy's matrix products run on.

OpenBLAS picks a kernel for the CPU when it loads (``OPENBLAS_CORETYPE``
overrides the choice), and dot products and long reductions may round
differently from one kernel to the next. The name is the one OpenBLAS
reports, which need not be the one set: ``OPENBLAS_CORETYPE=Prescott``
reports ``Katmai``.
"""

from __future__ import annotations

import ctypes
import glob
import os


def blas_kernel() -> str | None:
    """The kernel NumPy's bundled OpenBLAS reports, or None if it cannot be
    asked. The library is found as ``perfbench/run.py``'s ``blas_threads``
    finds it."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


if __name__ == "__main__":
    print(blas_kernel())
