"""The OpenBLAS kernel that numpy's linear algebra runs on.

numpy's wheels bundle ``scipy-openblas``, built for every x86-64 kernel
family, and pick one at load time unless ``OPENBLAS_CORETYPE`` forces it.
The golden digests of CMA-ES runs are fixed per kernel family, so the
tests that check them, and the header of every test log, name it.
"""

import ctypes
from pathlib import Path

import numpy as np


def openblas_corename() -> str | None:
    """The core name the loaded OpenBLAS reports (``SkylakeX``,
    ``Haswell``, ...), or None where numpy bundles no ``scipy-openblas``."""
    root = Path(np.__file__).parent
    # Linux and Windows wheels keep it in numpy.libs, macOS wheels in .dylibs
    for path in sorted([*root.parent.glob("numpy.libs/*scipy_openblas*"), *root.glob(".dylibs/*scipy_openblas*")]):
        try:
            library = ctypes.CDLL(str(path))  # the copy numpy loaded, not a second one
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None
