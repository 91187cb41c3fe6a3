"""Test-session setup shared by every test module."""

import numpy as np

from blas_kernel import openblas_corename


def pytest_report_header(config):
    """Names the numpy version and OpenBLAS kernel at the top of every test
    log, so a golden-digest failure shows which digest set applied."""
    return f"numpy {np.__version__}, OpenBLAS kernel {openblas_corename() or 'unknown (no bundled scipy-openblas)'}"
