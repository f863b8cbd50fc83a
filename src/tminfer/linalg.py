"""A Cholesky factor and solve whose bits do not depend on the BLAS threads.

``cholesky(c)`` factors a symmetric matrix in panels at most ``PANEL`` wide
(left-looking blocked Cholesky; Golub & Van Loan, *Matrix Computations*,
sec. 4.2): ``@`` subtracts what the earlier panels explain from a panel's
columns, LAPACK factors its diagonal block and a small solve gives the rest.
Up to ``PANEL`` rows it is exactly ``np.linalg.cholesky``.
``cholesky_solve`` runs forward and back substitution over the same panels.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PANEL", "cholesky", "cholesky_solve"]

# Widest block handed to LAPACK, and widest product.  OpenBLAS runs getrf
# with several threads from n = 100 and potrf from n ~ 128 up, and it splits
# the columns of a wider matmul between threads (OpenBLAS 0.3.31: products
# 191 or 193 columns wide); the bits of the result then depend on
# OPENBLAS_NUM_THREADS.  Panels of at most 96 keep every factor and solve,
# and so every artifact, byte-identical across BLAS settings.
PANEL = 96


def _panels(n: int) -> list[slice]:
    return [slice(j, min(j + PANEL, n)) for j in range(0, n, PANEL)]


def cholesky(c: np.ndarray) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T == c``; ``LinAlgError`` where a
    panel is not positive definite."""
    n = c.shape[0]
    if n <= PANEL:
        return np.linalg.cholesky(c)
    low = np.zeros((n, n))
    for p in _panels(n):
        # The panel's columns of c less the part the earlier panels explain;
        # every product has at most PANEL columns.
        col = c[p.start:, p] - low[p.start:, :p.start] @ low[p, :p.start].T
        width = p.stop - p.start
        low[p, p] = np.linalg.cholesky(col[:width])
        # L21 = A21 L11^-T, from L11 L21^T = A21^T.
        low[p.stop:, p] = np.linalg.solve(low[p, p], col[width:].T).T
    return low


def cholesky_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``low @ low.T @ x == b``, for the factor of ``cholesky``:
    forward then back substitution, one small solve per panel."""
    x = np.array(b, dtype=np.float64)
    panels = _panels(low.shape[0])
    for p in panels:
        x[p] = np.linalg.solve(low[p, p], x[p] - low[p, :p.start] @ x[:p.start])
    for p in reversed(panels):
        x[p] = np.linalg.solve(low[p, p].T, x[p] - low[p.stop:, p].T @ x[p.stop:])
    return x

