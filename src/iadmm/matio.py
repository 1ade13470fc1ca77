"""Text matrix format used for instance files.

Sparse 0/1: first line "rows cols nnz", then one "i j" pair per nonzero,
0-based row-major order, value implicitly 1.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionError


def save_sparse01(path, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise DimensionError("sparse format stores 2-d matrices")
    if not np.all(np.isin(np.unique(m), (0.0, 1.0))):
        raise DimensionError("sparse 0/1 format requires binary entries")
    rows, cols = m.shape
    ii, jj = np.nonzero(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rows} {cols} {len(ii)}\n")
        for i, j in zip(ii, jj):
            fh.write(f"{i} {j}\n")


def load_sparse01(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise DimensionError("sparse file needs a 'rows cols nnz' header")
    rows, cols, nnz = int(tokens[0]), int(tokens[1]), int(tokens[2])
    idx = tokens[3:]
    if len(idx) != 2 * nnz:
        raise DimensionError(f"sparse file has {len(idx) // 2} pairs, expected {nnz}")
    out = np.zeros((rows, cols))
    for k in range(nnz):
        i, j = int(idx[2 * k]), int(idx[2 * k + 1])
        if not (0 <= i < rows and 0 <= j < cols):
            raise DimensionError(f"sparse index ({i}, {j}) outside {rows} x {cols}")
        out[i, j] = 1.0
    return out
