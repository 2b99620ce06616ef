"""Row-reduction oracle for the representer basis.

The library selects the basis with a column-skipping Cholesky factorisation of
the bordered matrix.  The reference here is the original selector: Gaussian
elimination with partial pivoting over the same bordered matrix, whose pivot
columns are the matrix's column rank profile.  It is O(n^3) in Python-level
steps, so tests use it only on small inputs.
"""

import numpy as np

# Pivots below this fraction of the largest entry of the input are treated as
# zero during elimination.
RREF_PIVOT_TOL = 1e-10


def bordered_matrix(gram_entries, cns):
    n = gram_entries.shape[0]
    out = np.empty((n + 1, n + 1))
    out[0, 0] = cns
    out[0, 1:] = 1.0
    out[1:, 0] = 1.0
    out[1:, 1:] = gram_entries
    return out


def rref_pivot_columns(matrix: np.ndarray, rel_tol: float = RREF_PIVOT_TOL) -> list[int]:
    """Pivot-column indices of the reduced row echelon form.

    Gaussian elimination with partial pivoting; a candidate pivot counts only
    if its magnitude exceeds rel_tol times the largest entry of the input.
    """
    a = np.array(matrix, dtype=float)
    n_rows, n_cols = a.shape
    tol = rel_tol * max(float(np.abs(a).max()), np.finfo(float).tiny)
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        sub = np.abs(a[row:, col])
        best = int(np.argmax(sub))
        if sub[best] <= tol:
            continue
        if best:
            a[[row, row + best]] = a[[row + best, row]]
        a[row] /= a[row, col]
        col_vals = a[:, col].copy()
        col_vals[row] = 0.0
        a -= np.outer(col_vals, a[row])
        pivots.append(col)
        row += 1
    return pivots


def rref_basis(gram_entries, cns) -> np.ndarray:
    """The basis that row reduction of the bordered matrix selects (0-based)."""
    pivots = rref_pivot_columns(bordered_matrix(gram_entries, cns))
    return np.array([c - 1 for c in pivots if c >= 1], dtype=int)
