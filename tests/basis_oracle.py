"""Row-reduction oracle for the representer basis.

The library selects the basis with a column-skipping Cholesky factorisation of
the bordered matrix.  The reference here is the original selector: Gaussian
elimination with partial pivoting over the same bordered matrix, whose pivot
columns are the matrix's column rank profile.  It is O(n^3) in Python-level
steps, so tests use it only on small inputs.  ``rref_basis_and_factor``
pairs its basis with the Cholesky factor that the library's selector returns
alongside a basis, so a context can be built over the oracle's columns.
"""

import numpy as np

from survcare.partial_likelihood import _BASIS_BLOCK, SCHUR_DIAGONAL_REL_TOL

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


def khat_matrix(gram_entries, cns, basis):
    """The centred penalty khat over ``basis`` by its formula.

    khat(X_i, X_j) = k(X_i, X_j) - kbar_i - kbar_j + kbar_i kbar_j cns, with
    kbar the column means of the Gram matrix.  The library never forms it: it
    defines the penalty as R'R for an exact factor R.  The formula cancels to
    about eps times the Gram entries, so it is a reference only to that
    absolute accuracy.
    """
    kbar = gram_entries.mean(axis=0)[basis]
    khat = (gram_entries[np.ix_(basis, basis)] - kbar[:, None] - kbar[None, :]
            + np.outer(kbar, kbar) * cns)
    return 0.5 * (khat + khat.T)


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


def rref_basis_and_factor(gram_entries, cns) -> tuple[np.ndarray, np.ndarray]:
    """(basis, lower) as ``build_representer_basis`` returns them, over the oracle's basis.

    A copy of the library's blocked column-skipping Cholesky factorisation
    that also skips every training column outside ``rref_basis``.  It accepts
    the constant's column always, like the library, and drops an oracle
    column whose Schur-complement diagonal is numerically zero.  Given the
    library's columns it reproduces the library's factor bit for bit.
    """
    gram = np.asarray(gram_entries, dtype=float)
    n = gram.shape[0]
    allowed = set((rref_basis(gram, cns) + 1).tolist())
    tol = SCHUR_DIAGONAL_REL_TOL * float(np.abs(bordered_matrix(gram, cns)).max())
    factor = np.zeros((n + 1, n + 1))
    factor[0, 0], factor[1:, 0] = cns, 1.0
    factor[:, 0] /= np.sqrt(cns)
    accepted = [0]
    for block in range(0, n + 1, _BASIS_BLOCK):
        start, stop = max(block, 1), min(block + _BASIS_BLOCK, n + 1)
        r = len(accepted)
        schur = (gram[start - 1:, start - 1:stop - 1]
                 - factor[start:, :r] @ factor[start:stop, :r].T)
        width = stop - start
        own = schur[:width]
        for c in range(width):
            diag = own[c, c]
            if start + c not in allowed or not diag > tol:
                continue
            col = own[c:, c] / np.sqrt(diag)
            factor[start + c:stop, len(accepted)] = col
            accepted.append(start + c)
            own[c + 1:, c + 1:] -= col[1:, None] * col[None, 1:]
        taken = np.array(accepted[r:], dtype=int)
        if taken.size and stop <= n:
            factor[stop:, r:len(accepted)] = np.linalg.solve(
                factor[taken, r:len(accepted)], schur[width:, taken - start].T).T
    basis = np.array(accepted[1:], dtype=int) - 1
    return basis, factor[accepted, :len(accepted)]
