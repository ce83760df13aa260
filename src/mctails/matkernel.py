"""Dense real-matrix kernel used by every solver, and the package's only
user of numpy.linalg.

Matrices are plain 2-d float64 numpy arrays; probability and rate vectors are
1-d arrays treated as rows.  Every linear solve is one LAPACK call followed by
an explicit guard: an exactly singular matrix, a non-finite solution, or a
1-norm reciprocal condition number below RCOND_MIN raises SingularMatrix
instead of returning digits that mean nothing.  Spectral radii come from the
eigenvalues.  Stationary rows are the exception to LAPACK: stationary_row is
GTH state reduction inside the matrix's band, which needs no subtraction, so
each entry is accurate relative to its own size however small it is.  Its
answer passes the same balance guard as every other stationary vector.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix, ValidationError

# Below this 1-norm reciprocal condition number a solve is refused: its
# relative error bound, machine epsilon over the reciprocal condition number,
# would pass 2%.
RCOND_MIN = 1e-14
# Relative balance residual and negative mass a stationary solve may leave.
BALANCE_TOL = 1e-8


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float64 array, raising ValidationError otherwise."""
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not a rectangular numeric matrix ({exc})") from None
    if a.ndim != 2 or a.size == 0:
        raise ValidationError(f"{name}: expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name}: contains non-finite entries")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


def _powers(head, rate, levels: int) -> list:
    """head, head R, head R^2, ...: the first `levels` rows."""
    rows = [head] if levels >= 1 else []
    for _ in range(1, levels):
        rows.append(rows[-1] @ rate)
    return rows


def as_row(values, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-d float64 row vector."""
    try:
        v = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not a numeric vector ({exc})") from None
    v = np.atleast_1d(np.squeeze(v))
    if v.ndim != 1 or v.size == 0:
        raise ValidationError(f"{name}: expected a nonempty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name}: contains non-finite entries")
    return v


def inf_norm(a) -> float:
    """Max absolute row sum for matrices, max |entry| for vectors."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if a.ndim <= 1:
        return float(np.max(np.abs(a)))
    return float(np.max(np.sum(np.abs(a), axis=1)))


def _square(a, caller: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{caller}: matrix must be square, got shape {a.shape}")
    return a


def solve_linear(a, b) -> np.ndarray:
    """Solve A X = B with one LAPACK call (numpy.linalg.solve).

    The inverse of A is solved for alongside B, so the 1-norm reciprocal
    condition number 1 / (||A||_1 ||A^-1||_1) is exact rather than estimated.

    Args:
        a: square coefficient matrix.
        b: right-hand side, one column (1-d, returned 1-d) or several.

    Raises:
        SingularMatrix: if A is exactly singular, the solution is not finite,
            or the reciprocal condition number is below RCOND_MIN.
    """
    a = _square(a, "solve_linear")
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValidationError(f"solve_linear: B has {b.shape[0]} rows, expected {n}")
    columns = b.reshape(n, -1)
    try:
        both = np.linalg.solve(a, np.concatenate((columns, np.eye(n)), axis=1))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{n} x {n} system: {exc}") from None
    if not np.isfinite(both).all():
        raise SingularMatrix(f"{n} x {n} system: non-finite solution")
    k = columns.shape[1]
    rcond = 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(both[:, k:], 1))
    if rcond < RCOND_MIN:
        raise SingularMatrix(
            f"{n} x {n} system: reciprocal condition number {rcond:.3e} "
            f"below {RCOND_MIN:.1e}"
        )
    # a copy, so that the result does not keep the inverse alive
    return both[:, :k].reshape(b.shape).copy()


def solve_xa(a, b) -> np.ndarray:
    """Solve X A = B (row-vector orientation) via the transposed system."""
    return solve_linear(np.transpose(a), np.transpose(b)).T


def inverse(a) -> np.ndarray:
    """A^-1, under the guard of solve_linear."""
    return solve_linear(a, np.eye(len(a)))


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude of a nonnegative square matrix.

    Raises:
        ValidationError: on a negative entry beyond roundoff, n machine
            epsilons of the largest entry; those within it are clipped.
    """
    a = _nonnegative(_square(a, "spectral_radius"), "spectral_radius: negative entry")
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _nonnegative(a: np.ndarray, what: str) -> np.ndarray:
    """a, or a copy with its negative entries set to zero when they are
    roundoff: within n machine epsilons of the largest entry of the n x n
    matrix.  Matrices built from solves may carry roundoff below an exact
    zero; a negative entry beyond it raises ValidationError(what)."""
    low = a.min()
    if low < 0.0:
        if low < -len(a) * np.finfo(float).eps * a.max():
            raise ValidationError(f"{what} {low:.3e}")
        return np.maximum(a, 0.0)
    return a


def _reach(nonzero: np.ndarray) -> int:
    """Largest distance from a row index down to the row's first nonzero
    column, over the rows that have one."""
    drop = np.arange(len(nonzero)) - nonzero.argmax(axis=1)
    drop[~nonzero.any(axis=1)] = 0
    return int(drop.max())


def stationary_row(m, continuous: bool = True) -> np.ndarray:
    """Stationary row vector of a generator (v M = 0) or kernel (v M = v).

    GTH state reduction (Grassmann, Taksar & Heyman 1985) on the off-diagonal
    entries, which M and M - I share.  The last state is folded into the
    states below it, which renews their rates by additions only, then the
    next, down to state 0; back-substitution and normalization give v, with
    every entry accurate relative to its own size.  Folding a state touches
    only the rows that reach it and the columns it reaches, so the work stays
    inside the band of the off-diagonal nonzeros: O(n p q) for lower reach p
    and upper reach q.  The balance residual is re-checked afterwards.

    Raises:
        ValidationError: on a negative off-diagonal entry beyond roundoff,
            n machine epsilons of the largest off-diagonal entry.
        SingularMatrix: if a state reaches no lower state once the states
            above it are folded in (two closed classes, say), or if v misses
            balance.
    """
    m = _square(m, "stationary_row")
    n = m.shape[0]
    balance = m if continuous else m - np.eye(n)
    a = m.copy()
    np.fill_diagonal(a, 0.0)
    a = _nonnegative(a, "stationary_row: negative off-diagonal entry")
    nonzero = a != 0.0
    below, above = _reach(nonzero), _reach(nonzero.T)
    # Folding k divides column k above the diagonal by k's outflow to the
    # states below it, then adds the rates through k to the rows that reach
    # it.  The diagonal of a collects junk and is never read.  One buffer
    # holds every fold's rank-one update, so the loop allocates no arrays.
    scratch = np.empty((above, below))
    for k in range(n - 1, 0, -1):
        first_row, first_col = max(0, k - above), max(0, k - below)
        row = a[k, first_col:k]
        out = row.sum()
        if out == 0.0:
            raise SingularMatrix(f"stationary solve: state {k} reaches no lower state")
        col = a[first_row:k, k]
        col /= out
        block = a[first_row:k, first_col:k]
        block += np.multiply.outer(col, row, out=scratch[: k - first_row, : k - first_col])
    v = np.empty(n)
    v[0] = 1.0
    for k in range(1, n):
        first_row = max(0, k - above)
        v[k] = mass = v[first_row:k] @ a[first_row:k, k]
        if mass > 1e250:  # a chain that climbs: keep the row finite
            v[: k + 1] /= mass
    return _balanced(v / v.sum(), balance, "stationary solve")


def _balanced(v: np.ndarray, balance: np.ndarray, what: str) -> np.ndarray:
    """v clipped at zero, after checking that it solves v balance = 0 to
    BALANCE_TOL relative and carries no negative mass beyond BALANCE_TOL."""
    residual = inf_norm(v @ balance)
    if not residual <= BALANCE_TOL * max(1.0, inf_norm(balance)):  # NaN fails too
        raise SingularMatrix(f"{what} left balance residual {residual:.3e}")
    if np.min(v) < -BALANCE_TOL:
        raise SingularMatrix(f"{what} produced negative mass {np.min(v):.3e}")
    return np.maximum(v, 0.0)
