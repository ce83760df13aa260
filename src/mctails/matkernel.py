"""Dense real-matrix kernel used by every solver.

Matrices are plain 2-d float64 numpy arrays; probability and rate vectors are
1-d arrays treated as rows.  The two nontrivial operations are a
partial-pivoting Gaussian elimination (so singularity is detected by an
explicit pivot threshold rather than by whatever a library backend does) and a
power-iteration spectral radius for nonnegative matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, SingularMatrix, ValidationError

PIVOT_TOL = 1e-14


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


def solve_linear(a, b, pivot_tol: float = PIVOT_TOL) -> np.ndarray:
    """Solve A X = B by Gaussian elimination with partial pivoting.

    Args:
        a: square coefficient matrix.
        b: right-hand side, one or several columns (1-d input is treated as a
           single column and returned 1-d).
        pivot_tol: absolute pivot threshold below which A is declared singular.

    Raises:
        SingularMatrix: if some pivot magnitude falls below pivot_tol.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"solve_linear: A must be square, got shape {a.shape}")
    n = a.shape[0]
    b_arr = np.array(b, dtype=float)
    one_column = b_arr.ndim == 1
    if one_column:
        b_arr = b_arr.reshape(n, 1)
    if b_arr.shape[0] != n:
        raise ValidationError(
            f"solve_linear: B has {b_arr.shape[0]} rows, expected {n}"
        )
    aug = np.hstack([a, b_arr])
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        pivot = aug[p, k]
        if abs(pivot) < pivot_tol:
            raise SingularMatrix(
                f"pivot {abs(pivot):.3e} below {pivot_tol:.1e} at column {k}"
            )
        if p != k:
            aug[[k, p]] = aug[[p, k]]
        factors = aug[k + 1:, k:k + 1] / pivot
        aug[k + 1:, k:] -= factors * aug[k:k + 1, k:]
    x = np.zeros((n, b_arr.shape[1]))
    for k in range(n - 1, -1, -1):
        x[k] = (aug[k, n:] - aug[k, k + 1:n] @ x[k + 1:]) / aug[k, k]
    return x[:, 0] if one_column else x


def solve_xa(a, b, pivot_tol: float = PIVOT_TOL) -> np.ndarray:
    """Solve X A = B (row-vector orientation) via the transposed system."""
    b_arr = np.array(b, dtype=float)
    if b_arr.ndim == 1:
        return solve_linear(np.asarray(a, dtype=float).T, b_arr, pivot_tol)
    return solve_linear(np.asarray(a, dtype=float).T, b_arr.T, pivot_tol).T


def inverse(a, pivot_tol: float = PIVOT_TOL) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return solve_linear(a, np.eye(a.shape[0]), pivot_tol)


def spectral_radius(a, tol: float = 1e-12, max_iter: int = 10000) -> float:
    """Dominant eigenvalue magnitude of a nonnegative matrix by power iteration.

    Starts from the all-ones vector and stops once the Rayleigh-style estimate
    changes by less than tol between iterates.

    Raises:
        NoConvergence: if the estimate still oscillates after max_iter steps
            (cyclic structure); callers may fall back on power_norm_bound.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"spectral_radius: matrix must be square, got {a.shape}")
    if np.any(a < 0):
        raise ValidationError("spectral_radius: matrix has negative entries")
    v = np.ones(a.shape[0])
    previous = None
    for _ in range(max_iter):
        w = a @ v
        estimate = float(np.max(w))
        if estimate == 0.0:
            return 0.0
        v = w / estimate
        if previous is not None and abs(estimate - previous) <= tol * max(estimate, 1.0):
            return estimate
        previous = estimate
    raise NoConvergence(
        f"power iteration did not settle in {max_iter} steps (last {previous:.6e})"
    )


def power_norm_bound(a, power: int = 32) -> float:
    """Upper bound on the spectral radius via the norm of a matrix power.

    ||A^k||_inf ** (1/k) decreases toward the radius; used as a fallback when
    power iteration cycles.
    """
    a = np.asarray(a, dtype=float)
    p = np.linalg.matrix_power(a, power)
    norm = inf_norm(p)
    if norm == 0.0:
        return 0.0
    return float(norm ** (1.0 / power))


def stationary_row(
    m,
    continuous: bool = True,
    pivot_tol: float = PIVOT_TOL,
    residual_tol: float = 1e-8,
) -> np.ndarray:
    """Stationary row vector of a generator (v M = 0) or kernel (v M = v).

    The last balance column is replaced by the normalization v e = 1; the full
    balance residual is re-checked afterwards so anything but a rank-one
    deficiency is rejected.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"stationary_row: matrix must be square, got {m.shape}")
    n = m.shape[0]
    balance = m if continuous else m - np.eye(n)
    system = balance.copy()
    system[:, -1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    v = solve_xa(system, rhs, pivot_tol)
    scale = max(1.0, inf_norm(balance))
    residual = inf_norm(v @ balance)
    if residual > residual_tol * scale:
        raise SingularMatrix(
            f"stationary solve left balance residual {residual:.3e}"
        )
    if np.min(v) < -residual_tol:
        raise SingularMatrix(
            f"stationary solve produced negative mass {np.min(v):.3e}"
        )
    return np.maximum(v, 0.0)
