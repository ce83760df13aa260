"""Level-independent quasi-birth-death chains in continuous time.

The generator is block tridiagonal,

    | B1 B0          |
    | B2 A1 A0       |
    |    A2 A1 A0    |
    |       .. .. .. |

with a boundary level of width m0 and repeating levels of width m.  The module
computes the minimal rate matrices R and G, the boundary stationary pair
(x0, x1), and tail vectors pi_k (mass at level k or above) by three routes:
matrix-geometric accumulation, a UL-type factorization of the level-shifted
generator, and a LU-type forward factorization whose measures vary by level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    Reducible,
    SingularMatrix,
    TruncationFailure,
    Unstable,
    ValidationError,
)
from .matkernel import (
    _balanced,
    _frozen,
    _powers,
    as_matrix,
    inf_norm,
    inverse,
    solve_linear,
    solve_xa,
    spectral_radius,
)
from .series import TailSeries

ROWSUM_TOL = 1e-12
STABILITY_MARGIN = 1e-9


def _check_generator_block(diag: np.ndarray, name: str) -> None:
    off = diag - np.diag(np.diag(diag))
    if np.any(off < 0):
        raise ValidationError(f"{name}: negative off-diagonal entry")
    if np.any(np.diag(diag) > 0):
        raise ValidationError(f"{name}: positive diagonal entry")


def _check_nonnegative(block: np.ndarray, name: str) -> None:
    if np.any(block < 0):
        raise ValidationError(f"{name}: negative entry in an off-diagonal block")


def _check_zero_rowsums(rowsum: np.ndarray, name: str) -> None:
    if inf_norm(rowsum) > ROWSUM_TOL:
        raise ValidationError(f"{name}: row sums deviate by {inf_norm(rowsum):.3e}")


@dataclass(frozen=True)
class QbdModel:
    """Validated block-tridiagonal generator.

    b1 is m0 x m0, b0 is m0 x m, b2 is m x m0; a0, a1, a2 are m x m.
    Construction checks the sign pattern and that every block row sums to zero
    within 1e-12.
    """

    b1: np.ndarray
    b0: np.ndarray
    b2: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        b1 = as_matrix(self.b1, "B1")
        b0 = as_matrix(self.b0, "B0")
        b2 = as_matrix(self.b2, "B2")
        a0 = as_matrix(self.a0, "A0")
        a1 = as_matrix(self.a1, "A1")
        a2 = as_matrix(self.a2, "A2")
        m0 = b1.shape[0]
        m = a1.shape[0]
        if b1.shape != (m0, m0) or a1.shape != (m, m):
            raise ValidationError("B1 and A1 must be square")
        for blk, shape, name in (
            (b0, (m0, m), "B0"),
            (b2, (m, m0), "B2"),
            (a0, (m, m), "A0"),
            (a2, (m, m), "A2"),
        ):
            if blk.shape != shape:
                raise ValidationError(f"{name}: expected shape {shape}, got {blk.shape}")
        _check_generator_block(b1, "B1")
        _check_generator_block(a1, "A1")
        for blk, name in ((b0, "B0"), (b2, "B2"), (a0, "A0"), (a2, "A2")):
            _check_nonnegative(blk, name)
        _check_zero_rowsums(b1.sum(axis=1) + b0.sum(axis=1), "boundary row")
        _check_zero_rowsums(b2.sum(axis=1) + a1.sum(axis=1) + a0.sum(axis=1), "level-1 row")
        _check_zero_rowsums(a2.sum(axis=1) + a1.sum(axis=1) + a0.sum(axis=1), "repeating row")
        for name, blk in (("b1", b1), ("b0", b0), ("b2", b2), ("a0", a0), ("a1", a1), ("a2", a2)):
            object.__setattr__(self, name, _frozen(blk))

    @property
    def m0(self) -> int:
        return self.b1.shape[0]

    @property
    def m(self) -> int:
        return self.a1.shape[0]


@dataclass(frozen=True)
class RateSolveResult:
    matrix: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class BoundarySolution:
    x0: np.ndarray
    x1: np.ndarray


def _fixed_point(step, residual, start, tol: float, max_iter: int,
                 what: str) -> RateSolveResult:
    """Iterate x <- step(x) from `start` until the successive difference is
    below tol and residual(x) below 10 tol."""
    x = start
    for iteration in range(1, max_iter + 1):
        x_next = step(x)
        delta = inf_norm(x_next - x)
        x = x_next
        if delta < tol:
            res = residual(x)
            if res < 10.0 * tol:
                return RateSolveResult(_frozen(x), iteration, res)
    raise NoConvergence(f"{what} did not reach {tol:.1e} in {max_iter} sweeps")


def solve_R(a0, a1, a2, tol: float = 1e-12, max_iter: int = 100000) -> RateSolveResult:
    """Minimal nonnegative solution of A0 + R A1 + R^2 A2 = 0.

    Fixed-point iteration R <- (A0 + R^2 A2)(-A1)^{-1} starting from zero,
    which increases monotonically toward the minimal root.  Iteration stops on
    successive-difference < tol and a defining-equation residual below 10 tol.
    """
    a0 = as_matrix(a0, "A0")
    a1 = as_matrix(a1, "A1")
    a2 = as_matrix(a2, "A2")
    neg_a1_inv = inverse(-a1)
    return _fixed_point(lambda r: (a0 + r @ r @ a2) @ neg_a1_inv,
                        lambda r: inf_norm(a0 + r @ a1 + r @ r @ a2),
                        np.zeros_like(a0), tol, max_iter, "R iteration")


def solve_G(a0, a1, a2, tol: float = 1e-12, max_iter: int = 100000) -> RateSolveResult:
    """Minimal nonnegative solution of A0 G^2 + A1 G + A2 = 0 (mirror of solve_R)."""
    a0 = as_matrix(a0, "A0")
    a1 = as_matrix(a1, "A1")
    a2 = as_matrix(a2, "A2")
    neg_a1_inv = inverse(-a1)
    return _fixed_point(lambda g: neg_a1_inv @ (a2 + a0 @ g @ g),
                        lambda g: inf_norm(a0 @ g @ g + a1 @ g + a2),
                        np.zeros_like(a2), tol, max_iter, "G iteration")


def require_stable(r) -> float:
    radius = spectral_radius(r)
    if radius >= 1.0 - STABILITY_MARGIN:
        raise Unstable(f"sp(R) = {radius:.12f} is not below 1")
    return radius


def boundary_solve(model: QbdModel, r) -> BoundarySolution:
    """Boundary stationary pair (x0, x1) given the rate matrix R.

    Solves x0 B1 + x1 B2 = 0 and x0 B0 + x1 (A1 + R A2) = 0 jointly with the
    normalization x0 e + x1 (I-R)^{-1} e = 1.  The balance system is singular
    by exactly one rank, so its last column is replaced by the normalization
    column; the dropped equation is re-checked afterwards.
    """
    r = as_matrix(r, "R")
    if not np.any(model.b0):
        raise Reducible("B0 = 0: no upward flow out of the boundary level")
    require_stable(r)
    m0, m = model.m0, model.m
    eye_minus_r = np.eye(m) - r
    geo_col = solve_linear(eye_minus_r, np.ones(m))
    balance = np.zeros((m0 + m, m0 + m))
    balance[:m0, :m0] = model.b1
    balance[m0:, :m0] = model.b2
    balance[:m0, m0:] = model.b0
    balance[m0:, m0:] = model.a1 + r @ model.a2
    system = balance.copy()
    system[:m0, -1] = 1.0
    system[m0:, -1] = geo_col
    rhs = np.zeros(m0 + m)
    rhs[-1] = 1.0
    z = _balanced(solve_xa(system, rhs), balance, "boundary solve")
    return BoundarySolution(_frozen(z[:m0]), _frozen(z[m0:]))


def tails_matrix_geometric(x1, r, levels: int, x0=None) -> TailSeries:
    """pi_k = x1 (I-R)^{-1} R^{k-1} for k = 1..levels."""
    r = as_matrix(r, "R")
    require_stable(r)
    head = solve_xa(np.eye(r.shape[0]) - r, np.asarray(x1, dtype=float))
    return TailSeries(_powers(head, r, levels),
                      None if x0 is None else np.asarray(x0, dtype=float),
                      method="matrix-geometric")


def tails_ul(model: QbdModel, r, boundary: BoundarySolution, levels: int) -> TailSeries:
    """Tails from the UL factorization of the level-shifted generator.

    The censored corner block is Phi0 = (A0 + A1) + R A2 and
    pi_1 = x0 B0 (-Phi0)^{-1}, pi_k = pi_1 R^{k-1}, with x0 from `boundary`.
    The report carries the residual of the identity
    x0 B0 (-Phi0)^{-1} = x1 (I-R)^{-1}, which checks the UL head against the
    matrix-geometric head of the same boundary solve.
    """
    r = as_matrix(r, "R")
    require_stable(r)
    phi0 = (model.a0 + model.a1) + r @ model.a2
    head = solve_xa(-phi0, boundary.x0 @ model.b0)
    geometric_head = solve_xa(np.eye(model.m) - r, boundary.x1)
    report = {"identity_residual": inf_norm(head - geometric_head)}
    return TailSeries(_powers(head, r, levels), boundary.x0, method="ul-rg",
                      truncation_report=report)


def tails_lu(model: QbdModel, x0, levels: int, depth: int | None = None,
             tol: float = 1e-14) -> TailSeries:
    """Tails from the LU-type forward factorization.

    Builds the level-varying measures Psi_0 = A0 + A1,
    Psi_k = A1 + A2 (-Psi_{k-1})^{-1} A0, with up-blocks
    Rk = A2 (-Psi_{k-1})^{-1} and down-blocks Gk = (-Psi_k)^{-1-ish} A0, and
    accumulates

        pi_n = x0 B0 [ Y_{n-1} (-Psi_{n-1})^{-1}
                       + sum_{k>=n} Y_k (-Psi_k)^{-1} Rk Rk-1 ... Rn ]

    where Y_k is the ordered product G_0 G_1 ... G_{k-1}.  Each series stops
    once the added term's inf-norm drops below tol; the depth cap defaults to
    10*levels + 200.
    """
    x0 = np.asarray(x0, dtype=float)
    if levels == 0:
        return TailSeries([], x0, method="lu-rg")
    a0, a1, a2 = model.a0, model.a1, model.a2
    cap = depth if depth is not None else 10 * levels + 200
    w = x0 @ model.b0
    psi = a0 + a1
    heads: list[np.ndarray | None] = [None] * (levels + 1)
    acc = [np.zeros(model.m) for _ in range(levels + 1)]
    yrow = w
    c = solve_xa(-psi, yrow)
    heads[1] = c
    up_blocks: list[np.ndarray] = []
    max_term = float("inf")
    terms = 0
    for k in range(1, cap + 1):
        minv = inverse(-psi)
        if np.min(minv) < -1e-9:
            raise SingularMatrix(f"level {k}: measure inverse is not nonnegative")
        up_k = a2 @ minv
        down_prev = minv @ a0
        psi = a1 + up_k @ a0
        up_blocks.append(up_k)
        yrow = yrow @ down_prev
        c = solve_xa(-psi, yrow)
        if k < levels:
            heads[k + 1] = c
        d = c
        max_term = 0.0
        for j in range(k, 0, -1):
            d = d @ up_blocks[j - 1]
            if j <= levels:
                acc[j] += d
                max_term = max(max_term, inf_norm(d))
        terms = k
        if max_term < tol and k >= levels:
            break
    else:
        raise TruncationFailure(
            f"lu tail series still adding {max_term:.3e} after {cap} terms"
        )
    pis = [heads[n] + acc[n] for n in range(1, levels + 1)]
    report = {"terms": terms, "last_term_norm": max_term, "series_tol": tol}
    return TailSeries(pis, x0, method="lu-rg", truncation_report=report)
