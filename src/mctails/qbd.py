"""Level-independent quasi-birth-death chains in continuous time.

The generator is block tridiagonal,

    | B1 B0          |
    | B2 A1 A0       |
    |    A2 A1 A0    |
    |       .. .. .. |

with a boundary level of width m0 and repeating levels of width m.  The module
computes the minimal passage matrix G by shifted logarithmic reduction and
the rate matrix R from it, the boundary stationary pair (x0, x1), and tail
vectors pi_k (mass at level k or above) by three routes:
matrix-geometric accumulation, a UL-type factorization of the level-shifted
generator, and a LU-type forward factorization whose measures vary by level.
"""

from __future__ import annotations

import math
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
    stationary_row,
)
from .series import TailSeries

ROWSUM_TOL = 1e-12
STABILITY_MARGIN = 1e-9
# Reduction steps solve_G may take; step k covers climbs of up to 2^k levels.
MAX_DOUBLINGS = 64
# The lu up-blocks count as settled once their change stops shrinking within
# this many machine epsilons, per phase and per unit of the measure's
# condition number, of the blocks themselves (see tails_lu).
ROUNDOFF_FLOOR = 16


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


def solve_G(a0, a1, a2, tol: float = 1e-12) -> RateSolveResult:
    """Minimal nonnegative solution of A0 G^2 + A1 G + A2 = 0, by shifted
    logarithmic reduction (Latouche & Ramaswami 1993; He, Meini & Rhee 2001;
    Bini, Latouche & Meini 2005).

    Censored on every 2^k-th level, the chain moves up by U_k and down by D_k,
    starting from U_0 = (-A1)^{-1} A0 and D_0 = (-A1)^{-1} A2; each step
    squares both, U_{k+1} = (I - U_k D_k - D_k U_k)^{-1} U_k^2 and likewise
    D_{k+1}.  Then G = D_0 + U_0 D_1 + U_0 U_1 D_2 + ..., whose k-th term adds
    the first passages that climb up to 2^k levels before they fall.

    Plain, the reduction converges like rho^(2^k): G's eigenvalue 1 holds it
    back, about log2(1/(1-rho)) steps.  When the chain is positive recurrent
    G e = e, so G - Q with Q = e u^T, u = e/m, has that eigenvalue moved to
    0 and solves the same equation with A1 + A0 Q for A1 and A2 - A2 Q for
    A2.  The reduction runs on those blocks and returns G = (G - Q) + Q, in
    a few steps at any load: one for M/M/1.  Positive recurrence is read from
    the mean drift, p A0 e < p A2 e with p the stationary row of
    A = A0 + A1 + A2, and is asked only of a conservative A (rows summing to
    zero within ROWSUM_TOL) with one closed class, the A whose p is unique.
    On a transient, null-recurrent, non-conservative or multi-class A, Q = 0
    and the reduction is the plain one.  Iteration stops once the added term
    is below tol and the residual of the unshifted equation below 10 tol, and
    raises NoConvergence after MAX_DOUBLINGS steps.
    """
    a0 = as_matrix(a0, "A0")
    a1 = as_matrix(a1, "A1")
    a2 = as_matrix(a2, "A2")
    m = len(a1)
    shift = np.zeros((m, m))
    phases = a0 + a1 + a2
    if inf_norm(phases.sum(axis=1)) <= ROWSUM_TOL:
        try:
            p = stationary_row(phases)
        except (SingularMatrix, ValidationError):
            p = None  # not a generator with one closed class
        if p is not None and p @ a0.sum(axis=1) < p @ a2.sum(axis=1):
            shift[:] = 1.0 / m
    up, down = np.hsplit(solve_linear(-(a1 + a0 @ shift),
                                      np.hstack((a0, a2 - a2 @ shift))), 2)
    g = down
    climb = up
    for step in range(1, MAX_DOUBLINGS + 1):
        stay = np.eye(m) - up @ down - down @ up
        up, down = np.hsplit(solve_linear(stay, np.hstack((up @ up, down @ down))), 2)
        term = climb @ down
        g = g + term
        climb = climb @ up
        if inf_norm(term) < tol:
            passage = g + shift
            residual = inf_norm(a0 @ passage @ passage + a1 @ passage + a2)
            if residual < 10.0 * tol:
                return RateSolveResult(_frozen(passage), step, residual)
    raise NoConvergence(f"G reduction did not reach {tol:.1e} in {MAX_DOUBLINGS} doublings")


def solve_R(a0, a1, a2, tol: float = 1e-12) -> RateSolveResult:
    """Minimal nonnegative solution of A0 + R A1 + R^2 A2 = 0.

    R = A0 (-(A1 + A0 G))^{-1} with G from solve_G; iterations are its
    reduction steps, and the residual is that of the R equation.
    """
    a0 = as_matrix(a0, "A0")
    a1 = as_matrix(a1, "A1")
    a2 = as_matrix(a2, "A2")
    solved = solve_G(a0, a1, a2, tol=tol)
    r = solve_xa(-(a1 + a0 @ solved.matrix), a0)
    residual = inf_norm(a0 + r @ a1 + r @ r @ a2)
    return RateSolveResult(_frozen(r), solved.iterations, residual)


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


def _lu_steps(model: QbdModel, x0):
    """The LU-type forward factorization up to the step s at which its
    up-blocks settle: the heads [e_0, ..., e_s], the up-blocks
    [None, U_1, ..., U_s], and the settled U = A2 M_s and M_s (see tails_lu)."""
    a0, a1, a2 = model.a0, model.a1, model.a2
    psi, yrow = a0 + a1, x0 @ model.b0
    heads, ups = [], [None]
    change = math.inf
    while True:
        minv = inverse(-psi)
        if np.min(minv) < -1e-9:
            raise SingularMatrix(f"level {len(heads)}: measure inverse is not nonnegative")
        heads.append(yrow @ minv)
        up = a2 @ minv
        if len(ups) > 1:
            last, change = change, inf_norm(up - ups[-1])
            # the roundoff one step leaves in U, relative to U
            floor = (ROUNDOFF_FLOOR * len(psi) * np.finfo(float).eps
                     * inf_norm(psi) * inf_norm(minv))
            if change <= floor * inf_norm(up) and not change < last:
                return heads, ups, up, minv
        ups.append(up)
        yrow = heads[-1] @ a0
        psi = a1 + up @ a0


def _deep_sum(step, up):
    """Y = sum_{j>=1} N^j U^j for N = `step`, U = `up`, by Smith's doubling
    on Y = N U + N Y U: Y <- Y + N^(2^i) Y U^(2^i) doubles the terms covered.
    Every entry is a sum of nonnegative products, so no digits cancel; the
    doubling stops once the added terms are below roundoff entrywise."""
    y = step @ up
    for _ in range(MAX_DOUBLINGS):
        term = step @ y @ up
        y = y + term
        if np.all(term <= np.finfo(float).eps * y):
            return y
        step, up = step @ step, up @ up
    raise TruncationFailure(
        f"lu deep terms N^j U^j did not shrink in {MAX_DOUBLINGS} doublings: "
        "their ratio is not below 1"
    )


def tails_lu(model: QbdModel, x0, levels: int) -> TailSeries:
    """Tails from the LU-type forward factorization.

    Builds the level-varying measures Psi_0 = A0 + A1,
    Psi_k = A1 + U_k A0 with M_k = (-Psi_k)^{-1} and up-blocks
    U_k = A2 M_{k-1}, and the heads e_k = y_k M_k, where y_0 = x0 B0 and
    y_k = e_{k-1} A0.  The tails are

        pi_j = e_{j-1} + S_j,  S_j = sum_{k>=j} e_k U_k U_{k-1} ... U_j,

    and S_j = (e_j + S_{j+1}) U_j.

    The up-blocks converge to a fixed point U = A2 M.  The forward pass
    inverts -Psi_k only until step s, where the change of U_k stops
    shrinking within its roundoff: ROUNDOFF_FLOOR * m machine epsilons times
    the condition number of Psi_k, relative to U_k.  A change that stops
    shrinking above that floor does not end the pass, since on chains whose
    rates differ by phase it can grow for a dozen levels before it falls.
    Past s every level shares the settled U and M, and the heads follow
    e_{k+1} = e_k N with N = A0 M, one product per level.  With
    top = max(levels, s) the deep part is in closed form,
    S_{top+1} = e_top Y with Y = sum_{j>=1} N^j U^j (see _deep_sum), and
    one backward sweep from top gives every pi_j.  A chain that is not
    positive recurrent makes that sum diverge and raises TruncationFailure.
    The report's `terms` is top.
    """
    x0 = np.asarray(x0, dtype=float)
    heads, ups, up, minv = _lu_steps(model, x0)
    top = max(levels, len(heads) - 1)
    step = model.a0 @ minv
    while len(heads) <= top:
        heads.append(heads[-1] @ step)
        ups.append(up)
    tail = heads[top] @ _deep_sum(step, up)
    pis: list = [None] * levels
    for j in range(top, 0, -1):
        tail = (heads[j] + tail) @ ups[j]
        if j <= levels:
            pis[j - 1] = heads[j - 1] + tail
    return TailSeries(pis, x0, method="lu-rg", truncation_report={"terms": top})
