"""Quasi-birth-death chains in continuous time.

The generator of a level-independent QBD (QbdModel) is block tridiagonal,

    | B1 B0          |
    | B2 A1 A0       |
    |    A2 A1 A0    |
    |       .. .. .. |

with a boundary level of width m0 and repeating levels of width m.  It is
the level-dependent QBD (LdQbdModel: blocks A0(k), A1(k), A2(k) that vary
with k up to a horizon) whose blocks stop changing at level 1, and
check_tables checks the block tables of both.  The module computes the
minimal passage matrix G by shifted logarithmic reduction and the rate
matrix R from it, the boundary stationary pair (x0, x1) by censoring level
0 on itself, and tail vectors pi_k (mass at level k or above) by three
routes: matrix-geometric accumulation, a UL-type factorization of the level-shifted
generator, and a LU-type forward factorization whose measures vary by level.
A QBD is the simplest chain of GI/M/1 type, so _censored_boundary solves
the boundary of both (boundary_solve, skipfree.gim1_stationary) and checks
R's stability; the mg and UL routes here read its BoundarySolution for
both kinds and check nothing again.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    NoConvergence,
    Reducible,
    SingularMatrix,
    Unstable,
    ValidationError,
)
from .matkernel import (
    _EPS,
    _frozen,
    _guarded_solve,
    _ReadOnly,
    as_matrix,
    inf_norm,
    inverse,
    mean_drift,
    solve_linear,
    solve_xa,
    stationary_row,
)
from .series import TailSeries, _powers

ROWSUM_TOL = 1e-12
STABILITY_MARGIN = 1e-9
# Reduction steps solve_G may take; step k covers climbs of up to 2^k levels.
MAX_DOUBLINGS = 64
# The lu up-blocks count as settled once their change stops shrinking within
# this many machine epsilons, per phase and per unit of the measure's
# condition number, of the blocks themselves (see tails_lu); geometric_mass
# lets (I - R)^{-1} e fall as far below 1, relative to its largest entry.
ROUNDOFF_FLOOR = 16
# Steps the lu pass may take to settle its up-blocks: a few dozen on the
# model files and benchmark chains, 7,515 seen with slowly switching phases,
# where some never settle.  A step is one m x m inversion, about 30 us at a
# few phases, so the cap refuses those in about 0.3 s.
MAX_LU_STEPS = 10_000


def _sign_defect(blocks, kind: str) -> str | None:
    """What breaks the sign rule in a block or a stack of them, or None.
    A local block (kind A1) is a generator block, with no negative
    off-diagonal and no positive diagonal entry; the blocks between levels
    (A0, A2) have no negative entry."""
    if kind != "A1":
        return "negative entry in an off-diagonal block" if (blocks < 0).any() else None
    if ((blocks < 0) & ~np.eye(blocks.shape[-1], dtype=bool)).any():
        return "negative off-diagonal entry"
    if (np.diagonal(blocks, axis1=-2, axis2=-1) > 0).any():
        return "positive diagonal entry"
    return None


def _rowsum_defect(rowsums, local) -> np.ndarray:
    """Which generator rows miss a zero sum by more than ROWSUM_TOL times
    max(1, |the row's diagonal entry|), read from its level's local block
    (or a stack of them): the rounding of a row sum grows with its rates."""
    scale = np.maximum(1.0, np.abs(np.diagonal(local, axis1=-2, axis2=-1)))
    return np.abs(rowsums) > ROWSUM_TOL * scale


def check_tables(up, diag, down, name) -> tuple:
    """Check the block tables of a level-dependent QBD and return them as
    (first block, stack of the rest) each, coerced by as_matrix's rules.

    up and diag list the blocks A0(k) and A1(k) of levels k = 0..J, down the
    blocks A2(k) of levels 1..J; name(kind, k) names the block of a kind
    ("A0", "A1" or "A2") at level k in a message.  Level 0 has width m0 and
    the levels above it width m.  Every table is coerced first, then diag,
    up and down are checked for shape and sign, then every level's row sums
    against ROWSUM_TOL, scaled by each row's diagonal entry (_rowsum_defect);
    the message gives the absolute deviation.  Each check runs on a table's
    stack at once; only when one fails does it walk the levels in order,
    lower levels first and each level's shape before its sign, to name the
    first offender.
    """
    coerced = {}
    for kind, blocks, first in (("A0", up, 0), ("A1", diag, 0), ("A2", down, 1)):
        head = as_matrix(blocks[0], name(kind, first))
        try:
            rest = np.array(blocks[1:], dtype=float)
            stacked = rest.ndim == 3 and rest.size and np.isfinite(rest).all()
        except (TypeError, ValueError):
            stacked = False
        if not stacked:
            rest = [as_matrix(a, name(kind, k)) for k, a in enumerate(blocks[1:], first + 1)]
        coerced[kind] = (first, head, rest)
    m0 = coerced["A1"][1].shape[0]
    m = coerced["A1"][2][0].shape[0]
    if m0 != m and len(diag) < 3:
        raise ValidationError("a distinct boundary width needs at least two levels above it")
    shapes = {"A1": ((m0, m0), (m, m)), "A0": ((m0, m), (m, m)), "A2": ((m, m0), (m, m))}
    checked = {}
    for kind, (head_shape, shape) in shapes.items():
        first, head, rest = coerced[kind]
        if not (isinstance(rest, np.ndarray) and head.shape == head_shape
                and rest.shape[1:] == shape and _sign_defect(head, kind) is None
                and _sign_defect(rest, kind) is None):
            for k, blk in enumerate([head, *rest], first):
                want = head_shape if k == first else shape
                if blk.shape != want:
                    raise ValidationError(
                        f"{name(kind, k)}: expected shape {want}, got {blk.shape}")
                defect = _sign_defect(blk, kind)
                if defect:
                    raise ValidationError(f"{name(kind, k)}: {defect}")
            rest = np.array(rest).reshape(-1, *shape)
        checked[kind] = (head, rest)
    (up0, ups), (diag0, diags), (down0, downs) = checked["A0"], checked["A1"], checked["A2"]
    below = np.concatenate((down0.sum(axis=1)[None], downs.sum(axis=2)))
    level0 = diag0.sum(axis=1) + up0.sum(axis=1)
    rowsums = below + diags.sum(axis=2) + ups.sum(axis=2)
    if _rowsum_defect(level0, diag0).any() or _rowsum_defect(rowsums, diags).any():
        for k, (rowsum, local) in enumerate(zip([level0, *rowsums], [diag0, *diags])):
            if _rowsum_defect(rowsum, local).any():
                raise ValidationError(f"level-{k} row: row sums deviate by {inf_norm(rowsum):.3e}")
    return checked["A0"], checked["A1"], checked["A2"]


# the attribute holding each block kind's table, and the level of its first block
_TABLES = {"A0": ("up", 0), "A1": ("diag", 0), "A2": ("down", 1)}


class LdQbdModel(_ReadOnly):
    """Generator with level-varying tridiagonal blocks, frozen past `horizon`.

    up lists the flows A0(k) from level k to k+1 (k = 0..horizon), diag the
    local blocks A1(k), down the flows A2(k) from k to k-1 (k = 1..horizon),
    each as blocks or one stacked array.  Level 0 may have a different width
    than the repeating levels.  Construction checks the table lengths here
    and the rest with check_tables, whose messages name a block by
    _name(kind, level), A1(k) here, and a row by its level, and keeps each
    table as it returns it: (first block, frozen stack of the rest), which
    only block_at and blocks_at read, clamped past the horizon.  Models
    compare and hash by identity: two chains with equal blocks are two models.
    """

    __slots__ = ("up", "diag", "down")

    def __init__(self, up, diag, down):
        if len(diag) < 2:
            raise ValidationError("need blocks for level 0 and at least one level above")
        if len(up) != len(diag):
            raise ValidationError("A0 and A1 must list the same levels 0..J")
        if len(down) != len(diag) - 1:
            raise ValidationError("A2 lists levels 1..J, one entry fewer than A1")
        tables = check_tables(up, diag, down, self._name)
        for name, (head, rest) in zip(LdQbdModel.__slots__, tables):
            object.__setattr__(self, name, (_frozen(head), _frozen(rest)))

    _name = staticmethod(lambda kind, level: f"{kind}({level})")

    @property
    def horizon(self) -> int:
        return len(self.diag[1])

    @property
    def m0(self) -> int:
        return self.diag[0].shape[0]

    @property
    def m(self) -> int:
        return self.diag[1].shape[1]

    def _table(self, name: str) -> tuple:
        """((first block, stack of the rest), level of the first block) of a kind."""
        if name not in _TABLES:
            raise ValidationError(f"unknown block kind {name!r}")
        attr, first = _TABLES[name]
        return getattr(self, attr), first

    def block_at(self, name: str, level: int) -> np.ndarray:
        """Block of the given kind at a level, clamped past the horizon."""
        (head, stack), first = self._table(name)
        if level < first:
            raise ValidationError(f"{name} blocks start at level {first}")
        k = min(level, self.horizon) - first
        return stack[k - 1] if k else head

    def blocks_at(self, name: str, first: int, last: int) -> np.ndarray:
        """Blocks of the given kind at levels first..last, stacked and
        clamped as block_at does; first is at least 1 (2 for A2), so every
        block is m x m."""
        (head, stack), base = self._table(name)
        index = np.minimum(np.arange(first, last + 1), self.horizon) - base - 1
        if not len(stack):  # A2 at horizon 1: every level clamps to A2(1)
            return np.repeat(head[None], len(index), axis=0)
        return stack[index]

    @property
    def band_reach(self) -> tuple:
        """(lower, upper): how far below and above the diagonal the
        generator on levels 0..L puts an entry, for any L."""
        reach = max(self.m0, self.m) + self.m - 1
        return reach, reach


# QbdModel's names for the blocks of level 0 and the jump down to it
_BOUNDARY = {("A0", 0): "B0", ("A1", 0): "B1", ("A2", 1): "B2"}


class QbdModel(LdQbdModel):
    """Validated block-tridiagonal generator: the level-dependent chain whose
    blocks stop changing at level 1, stored as its first three levels.

    b1 is m0 x m0, b0 is m0 x m, b2 is m x m0; a0, a1, a2 are m x m.  The
    tables are (B0, A0, A0), (B1, A1, A1) and (B2, A2), horizon 2, checked
    by check_tables as every LdQbdModel is: the shapes, the sign pattern,
    and that every row of levels 0-2 sums to zero within ROWSUM_TOL.  A
    message names a block by its own name and a row by its level.
    """

    __slots__ = ()

    def __init__(self, b1, b0, b2, a0, a1, a2):
        super().__init__((b0, a0, a0), (b1, a1, a1), (b2, a2))

    _name = staticmethod(lambda kind, level: _BOUNDARY.get((kind, level), kind))

    b1 = property(lambda self: self.block_at("A1", 0))
    b0 = property(lambda self: self.block_at("A0", 0))
    b2 = property(lambda self: self.block_at("A2", 1))
    a0 = property(lambda self: self.block_at("A0", 1))
    a1 = property(lambda self: self.block_at("A1", 1))
    a2 = property(lambda self: self.block_at("A2", 2))


class RateSolveResult(NamedTuple):
    matrix: np.ndarray
    iterations: int
    residual: float


class BoundarySolution(NamedTuple):
    """The boundary pair (x0, x1), the rate matrix R they were solved with,
    checked for stability, phi0, the generator block of level 1 censored on
    itself, and x0 B0, the flow up from level 0 (see _censored_boundary).

    Each route reads some of the fields, and the registry hands it only
    those: mg reads x0, x1 and R (tails_matrix_geometric), ul x0, x0 B0, R
    and phi0 (tails_ul), and a QBD's lu route x0 alone (tails_lu)."""

    x0: np.ndarray
    x1: np.ndarray
    r: np.ndarray
    phi0: np.ndarray
    x0_b0: np.ndarray


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
    the sign of the mean drift p (A0 - A2) e < 0, p the stationary row of
    A = A0 + A1 + A2 (Neuts 1981, Thm 3.1.1), which matkernel.mean_drift
    gives by one bordered solve, or from the GTH row where that solve cannot
    bound its error below the drift.  It is asked only of a conservative A
    (rows summing to zero within ROWSUM_TOL, scaled as check_tables scales
    it), and mean_drift answers only for an A with one closed class, the A
    whose p is unique.
    On a transient, null-recurrent, non-conservative or multi-class A, Q = 0
    and the reduction is the plain one, which may overflow on slowly
    switching phases: a step the guard refuses at positive drift raises
    Unstable.  Iteration stops once the added term is below tol and the
    residual of the unshifted equation below 10 tol, and raises
    NoConvergence after MAX_DOUBLINGS steps.
    """
    return _reduce(_block(a0, "A0"), _block(a1, "A1"), _block(a2, "A2"), tol)


def _block(a, name: str) -> np.ndarray:
    """`a` itself if it is a finite 2-d float64 array, as a model's blocks
    are, since the R and G solves only read it; else as_matrix's copy."""
    plain = type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 2 and a.size
    return a if plain and np.isfinite(a).all() else as_matrix(a, name)


def _reduce(a0, a1, a2, tol: float) -> RateSolveResult:
    """The reduction of solve_G on finite 2-d float64 blocks, which it only
    reads.  It holds about a dozen m x m blocks at any step count: every
    step writes into the same blocks and one right-hand side [U^2 | D^2 | I],
    which the guarded LAPACK call reads as it is.  The m x m shift Q = q e e^T
    is let go once A1 + A0 Q and A2 - A2 Q are formed, and G takes it back
    from q alone, a 1 x 1 array; each step's term goes into the block that
    the next climb product takes after it."""
    m = len(a1)
    shift = np.zeros((m, m))
    phases = a0 + a1 + a2
    conservative = not _rowsum_defect(phases.sum(axis=1), a1).any()
    drift = mean_drift(phases, a0.sum(axis=1) - a2.sum(axis=1)) if conservative else None
    del phases
    if drift is not None and drift < 0.0:
        shift[:] = 1.0 / m
    rhs = np.concatenate((a0, a2 - a2 @ shift, np.eye(m)), axis=1)
    both = _guarded_solve(-(a1 + a0 @ shift), rhs)
    shift = shift[:1, :1].copy()  # q, which G takes back as Q = q e e^T
    g, climb = both[:, m:2 * m].copy(), both[:, :m].copy()
    stay, prod = np.empty((m, m)), np.empty((m, m))
    # the next solve's guard refuses an overflowed step; a warning would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for step in range(1, MAX_DOUBLINGS + 1):
                up, down = both[:, :m], both[:, m:2 * m]
                # stay = (I - U D) - D U, I the last block of rhs, then U^2 | D^2
                np.matmul(up, down, out=prod)
                np.subtract(rhs[:, 2 * m:], prod, out=stay)
                stay -= np.matmul(down, up, out=prod)
                np.matmul(up, up, out=rhs[:, :m])
                np.matmul(down, down, out=rhs[:, m:2 * m])
                del up, down, both  # the solve below takes their room
                both = _guarded_solve(stay, rhs)
                # prod takes the step's term, then the next climb
                np.matmul(climb, both[:, m:2 * m], out=prod)
                g += prod
                if inf_norm(prod) < tol:
                    passage = g + shift
                    residual = inf_norm(a0 @ passage @ passage + a1 @ passage + a2)
                    if residual < 10.0 * tol:
                        return RateSolveResult(_frozen(passage), step, residual)
                np.matmul(climb, both[:, :m], out=prod)
                climb, prod = prod, climb
        except SingularMatrix as exc:
            if drift is not None and drift > 0.0:
                raise Unstable(f"mean drift {drift:.6g} > 0: the chain is transient "
                               f"(G reduction step {step}: {exc})") from exc
            raise
    raise NoConvergence(f"G reduction did not reach {tol:.1e} in {MAX_DOUBLINGS} doublings")


def solve_R(a0, a1, a2, tol: float = 1e-12) -> RateSolveResult:
    """Minimal nonnegative solution of A0 + R A1 + R^2 A2 = 0.

    R = A0 (-(A1 + A0 G))^{-1} with G from solve_G's reduction, run once on
    the blocks, uncopied where they are finite float64 arrays (_block);
    iterations are its reduction steps, and the residual is that of R's.
    """
    a0, a1, a2 = _block(a0, "A0"), _block(a1, "A1"), _block(a2, "A2")
    solved = _reduce(a0, a1, a2, tol)
    r = solve_xa(-(a1 + a0 @ solved.matrix), a0)
    residual = inf_norm(a0 + r @ a1 + r @ r @ a2)
    return RateSolveResult(_frozen(r), solved.iterations, residual)


def geometric_mass(r) -> np.ndarray:
    """y = (I - R)^{-1} e = sum_k R^k e, the mass of the matrix-geometric
    levels per unit of their first row, or Unstable when the series diverges.

    For R >= 0 it converges exactly when I - R is a nonsingular M-matrix;
    then y >= e and max y >= 1/(1 - sp(R)).  So a singular I - R, an entry of
    y below 1 beyond roundoff, or max y >= 1/STABILITY_MARGIN is refused,
    which refuses every R with sp(R) >= 1 - STABILITY_MARGIN.
    """
    try:
        y = solve_linear(np.eye(len(r)) - r, np.ones(len(r)))
    except SingularMatrix as exc:
        raise Unstable(f"I - R is singular: {exc}") from None
    low, high = y.min(), y.max()
    slack = ROUNDOFF_FLOOR * len(y) * _EPS * max(-low, high)
    if not (low >= 1.0 - slack and high < 1.0 / STABILITY_MARGIN):
        raise Unstable(f"(I - R)^-1 e spans [{low:.6g}, {high:.6g}]: "
                       f"sp(R) is not below 1 - {STABILITY_MARGIN:g}")
    return y


def boundary_solve(model: QbdModel, r) -> BoundarySolution:
    """Boundary solution of a QBD given its rate matrix R: _censored_boundary
    of the blocks (A0, A1, A2) and (B0, B1, B2).  An R that is a read-only
    finite 2-d float64 array, as solve_R returns it, is read as it is (see
    _block); any other is copied by as_matrix's rules, so that the solution
    never freezes or shares a caller's writeable array."""
    read_only = isinstance(r, np.ndarray) and not r.flags.writeable
    r = _block(r, "R") if read_only else as_matrix(r, "R")
    return _censored_boundary((model.a0, model.a1, model.a2),
                              (model.b0, model.b1, model.b2), r)


def _censored_boundary(a, b, r) -> BoundarySolution:
    """Boundary solution of a GI/M/1-type chain, a QBD the simplest, from
    its block lists A_k, B_k in generator form, laid out as skipfree draws
    them, and R, which geometric_mass checks (Neuts 1981).  With
    L = sum_{k>=1} R^{k-1} A_k and F = sum_{k>=2} R^{k-2} B_k (_horner),
    level 1 balances when x1 = x0 R0, R0 = B0 (-L)^{-1}, and level 0
    censored on itself has the generator B1 + R0 F, whose checked row
    (_boundary_row) is x0 up to the scale 1 / (x0 e + x1 (I - R)^{-1} e).
    Phi0 is A0 + L.  B0 = 0 raises Reducible."""
    if not np.any(b[0]):
        raise Reducible("B0 = 0: no upward flow out of the boundary level")
    mass = geometric_mass(r)
    local = _horner(a[1:], r, left=True)[0]
    entry = solve_xa(-local, b[0])
    chain = b[1] + entry @ _horner(b[2:], r, left=True)[0] if len(b) > 2 else b[1]
    x0 = _boundary_row(chain)
    x1 = x0 @ entry
    scale = 1.0 / (x0.sum() + x1 @ mass)
    x0 = scale * x0
    return BoundarySolution(_frozen(x0), _frozen(scale * x1), _frozen(r),
                            _frozen(a[0] + local), _frozen(x0 @ b[0]))


def _boundary_row(chain: np.ndarray) -> np.ndarray:
    """Stationary row of a computed boundary generator, whose rows must sum
    to 0 within 1e-6 max(1, its largest |diagonal| entry); a wider miss, or
    a negative entry stationary_row refuses, is the solves' rounding and
    raises SingularMatrix."""
    miss = inf_norm(chain.sum(axis=1))
    if miss > 1e-6 * max(1.0, inf_norm(chain.diagonal())):
        raise SingularMatrix(f"censored boundary chain rows sum to 0 +/- {miss:.3e}")
    try:
        return stationary_row(chain)
    except ValidationError as exc:
        raise SingularMatrix(f"censored boundary chain: {exc}") from exc


def _horner(blocks, p, left: bool = False) -> list:
    """Every suffix sum H_i = sum_{j>=i} X_j P^{j-i} of the blocks X_j, or
    sum_{j>=i} P^{j-i} X_j when left, by Horner's rule from the last block:
    H_i = X_i + H_{i+1} P, one product per block.  The blocks may be
    matrices or 1-d vectors."""
    sums = list(blocks)
    for i in range(len(sums) - 2, -1, -1):
        sums[i] = sums[i] + (p @ sums[i + 1] if left else sums[i + 1] @ p)
    return sums


def tails_matrix_geometric(boundary: BoundarySolution, levels: int) -> TailSeries:
    """pi_k = x1 (I-R)^{-1} R^{k-1} for k = 1..levels."""
    r = boundary.r
    head = solve_xa(np.eye(len(r)) - r, boundary.x1)
    return TailSeries(_powers(head, r, levels), boundary.x0, method="matrix-geometric")


def tails_ul(boundary: BoundarySolution, levels: int) -> TailSeries:
    """Tails from the UL factorization of the level-shifted generator.

    With Phi0 the censored level-1 block of `boundary`, a QBD's or a
    GI/M/1-type chain's (see BoundarySolution), pi_1 = x0 B0 (-Phi0)^{-1}
    and pi_k = pi_1 R^{k-1}.  The head equals the matrix-geometric one,
    x1 (I-R)^{-1}, in exact arithmetic; the two routes reach it by
    different solves.
    """
    head = solve_xa(-boundary.phi0, boundary.x0_b0)
    return TailSeries(_powers(head, boundary.r, levels), boundary.x0, method="ul-rg")


def _lu_steps(model: QbdModel, x0):
    """The LU-type forward factorization up to the step s at which its
    up-blocks settle: the heads [e_0, ..., e_s], the up-blocks
    [None, U_1, ..., U_s], and the settled U = A2 M_s and N = A0 M_s (see
    tails_lu)."""
    a0, a1, a2 = model.a0, model.a1, model.a2
    psi, yrow = -(a0 + a1), x0 @ model.b0  # psi is -Psi_k, inverted as it is
    heads, ups = [], [None]
    change = math.inf
    for _ in range(MAX_LU_STEPS):
        minv = inverse(psi)
        if minv.min() < -1e-9:
            raise SingularMatrix(f"level {len(heads)}: measure inverse is not nonnegative")
        heads.append(yrow @ minv)
        up = a2 @ minv
        if len(ups) > 1:
            last, change = change, inf_norm(up - ups[-1])
            if not change < last:
                # the roundoff one step leaves in U, relative to U
                floor = ROUNDOFF_FLOOR * len(psi) * _EPS * inf_norm(psi) * inf_norm(minv)
                if change <= floor * inf_norm(up):
                    return heads, ups, up, a0 @ minv
        ups.append(up)
        yrow = heads[-1] @ a0
        psi = -(a1 + up @ a0)
    raise NoConvergence(f"lu up-blocks did not settle in {MAX_LU_STEPS} steps")


def _deep_sum(step, up):
    """Y = sum_{j>=1} N^j U^j for N = `step`, U = `up`, by Smith's doubling
    on Y = N U + N Y U: Y <- Y + N^(2^i) Y U^(2^i) doubles the terms covered.
    Every entry is a sum of nonnegative products, so no digits cancel; the
    doubling stops once the added terms are below roundoff entrywise.  As
    tails_lu holds its up-blocks meanwhile, the products go in place into U,
    which it drops after this, and four more blocks, N's copy and Y among them."""
    y = step @ up
    step = step.copy()
    term, spare = np.empty_like(y), np.empty_like(y)
    for _ in range(MAX_DOUBLINGS):
        np.matmul(np.matmul(step, y, out=spare), up, out=term)
        y += term
        if np.subtract(np.multiply(_EPS, y, out=spare), term, out=spare).min() >= 0.0:
            return y
        np.matmul(step, step, out=spare)
        step, spare = spare, step
        np.matmul(up, up, out=spare)
        up, spare = spare, up
    raise Unstable(
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
    Past s every level shares the settled U and M, so the heads are
    e_s N^(k-s), N = A0 M (series._powers), and S_j = e_{j-1} Y with
    Y = sum_{i>=1} N^i U^i (_deep_sum): pi_j = e_{j-1} (I + Y) for j > s,
    and a backward sweep from S_{s+1} gives levels 1..s.  A chain that is
    not positive recurrent makes Y diverge and raises Unstable; up-blocks
    that have not settled after MAX_LU_STEPS steps raise NoConvergence.
    The report's `terms` is max(levels, s).
    """
    x0 = np.asarray(x0, dtype=float)
    heads, ups, up, step = _lu_steps(model, x0)
    settle = len(heads) - 1
    deep = _deep_sum(step, up)
    del up  # squared in place by the deep sum: the rows below need its room
    pis = np.empty((levels, len(step)))
    tail = heads[settle] @ deep
    for j in range(settle, 0, -1):
        tail = (heads[j] + tail) @ ups[j]
        if j <= levels:
            pis[j - 1] = heads[j - 1] + tail
    head = heads[settle]
    # the sweep is done with the up-blocks: the settled rows below need the room
    del heads, ups
    if levels > settle:
        # e_{s+i} = e_s N^i, and e_{s+i} (I + Y) is pi_{s+1+i}
        settled = _powers(head, step, levels - settle)
        np.matmul(settled, deep, out=pis[settle:])
        pis[settle:] += settled
    return TailSeries(pis, x0, method="lu-rg", truncation_report={"terms": max(levels, settle)})
