"""Real-matrix kernel used by every solver, and the package's only user of
numpy.linalg.  It holds linear algebra only: how level rows become tails,
the geometric powers head R^k included, is the business of series.

Matrices are plain 2-d float64 numpy arrays; probability and rate vectors are
1-d arrays treated as rows.  A large banded matrix, such as a chain
truncated for the oracle, is a Band instead: LAPACK's band layout, n rows of
p + q + 1 cells for lower and upper reach p and q.  Every linear solve is
one LAPACK call that returns the solution and the inverse together, and
every solve passes one guard: an exactly singular matrix, a non-finite
solution, or a 1-norm reciprocal condition number below RCOND_MIN raises
SingularMatrix instead of returning digits that mean nothing.  The guard
takes one system or a stack of them: solve_linear applies it to its system,
and solve_sweep, which runs a chain of solves each built from the one before
(a level-by-level sweep; the level-dependent rate sequence is its one
caller), applies it once to the whole stack after the sweep and names the
first system that fails.  On the 1-8 phase blocks the solvers
mostly see, numpy's fixed cost per call outweighs the arithmetic: a guarded
2 x 2 solve takes 19-25 us on a 2-vCPU x86-64, about half of it the LAPACK
call and 8-10 us the guard, which tests one system without stacking it.  A
solver that needs one matrix for several right-hand sides stacks them into
one solve.  Stationary rows are the exception to LAPACK: stationary_row is
GTH state reduction inside the matrix's band, which needs no subtraction, so
each entry is accurate relative to its own size however small it is.  It
runs on a Band or on a square array, which it folds on its own dense copy;
a fold that overflows raises SingularMatrix, and its answer is re-checked
against the balance equations.  The fold has two loops, chosen by the
product of its lower and upper reach: up to FLOAT_FOLD_CELLS it runs on
Python floats read and written in place through a memoryview, since a
narrow band does a few multiply-adds per state, fewer than numpy's calls
would cost; wider bands run on numpy slices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrix, ValidationError

# Below this 1-norm reciprocal condition number a solve is refused: its
# relative error bound, machine epsilon over the reciprocal condition number,
# would pass 2%.
RCOND_MIN = 1e-14
# Relative balance residual a stationary solve may leave.
BALANCE_TOL = 1e-8
_EPS = np.finfo(float).eps


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float64 array, raising ValidationError otherwise."""
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not a rectangular numeric matrix ({exc})") from None
    if a.ndim != 2 or a.size == 0:
        raise ValidationError(f"{name}: expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name}: contains non-finite entries")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


def inf_norm(a) -> float:
    """Max absolute row sum for matrices, max |entry| for vectors."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if a.ndim <= 1:
        return float(np.abs(a).max())
    return float(np.abs(a).sum(axis=1).max())


def _square(a, caller: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{caller}: matrix must be square, got shape {a.shape}")
    return a


def _norm1(a) -> np.ndarray:
    """1-norm, the largest absolute column sum, of a matrix or of each
    matrix in a stack."""
    return np.maximum.reduce(np.add.reduce(np.abs(a), axis=-2), axis=-1)


def _guard(a, solved, where=None) -> None:
    """The check every solve passes.  a is the coefficient matrix A of one
    system (2-d) or a stack of them (3-d); solved holds [X | A^-1] for each,
    as the LAPACK call returned it.

    A system fails if [X | A^-1] is not finite or its 1-norm reciprocal
    condition number 1 / (||A||_1 ||A^-1||_1) is below RCOND_MIN.  The
    first failing system raises SingularMatrix; in a stack, where(i) names
    system i.
    """
    n = a.shape[-1]
    stacked = a.ndim == 3
    if not stacked:
        # one system, unstacked: a finite plain sum makes every entry finite;
        # the stacked check below decides and names whatever this does not pass
        norms = [max(np.add.reduce(np.abs(m), axis=0).tolist()) for m in (a, solved[:, -n:])]
        if (math.isfinite(np.add.reduce(solved, axis=None))
                and 1.0 / norms[0] / norms[1] >= RCOND_MIN):
            return
        a, solved = a[None], solved[None]
    finite = np.isfinite(solved).all(axis=(1, 2))
    # divided in turn, so that huge norms underflow to 0 rather than overflow;
    # a subnormal or non-finite norm may still overflow or divide inf by inf,
    # which the guard refuses below, so the warnings would only get ahead of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rcond = 1.0 / _norm1(a) / _norm1(solved[..., -n:])
    passed = finite & (rcond >= RCOND_MIN)
    if passed.all():
        return
    i = int(passed.argmin())
    name = f"{where(i)}: " if stacked else ""
    if not finite[i]:
        raise SingularMatrix(f"{name}{n} x {n} system: non-finite solution")
    raise SingularMatrix(
        f"{name}{n} x {n} system: reciprocal condition number {rcond[i]:.3e} "
        f"below {RCOND_MIN:.1e}"
    )


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
    _guard(a, both)
    # a copy, so that the result does not keep the inverse alive
    return both[:, :columns.shape[1]].reshape(b.shape).copy()


def solve_sweep(coefficient, rhs, where) -> tuple:
    """Solve the chain A_i X_i = B_i, i = 0..count-1, in which each A_i may
    be built from the system before it: A_i = coefficient(i, X, Ainv) with
    X = X_{i-1} and Ainv = A_{i-1}^-1 (both None for i = 0).

    Each system is one LAPACK call that solves for X_i and A_i^-1 together,
    as solve_linear does.  The guard of solve_linear runs once over the
    stacked systems after the sweep, so a sweep of many small systems pays
    it once.  The first failing system raises SingularMatrix named by
    where(i), even when a later one is exactly singular.  Floating-point
    warnings are off during the sweep: the systems after a failing one may
    overflow, and only the guard speaks.

    Args:
        coefficient: callable (i, X, Ainv) -> the n x n matrix A_i.
        rhs: the right-hand sides B_i stacked, shape (count, n, k); k may be
            0, which makes the sweep a chain of inversions.
        where: callable i -> the name of system i in an error message.

    Returns:
        (X, inverses): the solutions, shape (count, n, k), and the inverses
        A_i^-1, shape (count, n, n).
    """
    count, n, k = rhs.shape
    both = np.concatenate((rhs, np.broadcast_to(np.eye(n), (count, n, n))), axis=2)
    pivots = np.empty((count, n, n))
    solved = np.empty_like(both)
    x = inv = None
    with np.errstate(all="ignore"):
        for i in range(count):
            pivots[i] = coefficient(i, x, inv)
            try:
                solved[i] = np.linalg.solve(pivots[i], both[i])
            except np.linalg.LinAlgError as exc:
                _guard(pivots[:i], solved[:i], where)
                raise SingularMatrix(f"{where(i)}: {n} x {n} system: {exc}") from None
            x, inv = solved[i, :, :k], solved[i, :, k:]
        _guard(pivots, solved, where)
    return solved[:, :, :k], solved[:, :, k:]


def solve_xa(a, b) -> np.ndarray:
    """Solve X A = B (row-vector orientation) via the transposed system."""
    return solve_linear(np.transpose(a), np.transpose(b)).T


def inverse(a) -> np.ndarray:
    """A^-1, under the guard of solve_linear."""
    return solve_linear(a, np.eye(len(a)))


class Band:
    """An n x n matrix in band storage, LAPACK's layout by rows: entry (i, j)
    sits at cells[i, j - i + lower] for -lower <= j - i <= upper, so cells
    has n rows and lower + upper + 1 columns.  Cells that fall outside the
    matrix are zero."""

    __slots__ = ("cells", "lower")

    def __init__(self, cells: np.ndarray, lower: int):
        self.cells, self.lower = cells, lower

    @classmethod
    def zeros(cls, n: int, lower: int, upper: int) -> "Band":
        """The zero n x n matrix with room for the given reaches, each cut
        to n - 1."""
        lower = min(lower, n - 1)
        return cls(np.zeros((n, lower + min(upper, n - 1) + 1)), lower)

    def view(self) -> np.ndarray:
        """The matrix as an n x n strided view of the (C-contiguous) cells,
        entry (i, j) at flat index i (width - 1) + j + lower, for writing
        blocks in place; an entry outside the band aliases another cell.
        numpy.ndarray over the buffer gives the view as_strided would,
        without the dict as_strided allocates per call."""
        n, width = self.cells.shape
        item = self.cells.itemsize
        return np.ndarray((n, n), buffer=self.cells, offset=self.lower * item,
                          strides=((width - 1) * item, item))

    def product(self, x) -> np.ndarray:
        """The row vector x times the matrix, one pass per band column or,
        when there are fewer rows than columns, per row.  Rows run from the
        last up, so every entry adds its terms in the same order either way."""
        n, width = self.cells.shape
        out = np.zeros(n + width - 1)
        if n < width:
            for i in range(n - 1, -1, -1):
                out[i:i + width] += x[i] * self.cells[i]
        else:
            for c in range(width):
                out[c:c + n] += x * self.cells[:, c]
        return out[self.lower:self.lower + n]


def _check_closed_state(a: np.ndarray, last: int, below: int, above: int) -> None:
    """Raise SingularMatrix unless every state 0..last reaches `last` along
    the nonzero entries of a[:last + 1, :last + 1], row to column, whose
    nonzeros lie at most `below` under and `above` over the diagonal; the
    diagonal adds no path."""
    reached = np.zeros(last + 1, dtype=bool)
    reached[last] = True
    stack = [last]
    while stack:
        j = stack.pop()
        first = max(0, j - above)
        rows = slice(first, min(last, j + below) + 1)
        into = (a[rows, j] != 0.0) & ~reached[rows]
        reached[rows] |= into
        stack.extend(first + np.flatnonzero(into))
    if not reached.all():
        raise SingularMatrix(f"stationary solve: state {last} reaches no lower state")


# Folds whose rank-one update has at most this many cells, lower reach
# times upper reach, run on Python floats, and wider ones on numpy slices:
# numpy costs about 8 us a state at any narrow reach, the floats' cost grows
# with the cells.  Per state on a random 400-state band of equal reaches
# (best of 50, one BLAS thread, 2-vCPU x86-64), numpy slices against Python
# floats: reach 1, 7.7 against 1.3 us; reach 3, 7.7 against 2.7 us; reach
# 7, 7.9 against 7.7 us; reach 9, 8.1 against 11.2 us; reach 15, 8.7
# against 26.2 us.  Python floats are float64, so only float64 cells may
# take the float loop.
FLOAT_FOLD_CELLS = 64


def _gth_arrays(a: np.ndarray, v: np.ndarray, below: int, above: int) -> None:
    """stationary_row's fold and back-substitution on numpy slices of the
    n x n array a (a square copy or a band's strided view), leaving the
    unnormalized row in v, which is zero on entry.

    Folding k divides column k above the diagonal by k's outflow to the
    states below it, then adds the rates through k to the rows that reach
    it.  The diagonal of a collects junk and is never read.  One buffer
    holds every fold's rank-one update, so the loop allocates no arrays.
    """
    n = len(v)
    scratch = np.empty((above, below), dtype=a.dtype)
    start = 0
    for k in range(n - 1, 0, -1):
        first_row, first_col = max(0, k - above), max(0, k - below)
        row = a[k, first_col:k]
        out = np.add.reduce(row)
        if out == 0.0:
            _check_closed_state(a, k, below, above)
            start = k
            break
        col = a[first_row:k, k]
        np.divide(col, out, out=col)
        block = a[first_row:k, first_col:k]
        block += np.multiply.outer(col, row, out=scratch[: k - first_row, : k - first_col])
    v[start] = 1.0
    for k in range(start + 1, n):
        first_row = max(0, k - above)
        v[k] = mass = v[first_row:k] @ a[first_row:k, k]
        if mass > 1e250:  # a chain that climbs: keep the row finite
            v[: k + 1] /= mass


def _gth_floats(a: np.ndarray, flat: memoryview, stride: int, lower: int,
                v: np.ndarray, below: int, above: int) -> None:
    """The fold and back-substitution of _gth_arrays on Python floats, read
    and written in place: entry (i, j) of a is flat[i * stride + j + lower],
    and v is written through a memoryview, so neither is copied.  Each
    outflow adds its row in index order, as numpy's sum does below eight
    terms; each back-substitution step adds in index order too, which a
    strided BLAS dot need not (it may fuse a multiply and an add, or split
    the sum)."""
    n = len(v)
    start = 0
    for k in range(n - 1, 0, -1):
        first_row = k - above if k > above else 0
        first_col = k - below if k > below else 0
        at_k = k * stride + lower
        row = flat[at_k + first_col:at_k + k].tolist()
        out = 0.0
        for r in row:
            out += r
        if out == 0.0:
            _check_closed_state(a, k, below, above)
            start = k
            break
        # at runs down column k; the rank-one update of row i starts `shift`
        # cells before it
        shift = k - first_col
        for at in range(first_row * stride + lower + k, at_k + k, stride):
            col = flat[at] / out
            flat[at] = col
            j = at - shift
            for r in row:
                flat[j] += col * r
                j += 1
    row_v = memoryview(v)
    row_v[start] = 1.0
    for k in range(start + 1, n):
        first_row = k - above if k > above else 0
        mass = 0.0
        at = first_row * stride + lower + k
        for i in range(first_row, k):
            mass += row_v[i] * flat[at]
            at += stride
        row_v[k] = mass
        if mass > 1e250:  # a chain that climbs: keep the row finite
            v[: k + 1] /= mass


def stationary_row(m, continuous: bool = True) -> np.ndarray:
    """Stationary row vector of a generator (v M = 0) or kernel (v M = v),
    given as a Band or as a square matrix, which is folded on a dense copy
    and re-checked with one product v M: square input is meant for blocks.

    GTH state reduction (Grassmann, Taksar & Heyman 1985) on the off-diagonal
    entries, which M and M - I share.  The last state is folded into the
    states below it, which renews their rates by additions only, then the
    next, down to state 0; back-substitution and normalization give v, with
    every entry accurate relative to its own size.  Folding a state touches
    only the rows that reach it and the columns it reaches, so the work stays
    inside the band of the off-diagonal nonzeros: O(n p q) for lower reach p
    and upper reach q, the outermost nonzero diagonals of the band, and no
    fill-in leaves it.  A Band folds on a copy of its cells, seen as an
    n x n strided view, with the same arithmetic a square copy gets, so both
    give the same bits.  Two loops do the same fold: one on Python floats,
    read and written in place through a memoryview, when p q is at most
    FLOAT_FOLD_CELLS, where numpy's fixed cost per call outweighs the
    arithmetic; one on numpy slices otherwise.  They add the terms of a
    back-substitution step, and an outflow of eight or more terms, in
    different orders, so their rows may differ in the last bits.  A state
    k that reaches no lower state once the states above it are folded in is
    closed in the folded chain; if every lower state reaches it there, they
    are transient, carry no mass, and back-substitution starts at k.  The
    balance residual is re-checked afterwards.

    Raises:
        ValidationError: on a negative off-diagonal entry beyond roundoff,
            n machine epsilons of the largest off-diagonal entry.
        SingularMatrix: if a state reaches no lower state once the states
            above it are folded in and some lower state does not reach it
            (two closed classes, say), if the fold overflows, or if v misses
            balance.
    """
    dense = not isinstance(m, Band)
    cells = _square(m, "stationary_row") if dense else np.asarray(m.cells, dtype=float)
    (n, width), lower = cells.shape, 0 if dense else m.lower
    a = cells.copy()
    a.reshape(-1)[lower::width + dense] = 0.0  # the diagonal, square or banded
    # matrices built from solves may carry roundoff below an exact zero
    low = a.min()
    if low < -n * _EPS * a.max():
        raise ValidationError(f"stationary_row: negative off-diagonal entry {low:.3e}")
    if low < 0.0:
        np.maximum(a, 0.0, out=a)
    # the offsets j - i of the nonzero entries (i, j); band column c holds c - lower
    rows, cols = np.nonzero(a) if dense else (lower, np.flatnonzero(a.any(axis=0)))
    offsets = cols - rows
    below, above = -int(offsets.min(initial=0)), int(offsets.max(initial=0))
    view = a if dense else Band(a, lower).view()
    v = np.zeros(n)
    # an outflow that underflows makes the fold overflow, which the check
    # after it refuses, so the warnings would only get ahead of it
    with np.errstate(all="ignore"):
        if below * above <= FLOAT_FOLD_CELLS:
            _gth_floats(view, memoryview(a.reshape(-1)), width - 1 + dense, lower, v, below, above)
        else:
            _gth_arrays(view, v, below, above)
        v /= v.sum()
    if not np.isfinite(v).all():
        raise SingularMatrix("stationary solve: the fold overflowed")
    balance = cells if continuous else cells - np.eye(n if dense else 1, width, lower)
    product = v @ balance if dense else Band(balance, lower).product(v)
    residual, size = inf_norm(product), inf_norm(balance)
    if not residual <= BALANCE_TOL * max(1.0, size):  # NaN fails too
        raise SingularMatrix(f"stationary solve left balance residual {residual:.3e}")
    return v
