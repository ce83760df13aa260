"""Real-matrix kernel used by every solver, and the package's only user of
numpy.linalg.  It holds linear algebra only: how level rows become tails,
the geometric powers head R^k included, is the business of series.  Besides
it, the package's classes share three helpers from here: _frozen for
read-only arrays, the _ReadOnly base for read-only attributes, and the
_ByValue mixin for equality and repr by value.

Matrices are plain 2-d float64 numpy arrays; probability and rate vectors are
1-d arrays treated as rows.  A large banded matrix, such as a chain
truncated for the oracle, is a Band instead: LAPACK's band layout, n rows of
p + q + 1 cells for lower and upper reach p and q.  Every linear solve is
one LAPACK call that returns the solution and the inverse together, and
every solve passes one guard: an exactly singular matrix, a non-finite
solution, or a 1-norm reciprocal condition number below RCOND_MIN raises
SingularMatrix instead of returning digits that mean nothing.  On the 1-8
phase blocks the solvers mostly see, numpy's fixed cost per call outweighs
the arithmetic: a guarded 2 x 2 solve takes 11-15 us on a 2-vCPU x86-64,
5-6 us of it numpy.linalg.solve, whose LAPACK arithmetic is about 1.5 us,
and 5-7 us the guard; solve_linear adds about 4 us of set-up.  So a float64
array is read as it is, with no coercion, and [B | I] is written into one
zeroed buffer.  A solver that needs one matrix for several right-hand
sides stacks them into one solve.
A mean drift p v, for the stationary row p of a generator, is one bordered
solve too (mean_drift), kept when the error bound the solve gives is
within DRIFT_RTOL of the drift, which spares the shift of qbd.solve_G a
fold of its phase generator.  Stationary rows themselves are
the exception to LAPACK: stationary_row is GTH state reduction inside the
matrix's band, which needs no subtraction, so each entry is accurate
relative to its own size however small it is; mean_drift falls back on it
near zero drift and where nearly decomposable phases leave the bordered
system ill-conditioned, and both level-dependent routes fold their
censored windows with it.
stationary_row runs on a Band or on a square array, which it folds on its
own dense copy; a fold that overflows raises SingularMatrix, and its answer
is re-checked against the balance equations.  The fold has two loops,
chosen by the product of its lower and upper reach: up to FLOAT_FOLD_CELLS
it runs on Python floats read and written in place through a memoryview,
since a narrow band does a few multiply-adds per state, fewer than numpy's
calls would cost; wider bands run on numpy slices.
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
# Relative error bound up to which mean_drift keeps the drift of its
# bordered solve; beyond it the GTH row gives the drift.
DRIFT_RTOL = 1e-8
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


class _ByValue:
    """Mixin for classes whose fields are their __slots__: equality with an
    instance of the same class, and repr, by the fields' values in order."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class _ReadOnly:
    """Base of the validated model classes, whose attributes are __slots__
    set once in __init__ through object.__setattr__ and read-only after it.
    Equality and hash stay by identity unless a subclass defines them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Copying and unpickling set the slots, (None, {slot: value}), as
        __init__ did, and freeze every array they restore, in tuples too:
        a restored array is a writeable copy."""
        for name, value in state[1].items():
            _freeze_all(value)
            object.__setattr__(self, name, value)


def _freeze_all(value) -> None:
    """Mark an array, or every array in a nest of tuples, read-only."""
    if isinstance(value, np.ndarray):
        _frozen(value)
    elif isinstance(value, tuple):
        for item in value:
            _freeze_all(item)


def _float64(a) -> np.ndarray:
    """a itself if it is a float64 ndarray, else np.asarray's float copy."""
    return a if type(a) is np.ndarray and a.dtype == np.float64 else np.asarray(a, dtype=float)


def inf_norm(a) -> float:
    """Max absolute row sum for matrices, max |entry| for vectors."""
    a = _float64(a)
    if a.size == 0:
        return 0.0
    # the reductions that ndarray.sum and .max make, without their wrappers
    if a.ndim <= 1:
        return float(np.maximum.reduce(abs(a), None))
    return float(np.maximum.reduce(np.add.reduce(abs(a), 1), None))


def _square(a, caller: str) -> np.ndarray:
    """a as a float64 array (_float64), refused unless square and nonempty."""
    a = _float64(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{caller}: matrix must be square, got shape {a.shape}")
    if not len(a):
        raise ValidationError(f"{caller}: matrix must be nonempty, got shape {a.shape}")
    return a


def _after_identity(n: int, k: int) -> np.ndarray:
    """An n x (k + n) array of zeros but for the identity in its last n
    columns: the right-hand side [B | I] of a guarded solve, B to be
    written into its first k columns."""
    rhs = np.zeros((n, k + n))
    rhs.reshape(-1)[k::k + n + 1] = 1.0
    return rhs


def _guard(a, solved) -> None:
    """The check every solve passes: a is the coefficient matrix A and
    solved holds [X | A^-1], as the LAPACK call returned it.  A system
    fails, raising SingularMatrix, if [X | A^-1] is not finite or its
    1-norm reciprocal condition number 1 / (||A||_1 ||A^-1||_1) is below
    RCOND_MIN."""
    n = len(a)
    norms = (max(np.add.reduce(abs(a), 0).tolist()),
             max(np.add.reduce(abs(solved[:, -n:]), 0).tolist()))
    # a finite plain sum makes every entry finite; the checks below decide
    # and name whatever this does not pass
    if (math.isfinite(np.add.reduce(solved, axis=None))
            and 1.0 / norms[0] / norms[1] >= RCOND_MIN):
        return
    if not np.isfinite(solved).all():
        raise SingularMatrix(f"{n} x {n} system: non-finite solution")
    # divided in turn, so that huge norms underflow to 0 rather than overflow;
    # a subnormal or non-finite norm may still overflow or divide inf by inf,
    # which the guard refuses below, so the warnings would only get ahead of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rcond = np.float64(1.0) / norms[0] / norms[1]
    if not rcond >= RCOND_MIN:
        raise SingularMatrix(
            f"{n} x {n} system: reciprocal condition number {rcond:.3e} "
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
    b = _float64(b)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValidationError(f"solve_linear: B has {b.shape[0]} rows, expected {n}")
    columns = b.reshape(n, -1)
    k = columns.shape[1]
    rhs = _after_identity(n, k)
    rhs[:, :k] = columns
    # a copy, so that the result does not keep the inverse alive
    return _guarded_solve(a, rhs)[:, :k].reshape(b.shape).copy()


def solve_xa(a, b) -> np.ndarray:
    """Solve X A = B (row-vector orientation) via the transposed system."""
    return solve_linear(np.transpose(a), np.transpose(b)).T


def _guarded_solve(a, rhs) -> np.ndarray:
    """The X of A X = rhs by one LAPACK call, rhs ending in the identity, so
    that X ends in A^-1 for _guard."""
    try:
        solved = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{len(a)} x {len(a)} system: {exc}") from None
    _guard(a, solved)
    return solved


def inverse(a) -> np.ndarray:
    """A^-1, under the guard of solve_linear, from one solve of A X = I."""
    a = _square(a, "inverse")
    return _guarded_solve(a, _after_identity(len(a), 0))


def mean_drift(q, v) -> float | None:
    """p v for the stationary row p of the generator q (p q = 0, p e = 1),
    or None where stationary_row would refuse q.

    One guarded solve of the bordered system B [w; c] = [v; 0], B =
    [[q, e], [e^T, 0]], which returns B^-1 too: multiplied by p, its first
    block row gives c = p v.  Like stationary_row it reads q off its
    off-diagonal entries, the diagonal being minus their row sums: the
    roundoff a sum such as A0 + A1 + A2 leaves on the diagonal would
    otherwise swamp slow phase switching.  The solve is backward stable, so
    to first order c is off by at most (n + 1) eps times row n of
    |B^-1| |B| |[w; c]|, and c is returned when that is within DRIFT_RTOL
    of |c|.  It is not near zero drift, nor where q is nearly decomposable
    (classes of phases that switch between them at 1e-10 of the rates
    within them leave the bordered c's sign in doubt), nor with more than
    one closed class, whose B is singular.  There p v is the GTH row's, as
    stationary_row folds it, and None where that fold refuses q.
    """
    q = _square(q, "mean_drift")
    n = len(q)
    # B is built in place: q with its diagonal zeroed and clipped, then the
    # negated row sums on that diagonal and the border of ones
    bordered = np.empty((n + 1, n + 1))
    off, diagonal = bordered[:n, :n], bordered.reshape(-1)[:n * (n + 2):n + 2]
    off[...] = q
    diagonal[...] = 0.0
    try:
        _clip_off_diagonal(off, "mean_drift")
    except ValidationError:
        return None
    diagonal[...] = -np.add.reduce(off, 1)
    bordered[:n, n] = 1.0
    bordered[n, :n] = 1.0
    bordered[n, n] = 0.0
    rhs = _after_identity(n + 1, 1)
    rhs[:n, 0] = v
    try:
        solved = _guarded_solve(bordered, rhs)
    except SingularMatrix:
        solved = None
    if solved is not None:
        drift = float(solved[n, 0])
        error = (n + 1) * _EPS * float(abs(solved[n, 1:]) @ (abs(bordered) @ abs(solved[:, 0])))
        if error <= DRIFT_RTOL * abs(drift):
            return drift
    try:
        return float(_gth_row(q, True) @ v)
    except (SingularMatrix, ValidationError):
        return None


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
        """The row vector x times the matrix, one pass per band column, so
        every entry adds its terms from the last row up."""
        n, width = self.cells.shape
        out = np.zeros(n + width - 1)
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
    the sum).  A column entry that is ±0.0 is left as it is, with no
    division and no rank-one update: on finite cells these would add ±0.0
    products, which change no value a later step reads, so the row keeps
    its bits."""
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
            col = flat[at]
            if col == 0.0:
                continue
            col /= out
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


def _off_diagonal(cells: np.ndarray, lower: int, stride: int, caller: str) -> np.ndarray:
    """A copy of cells with the diagonal, every stride-th cell from cell
    lower, zeroed, and clipped by _clip_off_diagonal."""
    a = cells.copy()
    a.reshape(-1)[lower::stride] = 0.0
    _clip_off_diagonal(a, caller)
    return a


def _clip_off_diagonal(a: np.ndarray, caller: str) -> None:
    """Clip a, whose diagonal is zeroed, in place.  Matrices built from
    solves may carry roundoff below an exact zero: an entry below zero by
    at most n machine epsilons of the largest entry, n = len(a), is clipped
    to 0, and one beyond that raises ValidationError."""
    low = np.minimum.reduce(a, None)
    if low < 0.0:
        if low < -len(a) * _EPS * np.maximum.reduce(a, None):
            raise ValidationError(f"{caller}: negative off-diagonal entry {low:.3e}")
        np.maximum(a, 0.0, out=a)


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
    return _gth_row(m, continuous)


def _gth_row(m, continuous: bool) -> np.ndarray:
    """stationary_row's work under a private name: mean_drift falls back on
    it and turns a refusal into None, so no public function raises there."""
    dense = not isinstance(m, Band)
    cells = _square(m, "stationary_row") if dense else np.asarray(m.cells, dtype=float)
    (n, width), lower = cells.shape, 0 if dense else m.lower
    a = _off_diagonal(cells, lower, width + dense, "stationary_row")
    # the offsets j - i of the nonzero entries (i, j); band column c holds c - lower
    rows, cols = np.nonzero(a) if dense else (lower, np.flatnonzero(a.any(axis=0)))
    offsets = cols - rows
    below = -int(np.minimum.reduce(offsets, initial=0))
    above = int(np.maximum.reduce(offsets, initial=0))
    view = a if dense else Band(a, lower).view()
    v = np.zeros(n)
    # an outflow that underflows makes the fold overflow, which the check
    # after it refuses, so the warnings would only get ahead of it
    with np.errstate(all="ignore"):
        if below * above <= FLOAT_FOLD_CELLS:
            _gth_floats(view, memoryview(a.reshape(-1)), width - 1 + dense, lower, v, below, above)
        else:
            _gth_arrays(view, v, below, above)
        v /= np.add.reduce(v)
    if not np.isfinite(v).all():
        raise SingularMatrix("stationary solve: the fold overflowed")
    balance = cells if continuous else cells - np.eye(n if dense else 1, width, lower)
    product = v @ balance if dense else Band(balance, lower).product(v)
    residual, size = inf_norm(product), inf_norm(balance)
    if not residual <= BALANCE_TOL * max(1.0, size):  # NaN fails too
        raise SingularMatrix(f"stationary solve left balance residual {residual:.3e}")
    return v
