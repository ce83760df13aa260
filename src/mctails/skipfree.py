"""Discrete-time chains that are skip-free in one direction.

Two transition structures share this module.  A chain of GI/M/1 type moves up
by at most one level per step but may fall arbitrarily far:

    | B1  B0            |
    | B2  A1  A0        |
    | B3  A2  A1  A0    |
    | B4  A3  A2  A1 A0 |

A chain of M/G/1 type is the transpose picture, down by at most one level but
arbitrarily far up:

    | B1  B2  B3  B4 .. |
    | B0  A1  A2  A3 .. |
    |     A0  A1  A2 .. |
    |         A0  A1 .. |

Both keep a finite list of nonzero blocks.  _moves is the one place that
decides which block takes which level where, as a list of moves (block,
source levels, level step), and every consumer reads that list on the
m x m blocks: model validation adds each level's block row sums, the
balance re-check of both stationary solvers forms x K one stacked product
per block, and _place_a lays out the A blocks of the grouped QBD of the
R/G solve.  Only the oracle assembles a band (matkernel.Band), through
truncated_kernel, which lays the same moves out by level, the A blocks
by _place_a too.  The GI/M/1 side has a matrix-geometric stationary
vector driven by the minimal solution of R = sum_k R^k A_k; a QBD is the
GI/M/1 chain with A_k = 0 for k >= 3, so both share one boundary
(qbd._censored_boundary) and the QBD's mg and ul routes.  The M/G/1 side
rests on the first-passage matrix G = sum_k A_k G^k and visit-count blocks
fed into a forward recursion, a power series in their companion matrix
past the boundary (_forward_rows).  Seen max(1, len(A) - 2) levels at a
time either chain is a QBD, and R and G are blocks of that QBD's matrices
from qbd.solve_R and qbd.solve_G.  qbd._horner evaluates every block power
series of both sides, one product per block; every censored boundary row
passes qbd._boundary_row, and both stages re-check balance on a window of
levels (_check_balance).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    NearCritical,
    Reducible,
    SingularMatrix,
    Unstable,
    ValidationError,
)
from .matkernel import (
    Band,
    _frozen,
    _ReadOnly,
    as_matrix,
    inf_norm,
    mean_drift,
    solve_linear,
    solve_xa,
)
from .qbd import (
    ROWSUM_TOL,
    BoundarySolution,
    RateSolveResult,
    _boundary_row,
    _censored_boundary,
    _horner,
    solve_G,
    solve_R,
)
from .series import TailSeries, _from_levels, _powers, _suffix_sums


class SkipFreeModel(_ReadOnly):
    """Block lists of a skip-free transition kernel.

    a_blocks holds A_0, A_1, ... of the repeating part; b_blocks holds
    B_0, B_1, B_2, ... around the boundary, in the layouts drawn above.
    Blocks absent from the lists are zero.  Every row of the kernel must sum
    to one, which ties the two lists together; construction checks the
    rows of the levels up to just past the longer list, which hold every
    distinct row pattern, adding up the row sums of the blocks that move
    out of each level.  Models compare and hash by identity, as LdQbdModel
    does.
    """

    __slots__ = ("kind", "a_blocks", "b_blocks")

    def __init__(self, kind, a_blocks, b_blocks):
        if kind not in ("GIM1", "MG1"):
            raise ValidationError(f"kind must be 'GIM1' or 'MG1', got {kind!r}")
        a = [as_matrix(blk, f"A{k}") for k, blk in enumerate(a_blocks)]
        b = [as_matrix(blk, f"B{k}") for k, blk in enumerate(b_blocks)]
        if len(a) < 2:
            raise ValidationError("need at least blocks A0 and A1")
        if len(b) < 2:
            raise ValidationError("need at least blocks B0 and B1")
        m = a[0].shape[0]
        m0 = b[1].shape[0]
        for k, blk in enumerate(a):
            if blk.shape != (m, m):
                raise ValidationError(f"A{k}: expected shape {(m, m)}, got {blk.shape}")
            if np.any(blk < 0):
                raise ValidationError(f"A{k}: negative entry")
        for k, blk in enumerate(b):
            if kind == "GIM1":
                want = (m0, m) if k == 0 else ((m0, m0) if k == 1 else (m, m0))
            else:
                want = (m, m0) if k == 0 else ((m0, m0) if k == 1 else (m0, m))
            if blk.shape != want:
                raise ValidationError(f"B{k}: expected shape {want}, got {blk.shape}")
            if np.any(blk < 0):
                raise ValidationError(f"B{k}: negative entry")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "a_blocks", tuple(_frozen(x) for x in a))
        object.__setattr__(self, "b_blocks", tuple(_frozen(x) for x in b))
        # levels 0..depth hold every distinct row: M/G/1 rows are alike from
        # level 2 on, GI/M/1 rows from level max(len(A), len(B)) - 1 on; a
        # level's row sums are the row sums of the blocks moving out of it
        depth = 2 if kind == "MG1" else max(len(a), len(b)) - 1
        level0, rows = np.zeros(m0), np.zeros((depth, m))
        for blk, first, last, _ in _moves(self.a_blocks, self.b_blocks, kind == "MG1"):
            if first == 0:
                level0 += blk.sum(axis=1)
            else:
                rows[first - 1:last] += blk.sum(axis=1)
        miss = np.abs(np.concatenate((level0, rows.ravel())) - 1.0)
        if np.any(miss > ROWSUM_TOL):
            state = int(np.argmax(miss > ROWSUM_TOL))
            level = 0 if state < m0 else (state - m0) // m + 1
            raise ValidationError(
                f"level-{level} row must sum to one, off by {float(miss[state]):.3e}"
            )

    @property
    def m(self) -> int:
        return self.a_blocks[0].shape[0]

    @property
    def m0(self) -> int:
        return self.b_blocks[1].shape[0]

    @property
    def band_reach(self) -> tuple:
        """(lower, upper): how far below and above the diagonal the kernel
        on levels 0..L puts an entry, for any L.  A move of one level spans
        at most max(m0, m) + m - 1 states.  On the far side, down in GI/M/1
        and up in M/G/1, A_d spans at most d m - 1 and B_k, between level 0
        and level k - 1, at most m0 + (k - 1) m - 1."""
        a, b, m = self.a_blocks, self.b_blocks, self.m
        near = max(self.m0, m) + m - 1
        far = max((len(a) - 1) * m, self.m0 + (len(b) - 2) * m) - 1
        return (near, far) if self.kind == "MG1" else (far, near)


def _moves(a, b, mg1: bool) -> list:
    """Every move of the chain as (block, first, last, step): the block takes
    each level i of first..last (last None: every level from first on) to
    level i + step.  This is the one place that decides which block a move
    takes; truncated_kernel, _grouped, model validation and the balance
    re-check all read it.

    In the GI/M/1 picture B_0 and B_1 take level 0 to levels 1 and 0, B_k
    (k >= 2) takes level k - 1 to level 0, and A_d takes level
    i >= max(1, d) to level i + 1 - d; the M/G/1 picture is its block
    transpose.  Either way an A move starts at the first level from which
    it lands on level 1 or above.  The B moves come first, then the A moves
    from the last block, the order truncated_kernel adds them in."""
    moves = []
    for k, blk in enumerate(b):
        i, j = (0, 1 - k) if k < 2 else (k - 1, 0)
        if mg1:
            i, j = j, i
        moves.append((blk, i, i, j - i))
    for d in range(len(a) - 1, -1, -1):
        step = d - 1 if mg1 else 1 - d
        moves.append((a[d], max(1, 1 - step), None, step))
    return moves


def truncated_kernel(model: SkipFreeModel, levels: int) -> Band:
    """The kernel on levels 0..`levels`, drawn above, in band storage:
    level 0 takes the first m0 states and level k >= 1 the m states after
    it.  The last level absorbs every move past it, so each row keeps its
    sum.  The blocks go where _moves says, the A blocks by _place_a.  Only
    the oracle assembles it.
    """
    m0, m = model.m0, model.m
    moves = _moves(model.a_blocks, model.b_blocks, model.kind == "MG1")
    band = Band.zeros(m0 + levels * m, *model.band_reach)
    p = band.view()

    def states(level):
        return slice(0, m0) if level == 0 else slice(m0 + (level - 1) * m, m0 + level * m)

    for blk, first, last, step in moves:
        if last is not None and first <= levels:
            p[states(first), states(min(first + step, levels))] += blk
    # levels 1..levels as a (level, phase, level, phase) grid over the cells
    # from entry (m0, m0) on, at flat index m0 (width - 1) + m0 + lower
    width, item = band.cells.shape[1], band.cells.itemsize
    strides = (m * (width - 1) * item, (width - 1) * item, m * item, item)
    _place_a(band.cells.reshape(-1)[m0 * width + band.lower:], (levels, m, levels, m),
             strides, moves, 0)
    return band


def _place_a(buffer, shape, strides, moves, first: int) -> None:
    """Add the A moves of a _moves list to a (row, phase, level, phase)
    grid of the given shape and byte strides over the C-contiguous 1-d
    `buffer`, whose item 0 is the grid's (0, 0, 0, 0); row r is level
    first + r.  A move past the last level stays on it and one below level
    0 is dropped.  Each block goes in through one strided view of the grid
    diagonal its move runs along, (row, phase, phase) with row stride
    s0 + s2, and one slice of the last level for the rows whose moves are
    clamped onto it.  The blocks go in in the list's order, from the last,
    so a folded column adds them up in the same order as their suffix
    sums."""
    rows, m, levels, _ = shape
    s0, s1, s2, s3 = strides
    grid = np.ndarray(shape, buffer=buffer, strides=strides)
    for blk, _, last, step in moves:
        if last is not None:
            continue
        shift = first + step  # the column row 0 moves to
        lo, hi = max(0, -shift), min(rows, levels - shift)
        if lo < hi:
            diagonal = np.ndarray((hi - lo, m, m), buffer=buffer,
                                  offset=lo * s0 + (lo + shift) * s2, strides=(s0 + s2, s1, s3))
            diagonal += blk
        if max(lo, hi) < rows:
            grid[max(lo, hi):, :, levels - 1] += blk


class Mg1Measures(NamedTuple):
    """Solved quantities for an M/G/1-type chain.

    passage is the minimal solution of G = sum_k A_k G^k and local_kernel
    the visit kernel sum_{k>=1} A_k G^{k-1}.  boundary_visits holds the visit
    blocks V0_1, V0_2, ... out of the boundary and visits the blocks V_1,
    V_2, ... between repeating levels; visit_rows holds the unnormalized
    stationary rows of the forward recursion over the balance window;
    x0 = tau * visit_rows[0].
    """

    passage: np.ndarray
    local_kernel: np.ndarray
    boundary_visits: tuple
    visits: tuple
    visit_rows: tuple
    tau: float
    x0: np.ndarray


def _grouped(a_blocks, mg1: bool) -> tuple:
    """Generator blocks (up, local, down) of the chain watched
    n = max(1, len(A) - 2) levels at a time: the middle group of three,
    laid out by _place_a, and its moves to each group.  No jump spans two
    groups, so this is a QBD; -I on the local block gives generator blocks
    with the same R and G."""
    a = [np.asarray(blk, dtype=float) for blk in a_blocks]
    n = max(1, len(a) - 2)
    m = a[0].shape[0]
    grid = np.zeros((n, m, 3 * n, m))
    _place_a(grid.reshape(-1), grid.shape, grid.strides, _moves(a, (), mg1), n)
    down, local, up = (grid[:, :, g * n:(g + 1) * n].reshape(n * m, n * m) for g in range(3))
    return up, local - np.eye(n * m), down


def solve_R_series(a_blocks, tol: float = 1e-12) -> RateSolveResult:
    """Minimal nonnegative solution of R = sum_{k>=0} R^k A_k: the last-row,
    first-column block of the grouped chain's R, whose last block row is
    R, R^2, ..., R^n.  Iterations and residual are the grouped solve's."""
    m = np.shape(a_blocks[0])[0]
    solved = solve_R(*_grouped(a_blocks, False), tol=tol)
    return RateSolveResult(_frozen(solved.matrix[-m:, :m].copy()),
                           solved.iterations, solved.residual)


def solve_G_series(a_blocks, tol: float = 1e-12) -> RateSolveResult:
    """Minimal nonnegative solution of G = sum_{k>=0} A_k G^k: the
    first-row, last-column block of the grouped chain's G, whose last block
    column is G, G^2, ..., G^n."""
    m = np.shape(a_blocks[0])[0]
    solved = solve_G(*_grouped(a_blocks, True), tol=tol)
    return RateSolveResult(_frozen(solved.matrix[:m, -m:].copy()),
                           solved.iterations, solved.residual)


def gim1_stationary(model: SkipFreeModel, tol: float = 1e-12) -> BoundarySolution:
    """Boundary solution of a positive recurrent GI/M/1-type chain, the
    qbd.BoundarySolution that qbd.boundary_solve gives a QBD, by the same
    censoring of level 0 (qbd._censored_boundary) on the blocks in
    generator form: (A_0, A_1 - I, A_2, ...) and (B_0, B_1 - I, B_2, ...).
    So phi0 is A_0 + sum_{k>=1} R^{k-1} A_k - I, level 1 censored on itself.
    A balance miss beyond 1e-8 on a window of levels raises SingularMatrix.
    """
    if model.kind != "GIM1":
        raise ValidationError("gim1_stationary needs a GIM1 model")
    a, b = model.a_blocks, model.b_blocks
    r = solve_R_series(a, tol=tol).matrix
    solved = _censored_boundary((a[0], a[1] - np.eye(model.m), *a[2:]),
                                (b[0], b[1] - np.eye(model.m0), *b[2:]), r)
    _check_balance(model, solved.x0, _powers(solved.x1, r, _balance_window(model) - 1))
    return solved


def _visit_blocks(sums: list, kernel: np.ndarray) -> list:
    """The blocks sums[i] (I - kernel)^{-1}, each of any height, in one
    stacked solve.  Each is a row slice of the solve's transposed result,
    so a product with it runs in the order a block solved alone gives."""
    if not sums:
        return []
    solved = solve_xa(np.eye(len(kernel)) - kernel, np.concatenate(sums))
    blocks, start = [], 0
    for blk in sums:
        blocks.append(solved[start:start + len(blk)])
        start += len(blk)
    return blocks


def mg1_drift(model: SkipFreeModel) -> float:
    """Mean level change per step under the stationary phase mix,
    p (sum_k k A_k e - e) with p stationary for sum_k A_k; negative for a
    positive recurrent repeating part.  matkernel.mean_drift gives it on the
    generator sum_k A_k - I, to DRIFT_RTOL relative or from the GTH row; a
    phase kernel whose p is not unique raises SingularMatrix."""
    a = [np.asarray(blk) for blk in model.a_blocks]
    steps = sum(k * blk.sum(axis=1) for k, blk in enumerate(a))
    drift = mean_drift(sum(a[1:], a[0]) - np.eye(model.m), steps - 1.0)
    if drift is None:
        raise SingularMatrix("mean drift: the phase kernel sum_k A_k has no unique stationary row")
    return drift


def _balance_window(model: SkipFreeModel) -> int:
    """Rows the balance re-check reads: its window of levels 0..W with
    W = max(len(A), len(B)) + 5, plus the deepest jump into level W."""
    a, b = model.a_blocks, model.b_blocks
    return max(len(a), len(b)) + 5 + len(a)


def _balance_residual(model: SkipFreeModel, x0, rows) -> float:
    """Largest entry of x K - x over the window levels 0..W, where x is the
    boundary row x0 and the level rows `rows` of levels 1..n, with
    W = n + 1 - len(A), and K is the kernel.  No row past level n moves
    into the window, so its columns of x K are exact.  x K is formed from
    the blocks: per move (_moves), the rows of its source levels that land
    in the window, stacked, times its block, added at the target levels."""
    n, window = len(rows), len(rows) + 1 - len(model.a_blocks)
    out0, out = -x0, -rows[:window]
    for blk, first, last, step in _moves(model.a_blocks, model.b_blocks, model.kind == "MG1"):
        hi = min(n if last is None else last, window - step)
        if hi < first:
            continue
        source = x0[None] if first == 0 else rows[first - 1:hi]
        if first + step == 0:
            out0 = out0 + source[0] @ blk
        else:
            out[first + step - 1:hi + step] += source @ blk
    return max(inf_norm(out0), inf_norm(out.ravel()))


def _check_balance(model: SkipFreeModel, x0, rows) -> None:
    """Raise SingularMatrix when the boundary row x0 and the level rows
    miss balance on the window (_balance_residual) by more than 1e-8."""
    resid = _balance_residual(model, x0, rows)
    if resid > 1e-8:
        raise SingularMatrix(f"stationary rows miss balance by {resid:.3e}")


def _mg1_row(head, rows, first, blocks, k: int) -> np.ndarray:
    """head first[k-1] + sum_{0<i<k} rows[i-1] blocks[k-i-1], blocks past
    either list zero: on the visit blocks, row k of the forward recursion
    v_k = y0 V0_k + sum_{0<i<k} v_i V_{k-i}; on their suffix sums, the
    level-k tail sum."""
    row = head @ first[k - 1] if k <= len(first) else np.zeros(rows.shape[1])
    for i in range(max(1, k - len(blocks)), k):
        row = row + rows[i - 1] @ blocks[k - i - 1]
    return row


def _forward_rows(head, first, blocks, rows, sources=()) -> None:
    """Fill the zeroed rows with r_1, r_2, .. of r_k = s_k + head F_k +
    sum_{0<i<k} r_i V_{k-i}, F_k = first[k-1], V_d = blocks[d-1] and
    s_k = sources[k-1] zero past their lists: by _mg1_row up to row
    n = max(len(first), len(sources), D), then as the last m columns of
    [r_{n-D+1} .. r_n] C^j, C the block companion matrix of the V_d."""
    depth, m = len(blocks), rows.shape[1]
    near = min(max(len(first), len(sources), depth), len(rows))
    for i in range(near):
        rows[i] = _mg1_row(head, rows, first, blocks, i + 1)
        if i < len(sources):
            rows[i] += sources[i]
    if depth and near < len(rows):
        companion = np.eye(depth * m, k=-m)
        companion[:, -m:] = np.concatenate(blocks[::-1])
        state = rows[near - depth:near].ravel() @ companion
        rows[near:] = _powers(state, companion, len(rows) - near)[:, -m:]


def mg1_stationary(model: SkipFreeModel, tol: float = 1e-12) -> Mg1Measures:
    """Boundary row and visit measures of a positive recurrent M/G/1-type chain.

    The forward recursion builds unnormalized rows
    v_k = y0 V0_k + sum_{0<i<k} v_i V_{k-i} out of the visit blocks
    V0_j = (sum_{l>=j} B_{l+1} G^{l-j})(I - kernel)^{-1} and
    V_d = (sum_{l>=d} A_{l+1} G^{l-d})(I - kernel)^{-1}, and y0 is the
    stationary row of the boundary censored through first passages, the
    generator B_1 - I + V0_1 B_0 (qbd._boundary_row).  Summing the
    recursion over k gives the normalizer in closed form (Ramaswami 1988):
    tau = 1 / (y0 e + y0 W0 (I - W)^{-1} e) with W0 = sum_j V0_j and
    W = sum_d V_d.  I - W turns singular as the drift goes to 0, and where
    its solve is refused the walk raises NearCritical.  Only the rows of
    the balance window are materialized; a balance miss beyond 1e-8 on the
    window raises SingularMatrix.
    """
    if model.kind != "MG1":
        raise ValidationError("mg1_stationary needs a MG1 model")
    a, b = model.a_blocks, model.b_blocks
    if not any(np.any(blk) for blk in b[2:]):
        raise Reducible("boundary cannot reach the repeating levels")
    drift = mg1_drift(model)
    if abs(drift) < 1e-10:
        raise NearCritical(f"mean drift {drift:.3e} is numerically zero")
    if drift > 0:
        raise Unstable(f"mean drift {drift:.3e} is positive")
    solved = solve_G_series(a, tol=tol)
    g = solved.matrix
    m, m0 = model.m, model.m0
    eye = np.eye(m)
    kernel, *above = _horner(a[1:], g)
    boundary_sums = _horner(b[2:], g)
    blocks = _visit_blocks([*boundary_sums, *above], kernel)
    from_boundary, between = blocks[:len(boundary_sums)], blocks[len(boundary_sums):]
    y0 = _boundary_row((b[1] - np.eye(m0)) + from_boundary[0] @ b[0])
    w0 = sum(from_boundary, np.zeros((m0, m)))
    w = sum(between, np.zeros((m, m)))
    try:
        visits = solve_linear(eye - w, np.ones(m))
    except SingularMatrix as exc:
        raise NearCritical(f"mean drift {drift:.3e} is too near zero to solve the "
                           f"normalizer: I - W: {exc}") from exc
    tau = 1.0 / (float(y0.sum()) + float(y0 @ w0 @ visits))
    rows = np.zeros((_balance_window(model) - 1, m))
    _forward_rows(y0, from_boundary, between, rows)
    x0 = tau * y0
    _check_balance(model, x0, tau * rows)
    return Mg1Measures(
        passage=g,
        local_kernel=_frozen(kernel),
        boundary_visits=tuple(_frozen(v) for v in from_boundary),
        visits=tuple(_frozen(v) for v in between),
        visit_rows=(_frozen(y0), *_frozen(rows)),
        tau=tau,
        x0=_frozen(x0),
    )


def mg1_tails(model: SkipFreeModel, measures: Mg1Measures, levels: int) -> TailSeries:
    """Iterative tails of an M/G/1-type chain from its measures.

    The stationary forward recursion (_forward_rows) is run to the
    requested depth, and the rows are suffix-summed.  The mass past the
    last row n comes in closed form, once: summing the recursion over the
    levels past n gives pi_{n+1} (I - W_1) = v_0 W0_{n+1} +
    sum_{0<i<=n} v_i W_{n+1-i}, with W0 and W the suffix sums of the visit
    blocks.
    """
    head = measures.visit_rows[0]
    rows = np.zeros((max(levels, len(measures.visit_rows) - 1), model.m))
    _forward_rows(head, measures.boundary_visits, measures.visits, rows)
    w0 = _suffix_sums(measures.boundary_visits)
    w = _suffix_sums(measures.visits) if measures.visits else [np.zeros((model.m, model.m))]
    acc = _mg1_row(head, rows, w0[:-1], w[:-1], len(rows) + 1)
    past = solve_xa(np.eye(model.m) - w[0], acc)
    report = {"levels_materialized": max(levels, len(measures.visit_rows))}
    return _from_levels(rows, levels, "iterative", report, head, past)


def mg1_ul_tails(model: SkipFreeModel, measures: Mg1Measures, levels: int) -> TailSeries:
    """Factorization tails of an M/G/1-type chain from its measures.

    The tail system is solved directly: with suffix sums
    S_d = sum_{k>=d} A_k the tails obey
    pi_n = c_n + pi_1 S_n + sum_{i=2}^n pi_i A_{n-i+1} + pi_{n+1} A_0 with
    source c_n = x0 sum_{l>=n+1} B_l, handled backward through G and forward
    through the visit blocks of the S-shifted chain (_forward_rows).
    """
    a, b = model.a_blocks, model.b_blocks
    g, kernel = measures.passage, measures.local_kernel
    eye = np.eye(model.m)
    shifted_chain, *shifted_sums = _horner(_suffix_sums(a)[1:], g)
    backward = _horner(measures.x0 @ _suffix_sums(b[2:]), g)
    # the shifted visit blocks and the sources of levels 2..len(backward)
    # through I - kernel, in one solve
    *shifted_visits, sources = _visit_blocks(
        [*shifted_sums, np.reshape(backward[1:levels], (-1, model.m))], kernel)
    pis = np.zeros((levels, model.m))
    if levels:
        pis[0] = solve_xa(eye - shifted_chain, backward[0])
        _forward_rows(pis[0], shifted_visits, measures.visits, pis[1:], sources)
    return TailSeries(pis, measures.x0, method="ul-rg")
