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

Both keep a finite list of nonzero blocks.  The GI/M/1 side has a
matrix-geometric stationary vector driven by the minimal solution of
R = sum_k R^k A_k; the M/G/1 side rests on the first-passage matrix
G = sum_k A_k G^k and visit-count blocks fed into a forward recursion.  Seen
max(1, len(A) - 2) levels at a time either chain is a QBD, and R and G are
blocks of that QBD's matrices from qbd.solve_R and qbd.solve_G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NearCritical,
    Reducible,
    SingularMatrix,
    Unstable,
    ValidationError,
)
from .matkernel import (
    _frozen,
    _powers,
    as_matrix,
    inf_norm,
    solve_linear,
    solve_xa,
    stationary_row,
)
from .qbd import ROWSUM_TOL, RateSolveResult, require_stable, solve_G, solve_R
from .series import TailSeries


@dataclass(frozen=True)
class SkipFreeModel:
    """Block lists of a skip-free transition kernel.

    a_blocks holds A_0, A_1, ... of the repeating part; b_blocks holds
    B_0, B_1, B_2, ... around the boundary, in the layouts drawn above.
    Blocks absent from the lists are zero.  Every row of the kernel must sum
    to one, which ties the two lists together; construction checks each
    distinct row pattern.
    """

    kind: str
    a_blocks: tuple
    b_blocks: tuple

    def __post_init__(self):
        if self.kind not in ("GIM1", "MG1"):
            raise ValidationError(f"kind must be 'GIM1' or 'MG1', got {self.kind!r}")
        a = [as_matrix(blk, f"A{k}") for k, blk in enumerate(self.a_blocks)]
        b = [as_matrix(blk, f"B{k}") for k, blk in enumerate(self.b_blocks)]
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
            if self.kind == "GIM1":
                want = (m0, m) if k == 0 else ((m0, m0) if k == 1 else (m, m0))
            else:
                want = (m, m0) if k == 0 else ((m0, m0) if k == 1 else (m0, m))
            if blk.shape != want:
                raise ValidationError(f"B{k}: expected shape {want}, got {blk.shape}")
            if np.any(blk < 0):
                raise ValidationError(f"B{k}: negative entry")
        self._check_rows(a, b, m0)
        object.__setattr__(self, "a_blocks", tuple(_frozen(x) for x in a))
        object.__setattr__(self, "b_blocks", tuple(_frozen(x) for x in b))

    def _check_rows(self, a, b, m0):
        total_a = sum(blk.sum(axis=1) for blk in a)
        if inf_norm(total_a - 1.0) > ROWSUM_TOL:
            raise ValidationError("repeating-part blocks must sum to a stochastic matrix")
        if self.kind == "GIM1":
            row0 = b[1].sum(axis=1) + b[0].sum(axis=1)
            if inf_norm(row0 - 1.0) > ROWSUM_TOL:
                raise ValidationError("boundary row must sum to one")
            for k in range(1, max(len(a), len(b))):
                total = sum(a[i].sum(axis=1) for i in range(min(k, len(a) - 1) + 1))
                if k + 1 < len(b):
                    total = total + b[k + 1].sum(axis=1)
                if inf_norm(total - 1.0) > ROWSUM_TOL:
                    raise ValidationError(f"level-{k} row must sum to one")
        else:
            row0 = sum((blk.sum(axis=1) for blk in b[2:]), b[1].sum(axis=1))
            if inf_norm(row0 - 1.0) > ROWSUM_TOL:
                raise ValidationError("boundary row must sum to one")
            row1 = sum((blk.sum(axis=1) for blk in a[1:]), b[0].sum(axis=1))
            if inf_norm(row1 - 1.0) > ROWSUM_TOL:
                raise ValidationError("level-1 row must sum to one")

    @property
    def m(self) -> int:
        return self.a_blocks[0].shape[0]

    @property
    def m0(self) -> int:
        return self.b_blocks[1].shape[0]


@dataclass(frozen=True)
class Gim1Measures:
    """Solved quantities for a GI/M/1-type chain.

    rate is the minimal solution of R = sum_k R^k A_k; entry maps the
    boundary into level 1; visit_kernel is sum_{k>=1} R^{k-1} A_k and
    shifted_kernel adds A_0 to it, so that I minus the shifted kernel factors
    as (I - R)(I - visit_kernel).  boundary_chain is the chain censored on
    the boundary, boundary_row its stationary vector, and
    x0 = tau * boundary_row the stationary boundary probabilities.
    """

    rate: np.ndarray
    entry: np.ndarray
    visit_kernel: np.ndarray
    shifted_kernel: np.ndarray
    boundary_chain: np.ndarray
    boundary_row: np.ndarray
    tau: float
    x0: np.ndarray
    iterations: int
    residual: float
    stationarity_residual: float


@dataclass(frozen=True)
class Mg1Measures:
    """Solved quantities for an M/G/1-type chain.

    passage is the minimal solution of G = sum_k A_k G^k, boundary_passage
    the first-passage block from level 1 into the boundary, local_kernel the
    visit kernel sum_{k>=1} A_k G^{k-1}.  boundary_visits holds the visit
    blocks V0_1, V0_2, ... out of the boundary and visits the blocks V_1,
    V_2, ... between repeating levels; visit_rows holds the unnormalized
    stationary rows of the forward recursion, as deep as they were asked
    for; x0 = tau * visit_rows[0].
    """

    passage: np.ndarray
    boundary_passage: np.ndarray
    local_kernel: np.ndarray
    boundary_chain: np.ndarray
    drift: float
    boundary_visits: tuple
    visits: tuple
    visit_rows: tuple
    tau: float
    x0: np.ndarray
    iterations: int
    residual: float
    stationarity_residual: float


def _grouped(a_blocks, sign: int) -> tuple:
    """Generator blocks (up, local, down) of the chain watched
    n = max(1, len(A) - 2) levels at a time, where a move of d levels takes
    block A_{1 + sign d} (sign +1: M/G/1, -1: GI/M/1).  No jump spans two
    groups, so this is a QBD; -I on the local block gives generator blocks
    with the same R and G."""
    a = [np.asarray(blk, dtype=float) for blk in a_blocks]
    n = max(1, len(a) - 2)
    m = a[0].shape[0]

    def block(step):
        out = np.zeros((n * m, n * m))
        for i in range(n):
            for j in range(n):
                k = 1 + sign * (n * step + j - i)
                if 0 <= k < len(a):
                    out[i * m:(i + 1) * m, j * m:(j + 1) * m] = a[k]
        return out

    return block(1), block(0) - np.eye(n * m), block(-1)


def solve_R_series(a_blocks, tol: float = 1e-12) -> RateSolveResult:
    """Minimal nonnegative solution of R = sum_{k>=0} R^k A_k: the last-row,
    first-column block of the grouped chain's R, whose last block row is
    R, R^2, ..., R^n.  Iterations and residual are the grouped solve's."""
    m = np.shape(a_blocks[0])[0]
    solved = solve_R(*_grouped(a_blocks, -1), tol=tol)
    return RateSolveResult(_frozen(solved.matrix[-m:, :m].copy()),
                           solved.iterations, solved.residual)


def solve_G_series(a_blocks, tol: float = 1e-12) -> RateSolveResult:
    """Minimal nonnegative solution of G = sum_{k>=0} A_k G^k: the
    first-row, last-column block of the grouped chain's G, whose last block
    column is G, G^2, ..., G^n."""
    m = np.shape(a_blocks[0])[0]
    solved = solve_G(*_grouped(a_blocks, 1), tol=tol)
    return RateSolveResult(_frozen(solved.matrix[:m, -m:].copy()),
                           solved.iterations, solved.residual)


def _gim1_rows(model: SkipFreeModel, x0, entry, rate, count: int) -> list:
    rows = [x0, x0 @ entry]
    for _ in range(2, count + 1):
        rows.append(rows[-1] @ rate)
    return rows


def _gim1_balance_residual(model: SkipFreeModel, x0, entry, rate) -> float:
    a, b = model.a_blocks, model.b_blocks
    window = max(len(a), len(b)) + 5
    x = _gim1_rows(model, x0, entry, rate, window + len(a))
    into = x[0] @ b[1]
    for k in range(1, len(b) - 1):
        into = into + x[k] @ b[k + 1]
    worst = inf_norm(into - x[0])
    for j in range(1, window + 1):
        into = x[j - 1] @ (a[0] if j > 1 else b[0])
        for i in range(j, j + len(a) - 1):
            into = into + x[i] @ a[i + 1 - j]
        worst = max(worst, inf_norm(into - x[j]))
    return worst


def gim1_stationary(model: SkipFreeModel, tol: float = 1e-12) -> Gim1Measures:
    """Boundary row and rate measures of a positive recurrent GI/M/1-type chain.

    The censored boundary chain is B_1 + R_1 sum_k R^{k-1} B_{k+1} with entry
    block R_1 = B_0 (I - visit_kernel)^{-1}; its stationary vector, scaled by
    the mass of the matrix-geometric levels above, gives x0.  A balance miss
    beyond 1e-8 on a window of levels raises SingularMatrix.
    """
    if model.kind != "GIM1":
        raise ValidationError("gim1_stationary needs a GIM1 model")
    a, b = model.a_blocks, model.b_blocks
    if not np.any(b[0]):
        raise Reducible("B0 = 0: boundary cannot reach the repeating levels")
    solved = solve_R_series(a, tol=tol)
    r = solved.matrix
    require_stable(r)
    m = model.m
    eye = np.eye(m)
    visit = np.zeros((m, m))
    power = eye
    for k in range(1, len(a)):
        visit = visit + power @ a[k]
        power = power @ r
    entry = solve_xa(eye - visit, b[0])
    folded = np.zeros((m, model.m0))
    power = eye
    for k in range(1, len(b) - 1):
        folded = folded + power @ b[k + 1]
        power = power @ r
    boundary_chain = b[1] + entry @ folded
    stochastic_err = inf_norm(boundary_chain.sum(axis=1) - 1.0)
    if stochastic_err > 1e-6:
        raise SingularMatrix(
            f"censored boundary chain rows sum to 1 +/- {stochastic_err:.3e}"
        )
    y0 = stationary_row(boundary_chain, continuous=False)
    mass = float((y0 @ entry) @ solve_linear(eye - r, np.ones(m)))
    tau = 1.0 / (1.0 + mass)
    x0 = tau * y0
    resid = _gim1_balance_residual(model, x0, entry, r)
    if resid > 1e-8:
        raise SingularMatrix(f"stationary rows miss balance by {resid:.3e}")
    return Gim1Measures(
        rate=r,
        entry=_frozen(entry),
        visit_kernel=_frozen(visit),
        shifted_kernel=_frozen(a[0] + visit),
        boundary_chain=_frozen(boundary_chain),
        boundary_row=_frozen(y0),
        tau=tau,
        x0=_frozen(x0),
        iterations=solved.iterations,
        residual=solved.residual,
        stationarity_residual=resid,
    )


def _gim1_geometric_head(measures: Gim1Measures) -> np.ndarray:
    eye = np.eye(measures.rate.shape[0])
    return measures.x0 @ solve_xa(eye - measures.rate, measures.entry)


def gim1_tails(model: SkipFreeModel, levels: int, tol: float = 1e-12) -> TailSeries:
    """Matrix-geometric tails of a GI/M/1-type chain, summing the geometric
    levels directly: pi_k = x0 R_1 (I - R)^{-1} R^{k-1}."""
    measures = gim1_stationary(model, tol=tol)
    head = _gim1_geometric_head(measures)
    return TailSeries(_powers(head, measures.rate, levels), measures.x0,
                      method="matrix-geometric")


def gim1_ul_tails(model: SkipFreeModel, levels: int, tol: float = 1e-12) -> TailSeries:
    """Factorization tails of a GI/M/1-type chain.

    Level 1 is censored under the shifted kernel instead,
    pi_k = x0 B_0 (I - shifted_kernel)^{-1} R^{k-1}; the head agrees exactly
    with the matrix-geometric one because I minus the shifted kernel factors
    through I - R, and the report carries their observed distance.
    """
    measures = gim1_stationary(model, tol=tol)
    head = solve_xa(np.eye(model.m) - measures.shifted_kernel,
                    measures.x0 @ model.b_blocks[0])
    report = {"identity_residual": inf_norm(head - _gim1_geometric_head(measures))}
    return TailSeries(_powers(head, measures.rate, levels), measures.x0,
                      method="ul-rg", truncation_report=report)


def _suffix_sums(blocks: list) -> list:
    """suffix[d] = sum_{k>=d} blocks[k], with one all-zero entry past the end."""
    out = [np.zeros_like(blocks[0]) for _ in range(len(blocks) + 1)]
    for k in range(len(blocks) - 1, -1, -1):
        out[k] = blocks[k] + out[k + 1]
    return out


def _visit_blocks(shifted: list, g: np.ndarray, kernel: np.ndarray) -> list:
    """V_d = (sum_{l>=d} shifted[l-1] G^{l-d}) (I - kernel)^{-1} for d >= 1.

    shifted[i] plays the role of the block one step above index i+1, so the
    caller passes its list already offset by one.  Built backwards, one
    multiply by G per entry; out[d-1] = V_d.
    """
    eye = np.eye(kernel.shape[0])
    out = [None] * len(shifted)
    acc = None
    for d in range(len(shifted), 0, -1):
        acc = shifted[d - 1] if acc is None else shifted[d - 1] + acc @ g
        out[d - 1] = solve_xa(eye - kernel, acc)
    return out


def mg1_drift(model: SkipFreeModel) -> float:
    """Mean level change per step under the stationary phase mix; negative
    for a positive recurrent repeating part."""
    a = [np.asarray(blk) for blk in model.a_blocks]
    phase = stationary_row(sum(a[1:], a[0]), continuous=False)
    mean = sum(k * float(phase @ blk.sum(axis=1)) for k, blk in enumerate(a))
    return mean - 1.0


def _mg1_window(model: SkipFreeModel) -> int:
    """Rows the balance re-check reads: its window of levels, plus the
    deepest jump into the last of them."""
    a, b = model.a_blocks, model.b_blocks
    return max(len(a), len(b)) + 5 + len(a)


def _mg1_balance_residual(model: SkipFreeModel, x: list) -> float:
    a, b = model.a_blocks, model.b_blocks
    window = min(len(x), _mg1_window(model)) - len(a)
    if window < 1:
        return 0.0
    into = x[0] @ b[1] + x[1] @ b[0]
    worst = inf_norm(into - x[0])
    for j in range(1, window + 1):
        into = x[0] @ b[j + 1] if j + 1 < len(b) else np.zeros(model.m)
        for i in range(max(1, j - len(a) + 2), j + 2):
            into = into + x[i] @ a[j - i + 1]
        worst = max(worst, inf_norm(into - x[j]))
    return worst


def mg1_stationary(model: SkipFreeModel, tol: float = 1e-12, levels: int = 0) -> Mg1Measures:
    """Boundary row and visit measures of a positive recurrent M/G/1-type chain.

    Censoring on the boundary through first passages gives the stochastic
    boundary chain with stationary row y0; the forward recursion then builds
    unnormalized rows v_k = y0 V0_k + sum_{0<i<k} v_i V_{k-i} out of the visit
    blocks V0_j = (sum_{l>=j} B_{l+1} G^{l-j})(I - kernel)^{-1} and
    V_d = (sum_{l>=d} A_{l+1} G^{l-d})(I - kernel)^{-1}.  Summing the
    recursion over k gives the normalizer in closed form (Ramaswami 1988):
    tau = 1 / (y0 e + y0 W0 (I - W)^{-1} e) with W0 = sum_j V0_j and
    W = sum_d V_d.  Only rows 0 .. max(levels, balance window) - 1 are
    materialized; a balance miss beyond 1e-8 on the window raises SingularMatrix.
    """
    if model.kind != "MG1":
        raise ValidationError("mg1_stationary needs a MG1 model")
    a = list(model.a_blocks)
    b = list(model.b_blocks)
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
    kernel = np.zeros((m, m))
    power = eye
    for k in range(1, len(a)):
        kernel = kernel + a[k] @ power
        power = g @ power
    boundary_passage = solve_linear(eye - kernel, b[0])
    boundary_chain = b[1].copy()
    power = boundary_passage
    for k in range(2, len(b)):
        boundary_chain = boundary_chain + b[k] @ power
        power = g @ power
    stochastic_err = inf_norm(boundary_chain.sum(axis=1) - 1.0)
    if stochastic_err > 1e-6:
        raise SingularMatrix(
            f"censored boundary chain rows sum to 1 +/- {stochastic_err:.3e}"
        )
    y0 = stationary_row(boundary_chain, continuous=False)
    from_boundary = _visit_blocks(b[2:], g, kernel)
    between = _visit_blocks(a[2:], g, kernel)
    w0 = sum(from_boundary, np.zeros((m0, m)))
    w = sum(between, np.zeros((m, m)))
    tau = 1.0 / (float(y0.sum()) + float(y0 @ w0 @ solve_linear(eye - w, np.ones(m))))
    rows = [y0]
    for k in range(1, max(levels, _mg1_window(model))):
        row = y0 @ from_boundary[k - 1] if k <= len(from_boundary) else np.zeros(m)
        for i in range(max(1, k - len(between)), k):
            row = row + rows[i] @ between[k - i - 1]
        rows.append(row)
    x0 = tau * y0
    resid = _mg1_balance_residual(model, [tau * row for row in rows])
    if resid > 1e-8:
        raise SingularMatrix(f"stationary rows miss balance by {resid:.3e}")
    return Mg1Measures(
        passage=g,
        boundary_passage=_frozen(boundary_passage),
        local_kernel=_frozen(kernel),
        boundary_chain=_frozen(boundary_chain),
        drift=drift,
        boundary_visits=tuple(_frozen(v) for v in from_boundary),
        visits=tuple(_frozen(v) for v in between),
        visit_rows=tuple(_frozen(row) for row in rows),
        tau=tau,
        x0=_frozen(x0),
        iterations=solved.iterations,
        residual=solved.residual,
        stationarity_residual=resid,
    )


def _mg1_tail_heads(model: SkipFreeModel, measures: Mg1Measures, levels: int) -> list:
    """Tail rows by suffix-summing the forward recursion in closed form:
    pi_n (I - W_1) = tau (v_0 W0_n + sum_{i<n} v_i W_{n-i}), with W0 and W
    the suffix sums of the visit blocks; only the blocks' nonzero band is
    visited, and one solve serves every level."""
    w0 = _suffix_sums(list(measures.boundary_visits))
    between = measures.visits
    w = _suffix_sums(list(between)) if between else [np.zeros((model.m, model.m))]
    rows = measures.visit_rows
    accs = []
    for n in range(1, levels + 1):
        acc = rows[0] @ w0[n - 1] if n < len(w0) else np.zeros(model.m)
        for i in range(max(1, n - len(between)), n):
            acc = acc + rows[i] @ w[n - i - 1]
        accs.append(acc)
    if not accs:
        return []
    return list(measures.tau * solve_xa(np.eye(model.m) - w[0], np.array(accs)))


def mg1_tails(model: SkipFreeModel, levels: int, tol: float = 1e-12) -> TailSeries:
    """Iterative tails of an M/G/1-type chain: the stationary forward
    recursion, materialized to the requested depth and suffix-summed."""
    measures = mg1_stationary(model, tol=tol, levels=levels)
    heads = _mg1_tail_heads(model, measures, levels)
    report = {"levels_materialized": len(measures.visit_rows)}
    return TailSeries(heads, measures.x0, method="iterative", truncation_report=report)


def mg1_ul_tails(model: SkipFreeModel, levels: int, tol: float = 1e-12) -> TailSeries:
    """Factorization tails of an M/G/1-type chain.

    The tail system is solved directly: with suffix sums
    S_d = sum_{k>=d} A_k the tails obey
    pi_n = c_n + pi_1 S_n + sum_{i=2}^n pi_i A_{n-i+1} + pi_{n+1} A_0 with
    source c_n = x0 sum_{l>=n+1} B_l, handled backward through G and forward
    through the visit blocks of the S-shifted chain.  Each level visits only
    the nonzero band of those blocks.
    """
    measures = mg1_stationary(model, tol=tol)
    a = list(model.a_blocks)
    b = list(model.b_blocks)
    g, kernel = measures.passage, measures.local_kernel
    m = model.m
    eye = np.eye(m)
    tail_a = _suffix_sums(a)
    shifted_chain = tail_a[1].copy()
    power = eye
    for k in range(2, len(a)):
        power = power @ g
        shifted_chain = shifted_chain + tail_a[k] @ power
    tail_b = _suffix_sums(b[2:])
    backward = [measures.x0 @ tail_b[j] for j in range(len(b) - 1)]
    for j in range(len(backward) - 2, -1, -1):
        backward[j] = backward[j] + backward[j + 1] @ g
    shifted_visits = _visit_blocks(tail_a[2:], g, kernel)
    up_visits = measures.visits
    pis = []
    for n in range(1, levels + 1):
        if n == 1:
            pis.append(solve_xa(eye - shifted_chain, backward[0]))
            continue
        acc = solve_xa(eye - kernel, backward[n - 1]) if n <= len(backward) else np.zeros(m)
        if n - 1 <= len(shifted_visits):
            acc = acc + pis[0] @ shifted_visits[n - 2]
        for i in range(max(2, n - len(up_visits)), n):
            acc = acc + pis[i - 1] @ up_visits[n - i - 1]
        pis.append(acc)
    head_iter = _mg1_tail_heads(model, measures, 1)[0]
    report = {"identity_residual": inf_norm(pis[0] - head_iter) if pis else 0.0}
    return TailSeries(pis, measures.x0, method="ul-rg", truncation_report=report)
