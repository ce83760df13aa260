"""Level-dependent quasi-birth-death chains.

Blocks may vary with the level up to a finite horizon and are frozen beyond
it, so the chain is eventually level-independent.  Two tail routes are
provided: a matrix-product accumulation driven by the level-dependent rate
sequence R_l, and a forward LU-type factorization of the generator restricted
to levels one and above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingularMatrix, ValidationError
from .matkernel import _frozen, as_matrix, inf_norm, inverse, solve_xa, stationary_row
from .qbd import ROWSUM_TOL, QbdModel, require_stable, solve_R
from .series import TailSeries


@dataclass(frozen=True)
class LdQbdModel:
    """Generator with level-varying tridiagonal blocks, frozen past `horizon`.

    up[k] is the flow from level k to k+1 (k = 0..horizon), diag[k] the local
    block at level k, down[k] the flow from level k to k-1 (k = 1..horizon).
    Level 0 may have a different width than the repeating levels.  Requests
    beyond the horizon clamp to the last stored block.
    """

    up: tuple
    diag: tuple
    down: tuple

    def __post_init__(self):
        if len(self.diag) < 2:
            raise ValidationError("need blocks for level 0 and at least one level above")
        if len(self.up) != len(self.diag):
            raise ValidationError("A0 and A1 must list the same levels 0..J")
        if len(self.down) != len(self.diag) - 1:
            raise ValidationError("A2 lists levels 1..J, one entry fewer than A1")
        up = [as_matrix(a, f"A0({k})") for k, a in enumerate(self.up)]
        diag = [as_matrix(a, f"A1({k})") for k, a in enumerate(self.diag)]
        down = [as_matrix(a, f"A2({k + 1})") for k, a in enumerate(self.down)]
        m0 = diag[0].shape[0]
        m = diag[1].shape[0]
        if m0 != m and len(diag) < 3:
            raise ValidationError(
                "a distinct boundary width needs at least two levels above it"
            )
        for k, blk in enumerate(diag):
            want = (m0, m0) if k == 0 else (m, m)
            if blk.shape != want:
                raise ValidationError(f"A1({k}): expected shape {want}")
            off = blk - np.diag(np.diag(blk))
            if np.any(off < 0) or np.any(np.diag(blk) > 0):
                raise ValidationError(f"A1({k}): wrong sign pattern for a diagonal block")
        for k, blk in enumerate(up):
            want = (m0, m) if k == 0 else (m, m)
            if blk.shape != want:
                raise ValidationError(f"A0({k}): expected shape {want}")
            if np.any(blk < 0):
                raise ValidationError(f"A0({k}): negative entry")
        for k, blk in enumerate(down):
            want = (m, m0) if k == 0 else (m, m)
            if blk.shape != want:
                raise ValidationError(f"A2({k + 1}): expected shape {want}")
            if np.any(blk < 0):
                raise ValidationError(f"A2({k + 1}): negative entry")
        rowsum = diag[0].sum(axis=1) + up[0].sum(axis=1)
        if inf_norm(rowsum) > ROWSUM_TOL:
            raise ValidationError("level-0 row sums are not zero")
        for k in range(1, len(diag)):
            rowsum = down[k - 1].sum(axis=1) + diag[k].sum(axis=1) + up[k].sum(axis=1)
            if inf_norm(rowsum) > ROWSUM_TOL:
                raise ValidationError(f"level-{k} row sums are not zero")
        object.__setattr__(self, "up", tuple(_frozen(a) for a in up))
        object.__setattr__(self, "diag", tuple(_frozen(a) for a in diag))
        object.__setattr__(self, "down", tuple(_frozen(a) for a in down))

    @property
    def horizon(self) -> int:
        return len(self.diag) - 1

    @property
    def m0(self) -> int:
        return self.diag[0].shape[0]

    @property
    def m(self) -> int:
        return self.diag[1].shape[0]

    def block_at(self, name: str, level: int) -> np.ndarray:
        """Block of the given kind at a level, clamped past the horizon."""
        h = self.horizon
        if name == "A0":
            return self.up[min(level, h)]
        if name == "A1":
            return self.diag[min(level, h)]
        if name == "A2":
            if level < 1:
                raise ValidationError("A2 blocks start at level 1")
            return self.down[min(level, h) - 1]
        raise ValidationError(f"unknown block kind {name!r}")

    @classmethod
    def from_qbd(cls, model: QbdModel, horizon: int) -> "LdQbdModel":
        """Embed a level-independent chain, repeating its blocks to `horizon`."""
        if horizon < 2:
            raise ValidationError("horizon must be at least 2")
        up = [model.b0] + [model.a0] * horizon
        diag = [model.b1] + [model.a1] * horizon
        down = [model.b2] + [model.a2] * (horizon - 1)
        return cls(tuple(up), tuple(diag), tuple(down))

    @classmethod
    def from_rule(cls, up_fn, diag_fn, down_fn, horizon: int) -> "LdQbdModel":
        """Tabulate per-level callables up to the horizon."""
        if horizon < 1:
            raise ValidationError("horizon must be at least 1")
        up = tuple(up_fn(k) for k in range(horizon + 1))
        diag = tuple(diag_fn(k) for k in range(horizon + 1))
        down = tuple(down_fn(k) for k in range(1, horizon + 1))
        return cls(up, diag, down)


@dataclass(frozen=True)
class RateSequence:
    """Level-dependent rate matrices, x_{l+1} = x_l R_l, for l = 0..horizon."""

    matrices: tuple
    residuals: tuple
    backward_sweeps: int


@dataclass(frozen=True)
class LdMeasures:
    """Forward-factorization blocks over a window of levels starting at 1."""

    psis: tuple
    up_blocks: tuple
    down_blocks: tuple


def solve_rate_sequence(model: LdQbdModel, tol: float = 1e-12) -> RateSequence:
    """Rate sequence R_l = -A0(l) [A1(l+1) + R_{l+1} A2(l+2)]^{-1}.

    R at the horizon comes from the level-independent solve on the frozen
    blocks and is already the fixed point there, so one backward pass fills
    the rest.
    """
    h = model.horizon
    rs: list = [None] * (h + 1)
    rs[h] = solve_R(model.block_at("A0", h), model.block_at("A1", h),
                    model.block_at("A2", h), tol=tol).matrix
    for l in range(h - 1, -1, -1):
        pivot = model.block_at("A1", l + 1) + rs[l + 1] @ model.block_at("A2", l + 2)
        rs[l] = solve_xa(pivot, -model.block_at("A0", l))
    residuals = []
    for l in range(0, h - 1):
        res = (model.block_at("A0", l) + rs[l] @ model.block_at("A1", l + 1)
               + rs[l] @ rs[l + 1] @ model.block_at("A2", l + 2))
        residuals.append(inf_norm(res))
    return RateSequence(tuple(_frozen(r) for r in rs), tuple(residuals), 1)


def stationary_product(model: LdQbdModel, rates: RateSequence, levels: int,
                       tol: float = 1e-14, max_terms: int = 100000) -> TailSeries:
    """Tails by accumulating the matrix products x_{j+1} = x_j R_j.

    The level-0 row is the stationary vector of the censored boundary block
    A1(0) + R_0 A2(1); products continue with the frozen horizon matrix until
    the running row norm drops below tol, then everything is normalized and
    suffix-summed.
    """
    h = model.horizon
    rs = rates.matrices
    require_stable(rs[h])
    censored = model.block_at("A1", 0) + rs[0] @ model.block_at("A2", 1)
    v = stationary_row(censored)
    rows = []
    w = v
    total = float(v.sum())
    for j in range(max_terms):
        w = w @ rs[min(j, h)]
        rows.append(w)
        total += float(w.sum())
        if inf_norm(w) < tol:
            break
    else:
        raise NoConvergence(f"level products still above {tol:.1e} after {max_terms} terms")
    kappa = 1.0 / total
    x0 = kappa * v
    pis = [np.zeros(model.m) for _ in range(levels)]
    suffix = np.zeros(model.m)
    for j in range(len(rows), 0, -1):
        suffix = suffix + kappa * rows[j - 1]
        if j <= levels:
            pis[j - 1] = suffix
    report = {"terms": len(rows), "last_row_norm": kappa * inf_norm(rows[-1]),
              "series_tol": tol}
    return TailSeries(pis, x0, method="matrix-product", truncation_report=report)


def lu_measures(model: LdQbdModel, count: int) -> LdMeasures:
    """Forward elimination over levels 1..count of the generator with level 0
    removed: Psi_0 = A1(1), then Psi_k = A1(k+1) + Rk A0(k) with up factor
    Rk = A2(k+1) (-Psi_{k-1})^{-1} and down factor Gk-1 = (-Psi_{k-1})^{-1} A0(k).
    """
    if count < 2:
        raise ValidationError("need a window of at least two levels")
    psis = [model.block_at("A1", 1)]
    ups: list = []
    downs: list = []
    for k in range(1, count):
        minv = inverse(-psis[k - 1])
        if np.min(minv) < -1e-9:
            raise SingularMatrix(f"window level {k}: pivot inverse has negative entries")
        up_k = model.block_at("A2", k + 1) @ minv
        downs.append(minv @ model.block_at("A0", k))
        psis.append(model.block_at("A1", k + 1) + up_k @ model.block_at("A0", k))
        ups.append(up_k)
    return LdMeasures(tuple(psis), tuple(ups), tuple(downs))


def _apply_inverse(measures: LdMeasures, rows: list) -> list:
    """Row-block solve t M = w through the factored window generator M."""
    n = len(measures.psis)
    forward = [None] * n
    forward[0] = rows[0]
    for i in range(1, n):
        forward[i] = rows[i] + forward[i - 1] @ measures.down_blocks[i - 1]
    middle = [solve_xa(measures.psis[i], forward[i]) for i in range(n)]
    out = [None] * n
    out[n - 1] = middle[n - 1]
    for i in range(n - 2, -1, -1):
        out[i] = middle[i] + out[i + 1] @ measures.up_blocks[i]
    return out


def tails_lu_ld(model: LdQbdModel, x0, levels: int) -> TailSeries:
    """Tails through the forward factorization of the level-1-and-up generator.

    The window spans levels 1 up to the horizon plus one, widened as needed
    so every requested level sits well below its edge (blocks repeat out
    there, and the edge is where the cut-off mass re-enters).  The
    stationary rows on the window solve t M = -(x0 A0(0), 0, ...) by one
    pass through the factors, and the tails are their suffix sums over the
    window, so the work is linear in its width.  The report carries the
    window width as `terms` and the inf-norm of the edge row, the mass the
    cut leaves out.
    """
    x0 = np.asarray(x0, dtype=float)
    n = max(model.horizon + 1, levels + 20)
    measures = lu_measures(model, n)
    source = [x0 @ model.block_at("A0", 0)] + [np.zeros(model.m) for _ in range(n - 1)]
    rows = _apply_inverse(measures, source)
    tails = [None] * n
    tail = np.zeros(model.m)
    for i in range(n - 1, -1, -1):
        tail = tail - rows[i]
        tails[i] = tail
    report = {"terms": n, "edge_row_norm": inf_norm(rows[-1])}
    return TailSeries(tails[:levels], x0, method="lu-rg", truncation_report=report)
