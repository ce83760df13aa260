"""Cross-check solver that truncates a chain and solves it as a scalar chain.

Every structured solver in this package exploits the block pattern of its
model.  This module deliberately does not: it materializes the generator or
kernel up to a truncation level, repairs the last row so probability is
conserved, and solves the finite system state by state with GTH state
reduction (matkernel.stationary_row).  Agreement between the two is then
evidence for both, since they share no intermediate quantities.  The
reduction has no subtractions, so the oracle's tails keep their relative
accuracy deep into the tail, where they are far below machine epsilon; it
works inside the band of the assembled matrix, so a block-tridiagonal chain
costs time linear in its state count.  Assembly stays dense, hence
MAX_STATES.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeLimit
from .ldqbd import LdQbdModel
from .matkernel import stationary_row
from .qbd import QbdModel
from .series import TailSeries
from .skipfree import SkipFreeModel

MAX_STATES = 5000


def _offsets(m0: int, m: int, levels: int):
    def start(level):
        return 0 if level == 0 else m0 + (level - 1) * m
    return start


def _assemble_ld(model, levels: int) -> np.ndarray:
    m0 = model.block_at("A1", 0).shape[0]
    m = model.block_at("A1", 1).shape[0]
    start = _offsets(m0, m, levels)
    n = start(levels) + m
    q = np.zeros((n, n))
    q[: m0, : m0] = model.block_at("A1", 0)
    q[: m0, m0 : m0 + m] = model.block_at("A0", 0)
    for k in range(1, levels + 1):
        row = slice(start(k), start(k) + m)
        width = m0 if k == 1 else m
        q[row, start(k - 1) : start(k - 1) + width] = model.block_at("A2", k)
        diag = model.block_at("A1", k)
        if k == levels:
            diag = diag + model.block_at("A0", k)
        q[row, start(k) : start(k) + m] = diag
        if k < levels:
            q[row, start(k + 1) : start(k + 1) + m] = model.block_at("A0", k)
    return q


def _assemble_gim1(model: SkipFreeModel, levels: int) -> np.ndarray:
    a, b = model.a_blocks, model.b_blocks
    m0, m = model.m0, model.m
    start = _offsets(m0, m, levels)
    n = start(levels) + m
    p = np.zeros((n, n))
    p[: m0, : m0] = b[1]
    p[: m0, m0 : m0 + m] = b[0]
    for k in range(1, levels + 1):
        row = slice(start(k), start(k) + m)
        if k + 1 < len(b):
            p[row, : m0] = b[k + 1]
        for j in range(max(1, k + 1 - len(a) + 1), k + 1):
            p[row, start(j) : start(j) + m] = a[k + 1 - j]
        if k < levels:
            p[row, start(k + 1) : start(k + 1) + m] = a[0]
        else:
            p[row, start(k) : start(k) + m] += a[0]
    return p


def _assemble_mg1(model: SkipFreeModel, levels: int) -> np.ndarray:
    a, b = model.a_blocks, model.b_blocks
    m0, m = model.m0, model.m
    start = _offsets(m0, m, levels)
    n = start(levels) + m
    p = np.zeros((n, n))
    p[: m0, : m0] = b[1]
    for c in range(1, min(levels, len(b) - 1)):
        p[: m0, start(c) : start(c) + m] = b[c + 1]
    overflow = sum((b[l] for l in range(levels + 1, len(b))),
                   np.zeros((m0, m)))
    p[: m0, start(levels) : start(levels) + m] = overflow
    # tails[j] = a[j] + a[j+1] + ...: what a row j - 1 levels below the
    # top sends to the top level or past it
    tails = [np.zeros((m, m))]
    for blk in reversed(a):
        tails.append(blk + tails[-1])
    tails.reverse()
    for k in range(1, levels + 1):
        row = slice(start(k), start(k) + m)
        if k == 1:
            p[row, : m0] = b[0]
        else:
            p[row, start(k - 1) : start(k - 1) + m] = a[0]
        for c in range(k, min(levels, k + len(a) - 1)):
            p[row, start(c) : start(c) + m] = a[c - k + 1]
        p[row, start(levels) : start(levels) + m] += tails[min(levels - k + 1, len(a))]
    return p


def truncate_and_solve(model, levels: int) -> TailSeries:
    """Stationary tails of the chain truncated at `levels`.

    The last level absorbs its own upward flow (block chains) or the summed
    overflow of each row (M/G/1 structures), keeping the finite system
    conservative.  The report's error_estimate is the mass the solver parked
    on the truncation level, which bounds how much the tails can be off; it
    shrinks geometrically as `levels` grows for any stable chain.
    """
    if isinstance(model, QbdModel):
        model = LdQbdModel.from_qbd(model, 2)
    if isinstance(model, LdQbdModel):
        m0, m = model.m0, model.m
        assemble, continuous = _assemble_ld, True
    elif isinstance(model, SkipFreeModel):
        m0, m = model.m0, model.m
        assemble = _assemble_gim1 if model.kind == "GIM1" else _assemble_mg1
        continuous = False
    else:
        raise TypeError(f"no truncation rule for {type(model).__name__}")
    if m0 + levels * m > MAX_STATES:
        raise SizeLimit(
            f"{m0 + levels * m} states exceeds the dense limit {MAX_STATES}"
        )
    x = stationary_row(assemble(model, levels), continuous=continuous)
    x0 = x[:m0]
    rows = [x[m0 + (k - 1) * m : m0 + k * m] for k in range(1, levels + 1)]
    pis = [np.zeros(m) for _ in range(levels)]
    suffix = np.zeros(m)
    for k in range(levels, 0, -1):
        suffix = suffix + rows[k - 1]
        pis[k - 1] = suffix
    report = {"levels": levels, "error_estimate": float(rows[-1].sum())}
    return TailSeries(pis, x0, method="truncated-oracle", truncation_report=report)
