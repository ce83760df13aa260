"""Exact stationary laws of the benchmark's chains, computed without mctails.

Every chain the benchmark solves has a level process that ignores the phase,
or is a retrial queue with a product-form law, so its stationary vector is
known in closed form:

* the M/M/1 queue and a phase-modulated M/M/1 QBD,
  x_j = (1 - rho) rho^j theta;
* a scalar GI/M/1 walk that falls by at most two levels per step,
  x_j = (1 - sigma) sigma^j with sigma the root in (0, 1) of its
  characteristic polynomial;
* a scalar M/G/1 walk that climbs by at most two levels per step,
  x_j = C (z+^(j+1) - z-^(j+1)) with z+ and z- the two roots of its
  characteristic polynomial other than 1, and its phase-modulated version
  x_j theta;
* the single-server retrial queue, by the classical product form (Falin and
  Templeton, Retrial Queues, 1997), for any level-dependent retrial rate.

theta is the stationary vector of the independent phase process.  Scalar
laws are evaluated in 50-digit decimal arithmetic from the exact values of
the float parameters handed to the solver, so near rho = 1 the small
quantities 1 - rho and 1 - sigma carry no cancellation error.  Results are
``Law`` objects: the level-0 vector and the tail vectors
pi_k = sum_{j >= k} x_j for k = 1..levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

DIGITS = 50


@dataclass(frozen=True)
class Law:
    """Stationary boundary vector and tail vectors of levels 1..levels."""

    x0: np.ndarray
    tails: np.ndarray  # tails[k - 1] is pi_k


def phase_vector(matrix, continuous: bool) -> np.ndarray:
    """Stationary row of a generator (theta T = 0) or a stochastic matrix
    (theta P = theta), by a dense numpy solve with one balance equation
    replaced by the normalization."""
    m = np.asarray(matrix, dtype=float)
    balance = m if continuous else m - np.eye(m.shape[0])
    system = balance.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(m.shape[0])
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def _kron(scalar_x0: Decimal, scalar_tails: list, theta: np.ndarray) -> Law:
    x0 = float(scalar_x0) * theta
    tails = np.array([float(t) * theta for t in scalar_tails])
    return Law(x0, tails)


def _small_root(a: Decimal, b: Decimal, c: Decimal) -> Decimal:
    """Root of a d^2 - b d + c = 0 nearest zero, for b > 0, without
    cancellation: 2c / (b + sqrt(b^2 - 4ac))."""
    return 2 * c / (b + (b * b - 4 * a * c).sqrt())


def mm1_law(rho: float, levels: int, theta=None) -> Law:
    """M/M/1 with load rho (arrival rate rho, service rate one), optionally
    modulated by an independent phase process with stationary vector theta:
    x_0 = (1 - rho) theta, pi_k = rho^k theta."""
    theta = np.ones(1) if theta is None else np.asarray(theta, dtype=float)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        r = Decimal(rho)
        return _kron(1 - r, [r ** k for k in range(1, levels + 1)], theta)


def gim1_walk_law(up: float, down1: float, down2: float, levels: int) -> Law:
    """Scalar walk that rises by one with probability ``up`` and falls by one
    or two with ``down1`` and ``down2``; moves below level 0 stop at 0.

    x_j = (1 - sigma) sigma^j, where sigma = 1 - delta and delta is the
    small root of down2 d^2 - (3 down2 + down1) d + (down1 + 2 down2 - up),
    the characteristic polynomial sigma = up + stay sigma + down1 sigma^2
    + down2 sigma^3 with its root at 1 divided out.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        p, q1, q2 = Decimal(up), Decimal(down1), Decimal(down2)
        delta = _small_root(q2, 3 * q2 + q1, q1 + 2 * q2 - p)
        sigma = 1 - delta
        return _kron(delta, [sigma ** k for k in range(1, levels + 1)], np.ones(1))


def mg1_walk_law(down: float, up1: float, up2: float, levels: int,
                 theta=None) -> Law:
    """Scalar walk that falls by one with probability ``down`` and rises by
    one or two with ``up1`` and ``up2``; at level 0 a fall is a stay.
    Optionally modulated by an independent phase chain with stationary
    vector theta.

    For j >= 1 the balance equations are the recurrence with characteristic
    polynomial down z^3 - (down + up1 + up2) z^2 + up1 z + up2
    = (z - 1)(down z^2 - (up1 + up2) z - up2).  With z+ in (0, 1) and z- in
    (-1, 0) the two roots of the quadratic, x_j = C (z+^(j+1) - z-^(j+1)),
    which vanishes at j = -1 as the level-1 equation needs, and C normalizes.
    1 - z+ is taken as the small root of the quadratic in d = 1 - z.
    """
    theta = np.ones(1) if theta is None else np.asarray(theta, dtype=float)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        q, p1, p2 = Decimal(down), Decimal(up1), Decimal(up2)
        delta = _small_root(q, 2 * q - p1 - p2, q - p1 - 2 * p2)
        zp = 1 - delta
        zm = -p2 / (q * zp)
        scale = 1 / (zp / delta - zm / (1 - zm))
        x0 = scale * (zp - zm)
        tails = [scale * (zp ** (k + 1) / delta - zm ** (k + 1) / (1 - zm))
                 for k in range(1, levels + 1)]
        return _kron(x0, tails, theta)


def retrial_law(lam: float, mu: float, theta: float, levels: int,
                horizon: int | None = None) -> Law:
    """Single-server retrial queue, orbit size as level, phases (busy, idle).

    With total retrial rate r_n at orbit size n, the idle balance
    p_busy(n) mu = p_idle(n) (lam + r_n) and the cut balance
    lam p_busy(n) = r_{n+1} p_idle(n + 1) give the law level by level
    (Falin and Templeton 1997); the classical queue has r_n = n theta.  With
    ``horizon`` H the rates freeze at r_n = H theta for n >= H, as in a
    level-dependent chain tabulated up to H, and the law is geometric from
    there on.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lam_d, mu_d, theta_d = Decimal(lam), Decimal(mu), Decimal(theta)

        def rate(n):
            return theta_d * (n if horizon is None else min(n, horizon))

        idle = [Decimal(1)]
        busy = [lam_d / mu_d]
        top = levels if horizon is None else max(levels, horizon)
        n = 0
        while True:
            nxt = lam_d * busy[n] / rate(n + 1)
            if n + 1 > top and nxt < Decimal(10) ** (-DIGITS + 5) * idle[top]:
                break
            idle.append(nxt)
            busy.append(nxt * (lam_d + rate(n + 1)) / mu_d)
            n += 1
            if horizon is not None and n == top:
                break
        beyond_idle = beyond_busy = Decimal(0)
        if horizon is not None:
            ratio = lam_d * (lam_d + rate(horizon)) / (mu_d * rate(horizon))
            beyond_idle = idle[-1] * ratio / (1 - ratio)
            beyond_busy = busy[-1] * ratio / (1 - ratio)
        tail_busy, tail_idle = [beyond_busy], [beyond_idle]
        for j in range(len(idle) - 1, -1, -1):
            tail_busy.append(tail_busy[-1] + busy[j])
            tail_idle.append(tail_idle[-1] + idle[j])
        tail_busy.reverse()
        tail_idle.reverse()
        total = tail_busy[0] + tail_idle[0]
        x0 = np.array([float(busy[0] / total), float(idle[0] / total)])
        tails = np.array([[float(tail_busy[k] / total), float(tail_idle[k] / total)]
                          for k in range(1, levels + 1)])
        return Law(x0, tails)
