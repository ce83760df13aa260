"""Closed-form and semi-closed-form tail solvers for specific queues.

Each model here admits either an explicit stationary distribution or a short
recursion for the tail vectors, which makes them reference points for the
generic block solvers.  Where a generic assembly exists (vacation and
repairable queues map to level-independent blocks, the retrial queue to
level-dependent ones) a companion function builds it so the routes can be
played against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Divergent, StepUnstable, TruncationFailure, Unstable, ValidationError
from .ldqbd import LdQbdModel
from .matkernel import _powers, inf_norm, solve_xa
from .qbd import QbdModel, solve_R
from .series import TailSeries


def _require_positive(value: float, name: str) -> float:
    value = float(value)
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class RetrialParams:
    """Single-server queue whose blocked arrivals retry from an orbit.

    lam is the arrival rate, mu the service rate, theta the per-customer
    retrial rate.  Stable when lam < mu.
    """

    lam: float
    mu: float
    theta: float

    def __post_init__(self):
        _require_positive(self.lam, "lam")
        _require_positive(self.mu, "mu")
        _require_positive(self.theta, "theta")

    @property
    def rho(self) -> float:
        return self.lam / self.mu


@dataclass(frozen=True)
class VacationParams:
    """M/M/1 queue with multiple vacations, service rate scaled to one.

    lam is the arrival rate (utilization), theta the rate of returning from
    vacation.  Stable when lam < 1.
    """

    lam: float
    theta: float

    def __post_init__(self):
        _require_positive(self.lam, "lam")
        _require_positive(self.theta, "theta")
        if self.lam >= 1:
            raise Unstable(f"utilization {self.lam} is not below 1")


@dataclass(frozen=True)
class RepairableParams:
    """M/M/1 queue whose busy server fails at rate alpha and is repaired at
    rate beta; lam and mu are the arrival and service rates."""

    lam: float
    mu: float
    alpha: float
    beta: float

    def __post_init__(self):
        _require_positive(self.lam, "lam")
        _require_positive(self.mu, "mu")
        _require_positive(self.alpha, "alpha")
        _require_positive(self.beta, "beta")

    @property
    def load(self) -> float:
        return (self.lam / self.mu) * (1.0 + self.alpha / self.beta)


def retrial_chain(params: RetrialParams, horizon: int) -> LdQbdModel:
    """Level-dependent generator of the retrial queue, orbit size as level,
    phases (busy, idle)."""
    lam, mu, theta = params.lam, params.mu, params.theta

    def up(k):
        return np.array([[lam, 0.0], [0.0, 0.0]])

    def diag(k):
        retry = k * theta
        return np.array([[-(lam + mu), mu], [lam, -(lam + retry)]])

    def down(k):
        return np.array([[0.0, 0.0], [k * theta, 0.0]])

    return LdQbdModel.from_rule(up, diag, down, horizon)


def _retrial_series(params: RetrialParams, horizon: int, levels: int) -> list:
    """Tail rows pi_0..pi_levels by the backward horizon recursion.

    Summing the balance equations over levels j >= k couples pi_{k-1}, pi_k,
    pi_{k+1} and the remaining suffix sum through four fixed blocks; closing
    the recursion at the horizon with zero matrices and sweeping down yields
    per-level ratio matrices r_k with pi_{k+1} = pi_k r_k.
    """
    lam, mu, theta = params.lam, params.mu, params.theta
    rho = params.rho
    push = np.array([[lam, 0.0], [0.0, 0.0]])
    drain = np.array([[0.0, 0.0], [theta, -theta]])
    eye = np.eye(2)

    def local(k):
        return np.array([[-(lam + mu), mu], [lam, -(lam + k * theta)]])

    def from_above(k):
        return np.array([[0.0, 0.0], [k * theta, -theta]])

    ratios = [None] * (horizon + 1)
    r_up = np.zeros((2, 2))
    v_up = np.zeros((2, 2))
    for k in range(horizon, 0, -1):
        pivot = local(k + 1) + r_up @ (from_above(k + 2) + v_up @ drain)
        r_k = solve_xa(pivot, -push)
        v_up = r_up @ (eye + v_up)
        r_up = r_k
        ratios[k] = r_k
    censored = local(1) + r_up @ (from_above(2) + v_up @ drain)
    head = np.array([rho, 1.0 - rho])
    pis = [head]
    if levels >= 1:
        pis.append(solve_xa(-censored, head @ push))
        for k in range(2, levels + 1):
            pis.append(pis[-1] @ ratios[k - 1])
    return pis


def retrial_tails(params: RetrialParams, levels: int,
                  horizon: int = 200) -> TailSeries:
    """Tail vectors of the retrial queue over orbit sizes 0..levels.

    The backward recursion is rerun at half the horizon; if the two runs
    disagree beyond 1e-9 the horizon was too short and the solve fails rather
    than return drifted numbers.
    """
    if params.rho >= 1.0:
        raise Unstable(f"utilization {params.rho} is not below 1")
    span = max(horizon, 2 * levels + 20)
    pis = _retrial_series(params, span, levels)
    halved = _retrial_series(params, span // 2, levels)
    delta = max(inf_norm(a - b) for a, b in zip(pis, halved))
    if delta > 1e-9:
        raise TruncationFailure(
            f"horizon self-check moved by {delta:.3e}; raise the horizon"
        )
    report = {"horizon": span, "halved_horizon_delta": delta}
    return TailSeries(pis, None, method="matrix-product",
                      truncation_report=report, first_level=0)


def mn_mn_1_tails(arrival, service, levels: int) -> TailSeries:
    """Tails of a birth-death queue with state-dependent rates.

    arrival[k] drives level k to k+1 and service[k-1] drives k to k-1; either
    argument may be a scalar or a list, the last entry repeating forever.
    The product terms t_k = prod arrival[j-1]/service[j-1] are built up to
    n = max(levels, len(arrival), len(service)).  Past n both rates are
    frozen, so the terms go on geometrically with q = arrival[-1]/service[-1]
    and sum to t_n q/(1 - q) there.  If q >= 1 while t_n > 0 that sum
    diverges: the chain has no stationary distribution and the solve raises
    Divergent.
    """
    arrivals = [float(x) for x in (arrival if np.ndim(arrival) else [arrival])]
    services = [float(x) for x in (service if np.ndim(service) else [service])]
    if any(x < 0 for x in arrivals) or any(x <= 0 for x in services):
        raise ValidationError("arrival rates must be >= 0 and service rates > 0")

    def rate(seq, k):
        return seq[k] if k < len(seq) else seq[-1]

    n = max(levels, len(arrivals), len(services))
    terms = []
    t = 1.0
    for k in range(n):
        t *= rate(arrivals, k) / rate(services, k)
        terms.append(t)
    q = arrivals[-1] / services[-1]
    if t > 0 and q >= 1:
        raise Divergent(f"rates freeze at load {q:.6g}, not below 1; the queue is not ergodic")
    remainder = t * q / (1.0 - q) if t > 0 else 0.0
    tails = np.cumsum([remainder] + terms[::-1])[:0:-1]
    norm = 1.0 + tails[0]
    pis = [np.array([1.0])] + [np.array([x / norm]) for x in tails[:levels]]
    return TailSeries(pis, None, method="closed-form",
                      truncation_report={"terms": n}, first_level=0)


def mnmn1_chain(arrival, service) -> LdQbdModel:
    """Birth-death generator matching the rates of ``mn_mn_1_tails``, rates
    repeating their last entry forever."""
    arr = list(arrival) if isinstance(arrival, list) else [float(arrival)]
    srv = list(service) if isinstance(service, list) else [float(service)]

    def lam(k):
        return arr[min(k, len(arr) - 1)]

    def mu(k):
        return srv[min(k - 1, len(srv) - 1)]

    def up(k):
        return np.array([[lam(k)]])

    def diag(k):
        out = lam(k) + (mu(k) if k >= 1 else 0.0)
        return np.array([[-out]])

    def down(k):
        return np.array([[mu(k)]])

    horizon = max(len(arr), len(srv)) + 2
    return LdQbdModel.from_rule(up, diag, down, horizon)


def vacation_qbd(params: VacationParams) -> QbdModel:
    """Level-independent blocks of the vacation queue, phases (vacation,
    serving), one boundary state (empty and on vacation)."""
    lam, theta = params.lam, params.theta
    return QbdModel(
        b1=np.array([[-lam]]),
        b0=np.array([[lam, 0.0]]),
        b2=np.array([[0.0], [1.0]]),
        a0=lam * np.eye(2),
        a1=np.array([[-(lam + theta), theta], [0.0, -(lam + 1.0)]]),
        a2=np.array([[0.0, 0.0], [0.0, 1.0]]),
    )


def vacation_tails(params: VacationParams, levels: int) -> TailSeries:
    """Tail vectors of the vacation queue over levels 0..levels.

    The vacation phase is geometric, pi_V,k = (lam/(lam+theta))^k (1-lam).
    The serving phase starts from pi_W,1 = lam and
    pi_W,2 = lam - lam theta (1-lam)/(lam+theta), then follows the three-term
    recursion produced by summing the balance equations.  A one-shot closed
    form for pi_W,k circulates alongside this recursion; it disagrees with
    the recursion from level 3 on, so it is only evaluated into the report,
    never returned.
    """
    lam, theta = params.lam, params.theta
    decay = lam / (lam + theta)
    vac = [(decay ** k) * (1.0 - lam) for k in range(levels + 1)]
    srv = [lam, lam]
    if levels >= 2:
        srv.append(lam - lam * theta * (1.0 - lam) / (lam + theta))
    for k in range(3, levels + 1):
        srv.append(srv[k - 1] - lam * (srv[k - 2] - srv[k - 1]) - theta * vac[k - 1])
    gap = 0.0
    for k in range(2, levels + 1):
        alt = lam ** k + (1.0 - lam) * (lam * lam / theta) * (1.0 - decay ** (k - 1))
        gap = max(gap, abs(alt - srv[k]))
    pis = [np.array([vac[k], srv[k]]) for k in range(levels + 1)]
    report = {"alternative_form_max_gap": gap}
    return TailSeries(pis, None, method="closed-form",
                      truncation_report=report, first_level=0)


def repairable_qbd(params: RepairableParams) -> QbdModel:
    """Level-independent blocks of the repairable-server queue, phases
    (serving, under repair), one boundary state (empty, server up)."""
    lam, mu, alpha, beta = params.lam, params.mu, params.alpha, params.beta
    return QbdModel(
        b1=np.array([[-lam]]),
        b0=np.array([[lam, 0.0]]),
        b2=np.array([[mu], [0.0]]),
        a0=lam * np.eye(2),
        a1=np.array([[-(lam + mu + alpha), alpha], [beta, -(lam + beta)]]),
        a2=np.array([[mu, 0.0], [0.0, 0.0]]),
    )


def repairable_tails(params: RepairableParams, levels: int) -> TailSeries:
    """Tail vectors of the repairable-server queue over levels 0..levels.

    The boundary values are exact: pi_W,0 = 1 - (lam/mu)(alpha/beta),
    pi_W,1 = lam/mu and pi_R,1 = (lam/mu)(alpha/beta).  This iterative route
    continues with two coupled scalar recursions.
    """
    lam, mu, alpha, beta = params.lam, params.mu, params.alpha, params.beta
    if params.load >= 1.0:
        raise Unstable(f"effective load {params.load} is not below 1")
    ratio = lam / mu
    repair_share = alpha / beta
    srv = [1.0 - ratio * repair_share, ratio]
    rep = [ratio * repair_share, ratio * repair_share]
    for k in range(2, levels + 1):
        srv.append(((lam + mu + alpha) / mu) * srv[k - 1]
                   - (lam / mu) * srv[k - 2]
                   - (beta / mu) * rep[k - 1])
        rep.append((alpha / (lam + beta)) * srv[k]
                   + (lam / (lam + beta)) * rep[k - 1])
    pis = [np.array([srv[k], rep[k]]) for k in range(levels + 1)]
    return TailSeries(pis, None, method="iterative", first_level=0)


def repairable_mg_tails(params: RepairableParams, levels: int) -> TailSeries:
    """Matrix-geometric tails of the repairable-server queue over levels
    0..levels: the exact rows of levels 0 and 1 from ``repairable_tails``,
    then a fixed head row applied to the powers of the rate matrix of the
    upward blocks."""
    lam, mu = params.lam, params.mu
    pis = repairable_tails(params, 1).pis
    chain = repairable_qbd(params)
    rate = solve_R(chain.a0, chain.a1, chain.a2).matrix
    censored = chain.a1 + rate @ chain.a2
    head = solve_xa(-censored, np.array([lam * lam / mu,
                                         (lam * lam / mu) * (params.alpha / params.beta)]))
    pis += _powers(head, rate, levels - 1)
    return TailSeries(pis[: levels + 1], None, method="matrix-geometric",
                      first_level=0)


def supermarket_tail(rho: float, d: int, k: int) -> float:
    """Fraction of queues with length >= k in the mean-field limit of
    join-the-shortest-of-d sampling: rho to the power (d^k - 1)/(d - 1)."""
    if not 0 < rho < 1:
        raise ValidationError(f"rho must lie in (0, 1), got {rho}")
    if d < 1 or int(d) != d:
        raise ValidationError(f"d must be a positive integer, got {d}")
    if k < 0:
        raise ValidationError("level must be nonnegative")
    if k == 0:
        return 1.0
    exponent = k if d == 1 else (d ** k - 1) // (d - 1)
    if exponent > 745.0 / -math.log(rho):
        return 0.0
    log_value = float(exponent) * math.log(rho)
    return math.exp(log_value)


def supermarket_tails(rho: float, d: int, levels: int) -> TailSeries:
    pis = [np.array([supermarket_tail(rho, d, k)]) for k in range(levels + 1)]
    return TailSeries(pis, None, method="closed-form", first_level=0)


def supermarket_balance_residual(rho: float, d: int, k: int) -> float:
    """Defect in the cut balance rho (pi_{k-1}^d - pi_k^d) = pi_k - pi_{k+1},
    which the closed form satisfies identically."""
    if k < 1:
        raise ValidationError("balance holds for levels k >= 1")
    up = supermarket_tail(rho, d, k - 1) ** d
    mid = supermarket_tail(rho, d, k)
    down = supermarket_tail(rho, d, k + 1)
    return abs(rho * (up - mid ** d) - (mid - down))


@dataclass(frozen=True)
class MeanFieldResult:
    """Integrated tail profile u_1..u_K with the time reached, step count,
    final derivative norm, and whether the derivative dropped below tolerance
    before t_end."""

    values: np.ndarray
    time: float
    steps: int
    derivative_norm: float
    settled: bool


def meanfield_ode(rho: float, d: int, levels: int, t_end: float,
                  dt: float = 0.05, settle_tol: float = 1e-12) -> MeanFieldResult:
    """Integrate the mean-field tail dynamics du_k/dt = rho(u_{k-1}^d - u_k^d)
    - (u_k - u_{k+1}) with u_0 = 1 and u_{K+1} = 0, by classical fourth-order
    Runge-Kutta at a fixed step.

    Starts from a single customer layer u_1 = rho and stops early once the
    derivative is flat.  Any coordinate escaping [0, 1] beyond roundoff slack
    aborts the run, since the dynamics preserve that box.
    """
    if not 0 < rho < 1:
        raise ValidationError(f"rho must lie in (0, 1), got {rho}")
    if d < 1 or int(d) != d:
        raise ValidationError(f"d must be a positive integer, got {d}")
    if levels < 1:
        raise ValidationError("need at least one level")
    _require_positive(t_end, "t_end")
    _require_positive(dt, "dt")

    def deriv(u):
        upper = np.concatenate(([1.0], u[:-1]))
        lower = np.concatenate((u[1:], [0.0]))
        return rho * (upper ** d - u ** d) - (u - lower)

    u = np.zeros(levels)
    u[0] = rho
    t = 0.0
    steps = 0
    rate = deriv(u)
    while t < t_end and inf_norm(rate) >= settle_tol:
        step = min(dt, t_end - t)
        k1 = rate
        k2 = deriv(u + 0.5 * step * k1)
        k3 = deriv(u + 0.5 * step * k2)
        k4 = deriv(u + step * k3)
        u = u + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step
        steps += 1
        if np.any(u < -1e-9) or np.any(u > 1.0 + 1e-9):
            raise StepUnstable(
                f"profile left [0, 1] at t = {t:.3f}; reduce the step size"
            )
        rate = deriv(u)
    norm = inf_norm(rate)
    return MeanFieldResult(values=u, time=t, steps=steps,
                          derivative_norm=norm, settled=norm < settle_tol)
