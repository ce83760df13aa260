"""Closed-form and semi-closed-form tail solvers for specific queues.

Each model here admits either an explicit stationary distribution or a short
recursion for the tail vectors, which makes them reference points for the
generic block solvers.  Their generators are built here too, QBDs for the
vacation and repairable queues and level-dependent ones for the retrial and
M(n)/M(n)/1 queues, with boundary state j as phase j of the queue's level 0
(the registry's rule for solving them by their family's routes).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SizeLimit, StepUnstable, Unstable, ValidationError
from .ldqbd import LdQbdModel
from .matkernel import _ByValue, _ReadOnly, inf_norm
from .oracle import MAX_CELLS
from .qbd import QbdModel
from .series import TailSeries, _check_levels, _from_levels, _powers

# Runge-Kutta steps meanfield_ode may be asked for, t_end / dt; the d = 2,
# 40-level run at rho 0.99 settles after about 61,000.
MEANFIELD_MAX_STEPS = 1_000_000


def _require_positive(value: float, name: str) -> float:
    value = float(value)
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


class _Params(_ByValue, _ReadOnly):
    """Base of the queue parameters: read-only fields, the __slots__ in
    order, kept as given; equality, hash and repr by their values."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())


class RetrialParams(_Params):
    """Single-server queue whose blocked arrivals retry from an orbit.

    lam is the arrival rate, mu the service rate, theta the per-customer
    retrial rate.  Stable when lam < mu.
    """

    __slots__ = ("lam", "mu", "theta")

    def __init__(self, lam: float, mu: float, theta: float):
        self._set(lam, mu, theta)
        _require_positive(lam, "lam")
        _require_positive(mu, "mu")
        _require_positive(theta, "theta")

    @property
    def rho(self) -> float:
        return self.lam / self.mu


class VacationParams(_Params):
    """M/M/1 queue with multiple vacations, service rate scaled to one.

    lam is the arrival rate (utilization), theta the rate of returning from
    vacation.  Stable when lam < 1.
    """

    __slots__ = ("lam", "theta")

    def __init__(self, lam: float, theta: float):
        self._set(lam, theta)
        _require_positive(lam, "lam")
        _require_positive(theta, "theta")
        if lam >= 1:
            raise Unstable(f"utilization {lam} is not below 1")


class RepairableParams(_Params):
    """M/M/1 queue whose busy server fails at rate alpha and is repaired at
    rate beta; lam and mu are the arrival and service rates.  Stable when
    the effective load (lam/mu)(1 + alpha/beta) is below 1."""

    __slots__ = ("lam", "mu", "alpha", "beta")

    def __init__(self, lam: float, mu: float, alpha: float, beta: float):
        self._set(lam, mu, alpha, beta)
        _require_positive(lam, "lam")
        _require_positive(mu, "mu")
        _require_positive(alpha, "alpha")
        _require_positive(beta, "beta")
        if self.load >= 1.0:
            raise Unstable(f"effective load {self.load} is not below 1")

    @property
    def load(self) -> float:
        return (self.lam / self.mu) * (1.0 + self.alpha / self.beta)


def retrial_chain(params: RetrialParams, horizon: int) -> LdQbdModel:
    """Level-dependent generator of the retrial queue, orbit size as level,
    phases (busy, idle), its tables laid out for all levels at once."""
    lam, mu, theta = params.lam, params.mu, params.theta
    retry = np.arange(horizon + 1) * theta
    up = np.zeros((horizon + 1, 2, 2))
    up[:, 0, 0] = lam
    diag = np.empty((horizon + 1, 2, 2))
    diag[:, 0] = -(lam + mu), mu
    diag[:, 1, 0] = lam
    diag[:, 1, 1] = -(lam + retry)
    down = np.zeros((horizon, 2, 2))
    down[:, 1, 0] = retry[1:]
    return LdQbdModel(up, diag, down)


def retrial_tails(params: RetrialParams, levels: int) -> TailSeries:
    """Tail vectors of the retrial queue over orbit sizes 0..levels.

    The cut balance lam x_busy,n = (n+1) theta x_idle,n+1 and the idle
    balance mu x_busy,n = (lam + n theta) x_idle,n give the rows one after
    another from x_0, proportional to (rho, 1), with products and quotients
    of positive numbers only.  Past row N both phase ratios are at most
    q_N = rho (1 + lam/((N+1) theta)), which falls toward rho, so the rows
    stop at the first N >= levels where q_N < 1 and x_N q_N/(1 - q_N) is
    below machine epsilon times the sum of rows levels..N in each phase.
    An N0 = ceil(lam rho / ((1 - rho) theta)), where q_N first falls below
    1, past the levels a band of MAX_CELLS cells holds raises SizeLimit.
    """
    _check_levels(levels, 0)
    lam, mu, theta = params.lam, params.mu, params.theta
    rho = params.rho
    if rho >= 1.0:
        raise Unstable(f"utilization {rho} is not below 1")
    # 14 band cells a level: 2 states, 2 (2 + 2 - 1) + 1 cells wide
    climb = lam * rho / ((1.0 - rho) * theta)
    if climb > MAX_CELLS // 14:
        raise SizeLimit(f"retrial rows climb to level {climb:.3g}, past the "
                        f"{MAX_CELLS // 14} levels a band of {MAX_CELLS} cells holds")
    eps = np.finfo(float).eps
    busy, idle = [rho], [1.0]
    deep_busy = deep_idle = 0.0
    n = 0
    while True:
        if n >= levels:
            deep_busy += busy[n]
            deep_idle += idle[n]
            q = rho * (1.0 + lam / ((n + 1) * theta))
            if q < 1.0 and (busy[n] * q / (1.0 - q) <= eps * deep_busy
                            and idle[n] * q / (1.0 - q) <= eps * deep_idle):
                break
        n += 1
        idle.append(lam * busy[n - 1] / (n * theta))
        busy.append(idle[n] * (lam + n * theta) / mu)
        if busy[n] > 1e250:  # slow retrials make the rows climb before they fall
            busy = [x * 1e-250 for x in busy]
            idle = [x * 1e-250 for x in idle]
            deep_busy *= 1e-250
            deep_idle *= 1e-250
    return _from_levels(np.column_stack((busy, idle)), levels, "matrix-product", {"terms": n})


def _rates(rate) -> list:
    """A rate given as a number or as a sequence of per-level numbers, as a
    list of floats."""
    rates = [float(x) for x in np.atleast_1d(rate)]
    if not rates:
        raise ValidationError("a rate list must not be empty")
    return rates


def _rate_at(rates: list, k: int) -> float:
    """Entry k of a rate list whose last entry repeats forever."""
    return rates[min(k, len(rates) - 1)]


def mn_mn_1_tails(arrival, service, levels: int) -> TailSeries:
    """Tails of a birth-death queue with state-dependent rates.

    arrival[k] drives level k to k+1 and service[k-1] drives k to k-1; either
    argument may be a scalar or a sequence, the last entry repeating forever.
    The product terms t_k = prod arrival[j-1]/service[j-1] are built up to
    n = max(levels, len(arrival), len(service)).  Past n both rates are
    frozen, so the terms go on geometrically with q = arrival[-1]/service[-1]
    and sum to t_n q/(1 - q) there.  If q >= 1 while t_n > 0 that sum
    diverges: the chain has no stationary distribution and the solve raises
    Unstable.
    """
    _check_levels(levels, 0)
    arrivals, services = _rates(arrival), _rates(service)
    if any(x < 0 for x in arrivals) or any(x <= 0 for x in services):
        raise ValidationError("arrival rates must be >= 0 and service rates > 0")
    n = max(levels, len(arrivals), len(services))
    terms = []
    t = 1.0
    for k in range(n):
        t *= _rate_at(arrivals, k) / _rate_at(services, k)
        terms.append(t)
    q = arrivals[-1] / services[-1]
    if t > 0 and q >= 1:
        raise Unstable(f"rates freeze at load {q:.6g}, not below 1; the queue is not ergodic")
    remainder = t * q / (1.0 - q) if t > 0 else 0.0
    return _from_levels(np.reshape([1.0, *terms], (-1, 1)), levels, "closed-form",
                        {"terms": n}, past=[remainder])


def mnmn1_chain(arrival, service) -> LdQbdModel:
    """Birth-death generator matching the rates of ``mn_mn_1_tails``, rates
    repeating their last entry forever.  No level past the first zero
    arrival rate is reached from level 0, so arrivals stay zero from there."""
    arr, srv = np.array(_rates(arrival)), np.array(_rates(service))
    zeros = np.flatnonzero(arr == 0.0)
    if zeros.size:
        arr = arr[:zeros[0] + 1]
    levels = np.arange(max(len(arr), len(srv)) + 3)
    up = arr[np.minimum(levels, len(arr) - 1)]
    down = np.append(0.0, srv[np.minimum(levels[1:] - 1, len(srv) - 1)])
    return LdQbdModel(up[:, None, None], -(up + down)[:, None, None], down[1:, None, None])


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

    The vacation phase is geometric, pi_V,k = d^k (1-lam) with
    d = lam/(lam+theta).  The serving phase is

        pi_W,k = c1 lam^k + c2 d^k,  c1 = theta/(lam+theta-1),
                                     c2 = (1-lam)(lam+theta)/(1-lam-theta),

    or (lam + (1-lam) k) lam^k when lam + theta = 1 and the roots coincide.
    As c1 and c2 cancel near there, it is evaluated as the nonnegative sum
    lam^k + lam (1-lam) d h^(k-2) (1-q^(k-1))/(1-q), with h and q h the larger
    and smaller of lam and d.
    """
    _check_levels(levels, 0)
    lam, theta = params.lam, params.theta
    decay = lam / (lam + theta)
    high = max(lam, decay)
    log_q = math.log(min(lam, decay) / high)
    k = np.arange(1, levels + 1)
    # (1 - q^(k-1)) / (1 - q), which is k - 1 when the roots coincide
    ratio = k - 1.0 if log_q == 0.0 else np.expm1((k - 1) * log_q) / math.expm1(log_q)
    busy = lam ** k + lam * (1.0 - lam) * decay * high ** (k - 2.0) * ratio
    pis = [np.array([1.0 - lam, lam])]
    pis += list(np.column_stack(((1.0 - lam) * decay ** k, busy)))
    return TailSeries(pis, None, method="closed-form", first_level=0)


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

    The boundary values are exact: pi_0 = (1 - (lam/mu)(alpha/beta),
    (lam/mu)(alpha/beta)) and pi_1 = (lam/mu, (lam/mu)(alpha/beta)), phases
    (serving, under repair).  A2 of ``repairable_qbd`` has rank one, so
    G = e (1, 0) and its rate matrix is explicit,

        R = lam / (mu (lam + beta)) [[lam + beta, alpha], [lam + beta, mu + alpha]],

    with no negative entry; deeper tails follow pi_k = pi_{k-1} R, products
    of nonnegative numbers that keep their relative accuracy at any depth.
    """
    _check_levels(levels, 0)
    lam, mu, alpha, beta = params.lam, params.mu, params.alpha, params.beta
    ratio = lam / mu
    repair_share = ratio * alpha / beta
    rate = (lam / (mu * (lam + beta))) * np.array([[lam + beta, alpha],
                                                   [lam + beta, mu + alpha]])
    pis = np.concatenate(([[1.0 - repair_share, repair_share]],
                          _powers(np.array([ratio, repair_share]), rate, levels)))
    return TailSeries(pis, None, method="iterative", first_level=0)


def _check_supermarket(rho: float, d: int) -> None:
    """Refuse a load outside (0, 1) or a sample size d that is not a
    positive integer, or is a bool."""
    if not 0 < rho < 1:
        raise ValidationError(f"rho must lie in (0, 1), got {rho}")
    if isinstance(d, bool) or not d >= 1 or d % 1 != 0:
        raise ValidationError(f"d must be a positive integer, got {d}")


def supermarket_tail(rho: float, d: int, k: int) -> float:
    """Fraction of queues with length >= k in the mean-field limit of
    join-the-shortest-of-d sampling: rho to the power (d^k - 1)/(d - 1)."""
    _check_supermarket(rho, d)
    if k < 0:
        raise ValidationError("level must be nonnegative")
    if k == 0:
        return 1.0
    d = int(d)  # the check passes 2.0, whose float power d ** k overflows
    exponent = k if d == 1 else (d ** k - 1) // (d - 1)
    if exponent > 745.0 / -math.log(rho):
        return 0.0
    log_value = float(exponent) * math.log(rho)
    return math.exp(log_value)


def supermarket_tails(rho: float, d: int, levels: int) -> TailSeries:
    _check_levels(levels, 0)
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


class MeanFieldResult(NamedTuple):
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
    aborts the run, since the dynamics preserve that box.  A dt that would
    take more than MEANFIELD_MAX_STEPS steps to reach t_end is refused before
    any step.
    """
    _check_supermarket(rho, d)
    _check_levels(levels, 1)
    _require_positive(t_end, "t_end")
    _require_positive(dt, "dt")
    if t_end / dt > MEANFIELD_MAX_STEPS:
        raise ValidationError(
            f"dt must reach t_end = {t_end} in at most {MEANFIELD_MAX_STEPS:,} steps, got {dt}"
        )

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
