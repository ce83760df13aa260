"""The benchmark's reference laws against dense solves of truncated chains.

Each chain is cut at a level deep enough that the mass beyond it is
negligible, assembled as a dense generator or kernel with numpy, and solved
with numpy.linalg.solve (``reference.phase_vector`` applied to the whole
truncated chain).  Levels are compared while their tails stay above
1e-8; ATOL allows for the absolute rounding error of the dense solve.
"""

import numpy as np
import pytest

import reference

RTOL = 1e-9
ATOL = 1e-13


def _levels(x, m0, m):
    """Split a stationary vector into x0 and the tails of levels 1..L."""
    rows = x[m0:].reshape(-1, m)
    return x[:m0], np.cumsum(rows[::-1], axis=0)[::-1]


def _assert_close(law, x0, tails, count):
    mask = tails[:count] > 1e-8
    assert np.allclose(law.x0, x0, rtol=RTOL, atol=ATOL)
    got = law.tails[:count][mask]
    assert got.size > count // 2
    assert np.allclose(got, tails[:count][mask], rtol=RTOL, atol=ATOL)


def test_modulated_mm1_law():
    rng = np.random.default_rng(5)
    m, rho, cut = 3, 0.6, 120
    t = rng.uniform(0.2, 1.0, (m, m))
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, -t.sum(axis=1))
    eye = np.eye(m)
    q = np.zeros(((cut + 1) * m, (cut + 1) * m))
    for k in range(cut + 1):
        s = slice(k * m, (k + 1) * m)
        q[s, s] = t - (rho * (k < cut) + (k > 0)) * eye
        if k < cut:
            q[s, (k + 1) * m:(k + 2) * m] = rho * eye
        if k > 0:
            q[s, (k - 1) * m:k * m] = eye
    x0, tails = _levels(reference.phase_vector(q, continuous=True), m, m)
    law = reference.mm1_law(rho, 40, reference.phase_vector(t, continuous=True))
    _assert_close(law, x0, tails, 40)


def test_gim1_walk_law():
    up, down1, down2, cut = 0.4, 0.25, 0.125, 400
    p = np.zeros((cut + 1, cut + 1))
    for k in range(cut + 1):
        p[k, min(k + 1, cut)] += up
        p[k, max(k - 1, 0)] += down1
        p[k, max(k - 2, 0)] += down2
        p[k, k] += 1.0 - up - down1 - down2
    x0, tails = _levels(reference.phase_vector(p, continuous=False), 1, 1)
    law = reference.gim1_walk_law(up, down1, down2, 40)
    _assert_close(law, x0, tails, 40)


def test_modulated_mg1_walk_law():
    rng = np.random.default_rng(7)
    m, cut = 3, 300
    down, up1, up2 = 0.5, 0.175, 0.0875
    phase = rng.uniform(0.1, 1.0, (m, m))
    phase /= phase.sum(axis=1, keepdims=True)
    n = (cut + 1) * m
    p = np.zeros((n, n))
    for k in range(cut + 1):
        s = slice(k * m, (k + 1) * m)
        for step, prob in ((-1, down), (1, up1), (2, up2)):
            j = min(max(k + step, 0), cut)
            p[s, j * m:(j + 1) * m] += prob * phase
        p[s, s] += (1.0 - down - up1 - up2) * phase
    x0, tails = _levels(reference.phase_vector(p, continuous=False), m, m)
    law = reference.mg1_walk_law(down, up1, up2, 40,
                                 reference.phase_vector(phase, continuous=False))
    _assert_close(law, x0, tails, 40)


@pytest.mark.parametrize("horizon", [None, 8])
def test_retrial_law(horizon):
    lam, mu, theta, cut = 1.0, 1.6, 0.7, 200
    n = 2 * (cut + 1)
    q = np.zeros((n, n))
    for k in range(cut + 1):
        busy, idle = 2 * k, 2 * k + 1
        retry = theta * (k if horizon is None else min(k, horizon))
        q[busy, idle] += mu
        q[idle, busy] += lam
        if k < cut:
            q[busy, 2 * (k + 1)] += lam
        if k > 0:
            q[idle, 2 * (k - 1)] += retry
    np.fill_diagonal(q, -q.sum(axis=1))
    x0, tails = _levels(reference.phase_vector(q, continuous=True), 2, 2)
    law = reference.retrial_law(lam, mu, theta, 40, horizon=horizon)
    _assert_close(law, x0, tails, 40)
