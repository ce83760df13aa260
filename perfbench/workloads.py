"""The benchmark's three workloads: fixed lists of solver calls and their checks.

A workload is a list of ``Op``s run in order, one pass after another.  The
list is the same on every commit; the seed only draws the phase processes of
the modulated chains.  Each op calls one public entry point of mctails
(``mctails.solve_tails``, ``mctails.models.retrial_tails`` or
``mctails.cli.run``) and its result is compared with a reference from
``reference.py``, which does not use mctails.

An op that raises has outcome ``failed``; one that returns but misses its
reference by more than ``WRONG_REL`` relative on some entry of x0 or of a
requested tail vector has outcome ``wrong``; otherwise ``right``.  A
bundled-check op is right when ``mctails check`` exits 0, and its digits
come from the largest gap the check prints.

Every op of the three workloads is right at the time of writing, so a run is
correct only when no op fails or goes wrong.  The solver's known defects
(an op that raises or comes back wrong) are kept out of the workloads: each
is reproduced by one op of ``defect_ops``, which ``defects.py`` runs as a
diagnostic outside the benchmark.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("bundled-check", "heavy-traffic", "deep-tails")
# Loads at which every heavy-traffic route returns right tails; the lu route
# is right only at HEAVY_LU_LOAD (see defect_ops for the loads that fail).
LOADS = (0.5, 0.9, 0.99, 0.995)
HEAVY_LU_LOAD = 0.9
HEAVY_LEVELS = 50
SOLVE_TOL = 1e-12
WRONG_REL = 1e-6
MAX_DIGITS = 16.0

# Jump probabilities of the scalar walks; the up (GI/M/1) or down (M/G/1)
# probability is set from the load.  Dyadic values keep the drift exact.
GIM1_DOWN = (0.25, 0.125)
MG1_DOWN = 0.5
MG1_UP_SPLIT = 0.5

# deep-tails: the modulated chains at a moderate load; the lu route at a
# heavier load, where its deepest requested tails stay large enough for it to
# return them right (see DEFECTS); the retrial chain's level-dependent routes
# to the depth at which each is still right, its closed form to the horizon.
DEEP_LOAD = 0.7
DEEP_LU_LOAD = 0.9
DEEP_LU_LEVELS = 100
RETRIAL_HORIZON = 200
RETRIAL_ROUTE_LEVELS = (("product", 25), ("lu", 100))
MG1_ROUTE_LEVELS = (("iterative", 100), ("ul", 400))


@dataclass
class Op:
    """One call into mctails, with what is needed to check its result."""

    family: str
    route: str
    load: float
    m: int
    levels: int
    call: object  # zero-argument callable returning the result
    phase: np.ndarray | None = None  # phase generator or stochastic matrix
    law: reference.Law | None = None

    def label(self) -> str:
        return f"{self.family}/{self.route}/rho={self.load:g}/m={self.m}/L={self.levels}"


@dataclass
class Outcome:
    """What checking one op's result found."""

    status: str  # "right", "wrong" or "failed"
    max_rel_err: float | None = None
    worst_level: int | None = None
    error: str | None = None
    digits: float | None = None
    details: dict = field(default_factory=dict)


# --- model builders -------------------------------------------------------

def random_generator(rng, m: int) -> np.ndarray:
    """Irreducible phase generator with off-diagonal rates in [0.2, 1)."""
    t = rng.uniform(0.2, 1.0, size=(m, m))
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, -t.sum(axis=1))
    return t


def random_stochastic(rng, m: int) -> np.ndarray:
    p = rng.uniform(0.1, 1.0, size=(m, m))
    return p / p.sum(axis=1, keepdims=True)


def modulated_qbd(mc, rho: float, t: np.ndarray):
    """M/M/1 (arrival rho, service one) whose phase runs by T independently
    of the level; m = 1 with T = 0 is the plain M/M/1 queue."""
    eye = np.eye(t.shape[0])
    lam, mu = rho, 1.0
    return mc.QbdModel(b1=t - lam * eye, b0=lam * eye, b2=mu * eye,
                       a0=lam * eye, a1=t - (lam + mu) * eye, a2=mu * eye)


def gim1_walk_params(rho: float) -> tuple:
    down1, down2 = GIM1_DOWN
    return rho * (down1 + 2 * down2), down1, down2


def gim1_walk(mc, rho: float):
    up, down1, down2 = gim1_walk_params(rho)
    stay = 1.0 - up - down1 - down2
    return mc.SkipFreeModel(
        "GIM1",
        [[[up]], [[stay]], [[down1]], [[down2]]],
        [[[up]], [[1.0 - up]], [[down1 + down2]], [[down2]]],
    )


def mg1_walk_params(rho: float) -> tuple:
    down = MG1_DOWN
    up1 = rho * down * MG1_UP_SPLIT
    up2 = rho * down * (1.0 - MG1_UP_SPLIT) / 2.0
    return down, up1, up2


def mg1_walk(mc, rho: float, p: np.ndarray):
    """M/G/1 walk (down one, up one or two) whose phase moves by the
    stochastic matrix P at every step, independently of the level."""
    down, up1, up2 = mg1_walk_params(rho)
    stay = 1.0 - down - up1 - up2
    return mc.SkipFreeModel(
        "MG1",
        [down * p, stay * p, up1 * p, up2 * p],
        [down * p, (1.0 - up1 - up2) * p, up1 * p, up2 * p],
    )


# --- workloads ------------------------------------------------------------

def _solve(mc, model, levels: int, route: str):
    return lambda: mc.solve_tails(model, levels, method=route, tol=SOLVE_TOL)


def _check_call(cli, path: str):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["check", path])
        return code, out.getvalue() + err.getvalue()
    return call


def _qbd_ops(mc, rho, t, levels, routes, m=None):
    model = modulated_qbd(mc, rho, t)
    family = "mm1-qbd" if m is None else "modulated-qbd"
    phase = None if m is None else t
    return [Op(family, r, rho, m or 1, levels, _solve(mc, model, levels, r), phase=phase)
            for r in routes]


def _retrial(mc):
    params = mc.RetrialParams(lam=1.0, mu=2.0, theta=1.0)
    return params, mc.models.retrial_chain(params, RETRIAL_HORIZON)


def build_ops(mc, workload: str, seed: int, root: Path) -> list:
    """The op list of a workload; ``mc`` is the imported mctails package.
    Building it is the workload's set-up: for bundled-check that is loading
    and validating every model file."""
    rng = np.random.default_rng(seed)
    if workload == "bundled-check":
        files = sorted((root / "modelfiles").glob("*.json"))
        if not files:
            raise FileNotFoundError(f"no model files under {root / 'modelfiles'}")
        cli = importlib.import_module(mc.__name__ + ".cli")
        ops = []
        for f in files:
            kind = cli.load_model_file(str(f)).kind
            ops.append(Op(f"modelfile:{f.stem}:{kind}", "check", 0.0, 0, 20,
                          _check_call(cli, str(f))))
        return ops
    if workload == "heavy-traffic":
        t4 = random_generator(rng, 4)
        scalar = np.zeros((1, 1))
        ops = []
        for rho in LOADS:
            routes = ("mg", "ul", "lu") if rho == HEAVY_LU_LOAD else ("mg", "ul")
            ops += _qbd_ops(mc, rho, scalar, HEAVY_LEVELS, routes)
            ops += _qbd_ops(mc, rho, t4, HEAVY_LEVELS, ("mg",), m=4)
            gim1 = gim1_walk(mc, rho)
            ops += [Op("gim1-walk", r, rho, 1, HEAVY_LEVELS, _solve(mc, gim1, HEAVY_LEVELS, r))
                    for r in ("mg", "ul")]
            mg1 = mg1_walk(mc, rho, np.ones((1, 1)))
            ops += [Op("mg1-walk", r, rho, 1, HEAVY_LEVELS, _solve(mc, mg1, HEAVY_LEVELS, r))
                    for r in ("iterative", "ul")]
        return ops
    if workload == "deep-tails":
        ops = []
        for m, levels in ((2, 400), (32, 200)):
            t = random_generator(rng, m)
            ops += _qbd_ops(mc, DEEP_LOAD, t, levels, ("mg", "ul"), m=m)
            ops += _qbd_ops(mc, DEEP_LU_LOAD, t, DEEP_LU_LEVELS, ("lu",), m=m)
        params, chain = _retrial(mc)
        ops += [Op("retrial-ldqbd", r, params.rho, 2, levels, _solve(mc, chain, levels, r))
                for r, levels in RETRIAL_ROUTE_LEVELS]
        ops.append(Op("retrial-closed", "retrial_tails", params.rho, 2, RETRIAL_HORIZON,
                      lambda: mc.models.retrial_tails(params, RETRIAL_HORIZON)))
        p = random_stochastic(rng, 8)
        mg1 = mg1_walk(mc, DEEP_LOAD, p)
        ops += [Op("modulated-mg1", r, DEEP_LOAD, 8, levels, _solve(mc, mg1, levels, r),
                   phase=p)
                for r, levels in MG1_ROUTE_LEVELS]
        return ops
    raise ValueError(f"unknown workload {workload!r} (one of {', '.join(WORKLOADS)})")


def attach_references(ops: list) -> None:
    """Compute each op's reference law, once per distinct chain."""
    laws = {}
    for op in ops:
        if op.route == "check":
            continue
        key = (op.family, op.load, op.m, op.levels, id(op.phase))
        if key not in laws:
            laws[key] = _law(op)
        op.law = laws[key]


def _law(op: Op) -> reference.Law:
    if op.family == "modulated-qbd":
        theta = reference.phase_vector(op.phase, continuous=True)
        return reference.mm1_law(op.load, op.levels, theta)
    if op.family == "mm1-qbd":
        return reference.mm1_law(op.load, op.levels)
    if op.family == "gim1-walk":
        return reference.gim1_walk_law(*gim1_walk_params(op.load), op.levels)
    if op.family == "mg1-walk":
        return reference.mg1_walk_law(*mg1_walk_params(op.load), op.levels)
    if op.family == "modulated-mg1":
        theta = reference.phase_vector(op.phase, continuous=False)
        return reference.mg1_walk_law(*mg1_walk_params(op.load), op.levels, theta)
    if op.family == "retrial-ldqbd":
        return reference.retrial_law(1.0, 2.0, 1.0, op.levels, horizon=RETRIAL_HORIZON)
    if op.family == "retrial-closed":
        return reference.retrial_law(1.0, 2.0, 1.0, op.levels)
    raise ValueError(f"no reference for {op.family}")


# --- checking -------------------------------------------------------------

_GAP = re.compile(r": ([0-9.]+e[+-][0-9]+) (?:ok|FAIL)$", re.M)


def _digits(rel: float) -> float:
    if rel <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(rel)))


def _relative(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        raise ValueError(f"shape {got.shape}, expected {want.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(got - want) / np.abs(want)
    rel[(want == 0) & (got == want)] = 0.0
    rel[~np.isfinite(rel)] = np.inf
    return rel


def evaluate(op: Op, result=None, exc: BaseException | None = None) -> Outcome:
    """Compare one op's result with its reference."""
    if exc is not None:
        return Outcome("failed", error=f"{type(exc).__name__}: {exc}")
    if op.route == "check":
        code, text = result
        gaps = [float(g) for g in _GAP.findall(text)]
        worst = max(gaps) if gaps else 0.0
        status = "right" if code == 0 else "wrong"
        return Outcome(status, digits=_digits(worst),
                       error=None if code == 0 else f"exit code {code}",
                       details={"exit_code": code, "max_check_gap": worst})
    law = op.law
    try:
        if result.first_level == 0:  # tails from level 0, whose tail is x0 + pi_1
            want_rows = [law.x0 + law.tails[0]] + list(law.tails)
            got_rows = list(result.pis)
        else:
            want_rows = [law.x0] + list(law.tails)
            got_rows = [result.x0] + list(result.pis)
        if len(got_rows) != len(want_rows):
            raise ValueError(f"{len(got_rows)} rows, expected {len(want_rows)}")
        worst, where = 0.0, 0
        for level, (got, want) in enumerate(zip(got_rows, want_rows)):
            rel = float(np.max(_relative(got, want)))
            if rel > worst:
                worst, where = rel, level
    except (ValueError, TypeError, AttributeError) as bad:
        return Outcome("wrong", error=f"malformed result: {bad}")
    status = "right" if worst <= WRONG_REL else "wrong"
    return Outcome(status, max_rel_err=worst, worst_level=where, digits=_digits(worst))


# --- known defects --------------------------------------------------------

# Each known defect, with one op that shows it; none of these ops is in a
# workload.
DEFECTS = {
    "lu-series-cutoff":
        "QBD/LDQBD lu route stops its tail series on an absolute term size, so "
        "the deepest requested levels come back far off",
    "linear-stop-rule":
        "R/G fixed points stop on a successive difference, which understates "
        "the error by 1/(1-rho): x0 off by ~2e-6 at rho=0.999",
    "no-convergence":
        "the linear R/G iterations hit their sweep cap at rho=0.9999",
    "lu-term-cap":
        "QBD lu route exceeds its 10*levels+200 term cap at rho >= 0.99",
    "iterative-mg1-cutoff":
        "M/G/1 iterative route returns zero tails past the levels its forward "
        "recursion materialized",
    "product-ldqbd-cutoff":
        "LDQBD product route stops its level products once a row falls below "
        "an absolute 1e-14, so deeper tails come back zero or short",
}


def defect_ops(mc, seed: int) -> list:
    """(defect name, op) pairs: one op per known defect, as of writing."""
    rng = np.random.default_rng(seed)
    scalar = np.zeros((1, 1))
    t2 = random_generator(rng, 2)
    params, chain = _retrial(mc)
    p = random_stochastic(rng, 8)
    mg1 = mg1_walk(mc, DEEP_LOAD, p)
    return [
        ("lu-series-cutoff", _qbd_ops(mc, DEEP_LOAD, t2, 400, ("lu",), m=2)[0]),
        ("lu-series-cutoff", Op("retrial-ldqbd", "lu", params.rho, 2, RETRIAL_HORIZON,
                                _solve(mc, chain, RETRIAL_HORIZON, "lu"))),
        ("linear-stop-rule", _qbd_ops(mc, 0.999, scalar, HEAVY_LEVELS, ("mg",))[0]),
        ("no-convergence", _qbd_ops(mc, 0.9999, scalar, HEAVY_LEVELS, ("mg",))[0]),
        ("lu-term-cap", _qbd_ops(mc, 0.99, scalar, HEAVY_LEVELS, ("lu",))[0]),
        ("iterative-mg1-cutoff", Op("modulated-mg1", "iterative", DEEP_LOAD, 8, 400,
                                    _solve(mc, mg1, 400, "iterative"), phase=p)),
        ("product-ldqbd-cutoff", Op("retrial-ldqbd", "product", params.rho, 2,
                                    RETRIAL_HORIZON,
                                    _solve(mc, chain, RETRIAL_HORIZON, "product"))),
    ]
