"""Structural coefficient families, the generalized Hamiltonian, and its minimizer.

The state dynamics use drift and two volatilities (individual and common
noise), each linear in state and control with a measure-dependent intercept:

    phi(t, x, u, m) = phi0(t, m) + phi1(t) * x + phi2(t) * u.

Running cost separates as f0(t, x, u) + f1(t, x, m) with f0 strictly convex in
the control (modulus ``convexity_u``); terminal cost g(x, m) is convex in x.
The generalized Hamiltonian is

    H(t, x, p, q, qt, u, m) = b*p + sigma*q + sigma_tilde*qt + f,

whose unique u-minimizer solves b2*p + sigma2*q + sigma_tilde2*qt
+ f0u(t, x, u) = 0.  Every structural hypothesis the solvers rely on
(linearity, growth, Lipschitz, convexity, measure-Lipschitz intercepts, weak
monotonicity of f1x and gx under couplings) has a sampling validator here, and
the smallness ratios that guarantee solvability are evaluated by
``sufficient_condition_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ModelError
from .measures import (
    EmpiricalMeasure,
    antithetic_coupling,
    comonotone_coupling,
    independent_coupling,
    second_moment,
    wasserstein2,
)

ArrayLike = float | np.ndarray


@dataclass
class LinearCoefficient:
    """One coefficient phi(t, x, u, m) = phi0(t, m) + phi1(t) x + phi2(t) u.

    ``phi0`` is the canonical measure-based intercept.  ``phi0_stats`` is an
    optional vectorized fast path taking per-path conditional means and second
    moments (arrays broadcastable against the state array); it must agree with
    ``phi0`` and is what the simulation hot loops call.
    """

    phi0: Callable[[float, EmpiricalMeasure], float]
    phi1: Callable[[float], float]
    phi2: Callable[[float], float]
    phi0_stats: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None

    def intercept_values(self, t: float, means: np.ndarray, sqms: np.ndarray,
                         atoms: np.ndarray | None = None) -> np.ndarray:
        if self.phi0_stats is not None:
            return np.asarray(self.phi0_stats(t, means, sqms), dtype=float)
        if atoms is None:
            raise ModelError("coefficient lacks a stats hook and no atoms were supplied")
        vals = np.array([self.phi0(t, EmpiricalMeasure(atoms[j])) for j in range(atoms.shape[0])])
        return vals.reshape(means.shape)

    def values(self, t: float, x: ArrayLike, u: ArrayLike, means: np.ndarray,
               sqms: np.ndarray, atoms: np.ndarray | None = None) -> np.ndarray:
        return self.intercept_values(t, means, sqms, atoms) + self.phi1(t) * x + self.phi2(t) * u


@dataclass
class CostSpec:
    """Separable running cost f0(t,x,u) + f1(t,x,m) and terminal cost g(x,m).

    ``f0``, ``f0x``, ``f0u`` are elementwise in (x, u).  The measure-dependent
    pieces come in two equivalent forms: canonical measure-based callables and
    vectorized ``*_stats`` hooks taking (t, x, means, sqms) with means/sqms
    broadcastable against x.  ``convexity_u`` is the strict-convexity modulus
    of f0 in u.  ``f0u_slope`` is set when f0u is linear in u (closed-form
    minimizer); otherwise ``f0uu`` must be provided for the Newton path.
    """

    f0: Callable[[float, ArrayLike, ArrayLike], ArrayLike]
    f0x: Callable[[float, ArrayLike, ArrayLike], ArrayLike]
    f0u: Callable[[float, ArrayLike, ArrayLike], ArrayLike]
    f1: Callable[[float, ArrayLike, EmpiricalMeasure], ArrayLike]
    f1x: Callable[[float, ArrayLike, EmpiricalMeasure], ArrayLike]
    g: Callable[[ArrayLike, EmpiricalMeasure], ArrayLike]
    gx: Callable[[ArrayLike, EmpiricalMeasure], ArrayLike]
    convexity_u: float
    f0u_slope: float | None = None
    f0uu: Callable[[float, ArrayLike, ArrayLike], ArrayLike] | None = None
    f1_stats: Callable[..., np.ndarray] | None = None
    f1x_stats: Callable[..., np.ndarray] | None = None
    g_stats: Callable[..., np.ndarray] | None = None
    gx_stats: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        if self.convexity_u <= 0:
            raise ModelError("strict convexity modulus in u must be positive")
        if self.f0u_slope is None and self.f0uu is None:
            raise ModelError("need either a linear f0u slope or f0uu for the minimizer")


@dataclass
class ModelSpec:
    """Coefficient tuple (b, sigma, sigma_tilde, f0+f1, g) plus structural constants."""

    drift: LinearCoefficient
    vol: LinearCoefficient
    vol_common: LinearCoefficient
    cost: CostSpec
    horizon: float
    name: str = "custom"
    L: float = 1.0
    B_u: float = 0.0
    L_m: float = 0.0
    terminal_lipschitz: float = 1.0
    # whether any coefficient or cost actually reads the conditional law; the
    # regression layer drops its flow covariates for decoupled models
    measure_coupled: bool = True
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon <= 0:
            raise ModelError("horizon must be positive")
        if self.B_u > self.L or self.L_m > self.L:
            # convention: L dominates the auxiliary constants
            self.L = max(self.L, self.B_u, self.L_m)

    @property
    def C_f(self) -> float:
        return self.cost.convexity_u

    def control_bound(self) -> float:
        """Bound on the Hamiltonian minimizer at the origin, L / (2 C_f)."""
        return self.L / (2.0 * self.C_f)


# ---------------------------------------------------------------------------
# Hamiltonian and its minimizer
# ---------------------------------------------------------------------------


def hamiltonian(spec: ModelSpec, t: float, x: ArrayLike, p: ArrayLike, q: ArrayLike,
                q_tilde: ArrayLike, u: ArrayLike, m: EmpiricalMeasure) -> ArrayLike:
    """Generalized Hamiltonian b*p + sigma*q + sigma_tilde*qt + f0 + f1."""

    def _coef(c: LinearCoefficient):
        return c.phi0(t, m) + c.phi1(t) * np.asarray(x) + c.phi2(t) * np.asarray(u)

    h = _coef(spec.drift) * p + _coef(spec.vol) * q + _coef(spec.vol_common) * q_tilde
    return h + spec.cost.f0(t, x, u) + spec.cost.f1(t, x, m)


def hamiltonian_dx(spec: ModelSpec, t: float, x: ArrayLike, p: ArrayLike, q: ArrayLike,
                   q_tilde: ArrayLike, u: ArrayLike, m: EmpiricalMeasure) -> ArrayLike:
    """State derivative of the Hamiltonian: b1 p + sigma1 q + sigma_tilde1 qt + f0x + f1x."""
    return (spec.drift.phi1(t) * p + spec.vol.phi1(t) * q + spec.vol_common.phi1(t) * q_tilde
            + spec.cost.f0x(t, x, u) + spec.cost.f1x(t, x, m))


_ROOT_TOL = 1e-10


def minimize_hamiltonian_values(spec: ModelSpec, t: float, x: np.ndarray, p: np.ndarray,
                                q: np.ndarray, q_tilde: np.ndarray) -> np.ndarray:
    """Vectorized Hamiltonian minimizer: solves the first-order condition in u.

    The condition b2 p + sigma2 q + sigma_tilde2 qt + f0u(t, x, u) = 0 has a
    unique root because f0u is strictly increasing in u with slope at least
    2 * convexity_u.  Linear f0u gives the closed form; otherwise a bracketed
    Newton iteration with bisection safeguard is used.
    """
    x = np.asarray(x, dtype=float)
    const = (spec.drift.phi2(t) * np.asarray(p, dtype=float)
             + spec.vol.phi2(t) * np.asarray(q, dtype=float)
             + spec.vol_common.phi2(t) * np.asarray(q_tilde, dtype=float))
    cost = spec.cost
    if cost.f0u_slope is not None:
        zero = np.zeros_like(x)
        return -(const + np.asarray(cost.f0u(t, x, zero))) / cost.f0u_slope

    # bracket [-R, R] guaranteed to contain the root under the growth bounds,
    # expanded by doubling if not
    two_cf = 2.0 * spec.C_f
    scale = np.abs(x) + np.abs(p) + np.abs(q) + np.abs(q_tilde)
    radius = spec.L * (1.0 + scale) / two_cf + spec.L / two_cf
    lo = -np.maximum(radius, 1.0)
    hi = np.maximum(radius, 1.0)

    def h(u):
        return np.asarray(cost.f0u(t, x, u)) + const

    for _ in range(60):
        bad_lo = h(lo) > 0
        bad_hi = h(hi) < 0
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        lo = np.where(bad_lo, 2.0 * lo - 1.0, lo)
        hi = np.where(bad_hi, 2.0 * hi + 1.0, hi)
    else:
        raise ModelError("minimizer bracket failure: cost does not satisfy strict convexity in u")

    u = np.clip(np.zeros_like(x), lo, hi)
    for _ in range(100):
        fu = h(u)
        if np.max(np.abs(fu)) <= _ROOT_TOL:
            break
        lo = np.where(fu < 0, u, lo)
        hi = np.where(fu > 0, u, hi)
        slope = np.maximum(np.asarray(cost.f0uu(t, x, u)), two_cf)
        step = u - fu / slope
        inside = (step > lo) & (step < hi)
        u = np.where(inside, step, 0.5 * (lo + hi))
    else:
        fu = h(u)
        if np.max(np.abs(fu)) > 1e-6:
            raise ModelError("minimizer did not converge: invalid cost specification")
    return u


def minimize_hamiltonian(spec: ModelSpec, t: float, x: float, p: float, q: float,
                         q_tilde: float) -> float:
    """Scalar Hamiltonian minimizer (first-order-condition root)."""
    out = minimize_hamiltonian_values(spec, t, np.asarray([x], dtype=float),
                                      np.asarray([p], dtype=float), np.asarray([q], dtype=float),
                                      np.asarray([q_tilde], dtype=float))
    return float(out[0])


def per_sample_costs(spec: ModelSpec, states: np.ndarray, controls: np.ndarray,
                     flow, grid) -> np.ndarray:
    """Per-(path, particle) left-endpoint cost quadrature plus terminal cost."""
    n_steps = controls.shape[2]
    if states.shape[2] != n_steps + 1 or flow.atoms.shape[2] != n_steps + 1:
        raise ModelError("solution paths and measure flow are not on a common grid")
    dt = grid.dt
    means = flow.means[:, None, :]
    sqms = flow.second_moments[:, None, :]
    total = np.zeros(states.shape[:2])
    for n in range(n_steps):
        t = grid.nodes[n]
        x, u = states[:, :, n], controls[:, :, n]
        f1 = _f1_values(spec.cost, t, x, means[:, :, n], sqms[:, :, n], flow.atoms[:, :, n])
        total += (np.asarray(spec.cost.f0(t, x, u)) + f1) * dt
    total += _g_values(spec.cost, states[:, :, -1], means[:, :, -1], sqms[:, :, -1], flow.atoms[:, :, -1])
    return total


def cost_functional(spec: ModelSpec, solution) -> float:
    """Monte Carlo cost: left-endpoint quadrature of f plus terminal g.

    ``solution`` is any object exposing states (n_paths, n_particles, n_nodes),
    controls (n_paths, n_particles, n_steps), a measure ``flow`` and a ``grid``.
    """
    return float(np.mean(per_sample_costs(spec, solution.states, solution.controls,
                                          solution.flow, solution.grid)))


# vectorized measure-cost evaluation with per-path fallback to the canonical form


def _per_path(fn, t, x, atoms, terminal=False):
    out = np.empty_like(np.asarray(x, dtype=float))
    for j in range(out.shape[0]):
        m = EmpiricalMeasure(atoms[j])
        out[j] = fn(x[j], m) if terminal else fn(t, x[j], m)
    return out


def _f1_values(cost, t, x, means, sqms, atoms=None):
    if cost.f1_stats is not None:
        return np.asarray(cost.f1_stats(t, x, means, sqms))
    return _per_path(cost.f1, t, x, atoms)


def _f1x_values(cost, t, x, means, sqms, atoms=None):
    if cost.f1x_stats is not None:
        return np.asarray(cost.f1x_stats(t, x, means, sqms))
    return _per_path(cost.f1x, t, x, atoms)


def _g_values(cost, x, means, sqms, atoms=None):
    if cost.g_stats is not None:
        return np.asarray(cost.g_stats(x, means, sqms))
    return _per_path(cost.g, None, x, atoms, terminal=True)


def _gx_values(cost, x, means, sqms, atoms=None):
    if cost.gx_stats is not None:
        return np.asarray(cost.gx_stats(x, means, sqms))
    return _per_path(cost.gx, None, x, atoms, terminal=True)


# ---------------------------------------------------------------------------
# Assumption validators
# ---------------------------------------------------------------------------


@dataclass
class SamplerConfig:
    """Sampling plan for the structural-assumption validators."""

    n_points: int = 400
    n_measure_pairs: int = 1200
    value_range: tuple[float, float] = (-5.0, 5.0)
    max_atoms: int = 8
    seed: int = 20240801
    tol_mono: float = 1e-9


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    estimates: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "estimates": {k: float(v) for k, v in self.estimates.items()},
                "messages": list(self.messages)}


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _sample_measures(rng, cfg: SamplerConfig, n: int, fixed_size: int | None = None):
    lo, hi = cfg.value_range
    out = []
    for _ in range(n):
        size = fixed_size or int(rng.integers(1, cfg.max_atoms + 1))
        atoms = rng.uniform(lo, hi, size=size)
        out.append(EmpiricalMeasure(atoms))
    return out


def _measure_pairs(rng, cfg: SamplerConfig, equal_size: bool = False):
    """Mixed pair sampler: independent, translated, and rescaled pairs."""
    pairs = []
    n_each = max(cfg.n_measure_pairs // 3, 1)
    size = cfg.max_atoms if equal_size else None
    for m in _sample_measures(rng, cfg, n_each, fixed_size=size):
        shift = float(rng.uniform(-3.0, 3.0))
        pairs.append((m, m.translated(shift)))
    for m in _sample_measures(rng, cfg, n_each, fixed_size=size):
        factor = float(rng.uniform(0.3, 2.0))
        pairs.append((m, EmpiricalMeasure(m.atoms * factor)))
    for _ in range(n_each):
        sz = size or int(rng.integers(1, cfg.max_atoms + 1))
        m1 = _sample_measures(rng, cfg, 1, fixed_size=sz)[0]
        m2 = _sample_measures(rng, cfg, 1, fixed_size=sz)[0]
        pairs.append((m1, m2))
    return pairs


def validate_assumptions(spec: ModelSpec, cfg: SamplerConfig | None = None) -> ValidationReport:
    """Sampling-based check of every structural hypothesis; failures are report entries."""
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.value_range
    T = spec.horizon
    ts = rng.uniform(0.0, T, size=cfg.n_points)
    xs = rng.uniform(lo, hi, size=cfg.n_points)
    us = rng.uniform(lo, hi, size=cfg.n_points)
    measures = _sample_measures(rng, cfg, cfg.n_points)
    checks = []
    slack = 1.0 + 1e-9

    # linear structure and bounded slopes
    coef_names = [("drift", spec.drift), ("vol", spec.vol), ("vol_common", spec.vol_common)]
    max_phi1 = max(abs(c.phi1(t)) for _, c in coef_names for t in ts)
    max_phi2 = max(abs(c.phi2(t)) for _, c in coef_names for t in ts)
    max_bu = max(abs(c.phi2(t)) for _, c in coef_names[1:] for t in ts)
    growth = 0.0
    for t, m in zip(ts, measures):
        bound = 1.0 + math.sqrt(second_moment(m))
        for _, c in coef_names:
            growth = max(growth, abs(c.phi0(t, m)) / bound)
    ok = max_phi1 <= spec.L * slack and max_phi2 <= spec.L * slack and growth <= spec.L * slack \
        and max_bu <= spec.B_u * slack + 1e-15
    checks.append(AssumptionCheck(
        "linear_coefficients", ok,
        {"max_phi1": max_phi1, "max_phi2": max_phi2, "max_control_vol": max_bu,
         "intercept_growth_ratio": growth}))

    # growth of costs and derivatives
    g_ratio = d_ratio = 0.0
    for t, x, u, m in zip(ts, xs, us, measures):
        sq = second_moment(m)
        base = 1.0 + sq
        dbase = 1.0 + abs(x) + abs(u) + math.sqrt(sq)
        f00 = abs(float(spec.cost.f0(t, 0.0, 0.0)) + float(spec.cost.f1(t, 0.0, m)))
        g0 = abs(float(spec.cost.g(0.0, m)))
        g_ratio = max(g_ratio, f00 / base, g0 / base)
        fx = abs(float(spec.cost.f0x(t, x, u)) + float(spec.cost.f1x(t, x, m)))
        fu = abs(float(spec.cost.f0u(t, x, u)))
        gx = abs(float(spec.cost.gx(x, m)))
        d_ratio = max(d_ratio, fx / dbase, fu / dbase, gx / dbase)
    ok = g_ratio <= spec.L * slack and d_ratio <= spec.L * slack
    checks.append(AssumptionCheck("growth", ok,
                                  {"level_growth_ratio": g_ratio, "derivative_growth_ratio": d_ratio}))

    # Lipschitz derivatives in (x, u)
    lip = 0.0
    for t, x, u, m in zip(ts, xs, us, measures):
        x2 = x + float(rng.uniform(-1.0, 1.0))
        u2 = u + float(rng.uniform(-1.0, 1.0))
        gap = math.hypot(x2 - x, u2 - u)
        if gap < 1e-12:
            continue
        dvec = math.hypot(float(spec.cost.f0x(t, x2, u2)) - float(spec.cost.f0x(t, x, u)),
                          float(spec.cost.f0u(t, x2, u2)) - float(spec.cost.f0u(t, x, u)))
        lip = max(lip, dvec / gap)
        if abs(x2 - x) > 1e-12:
            lip = max(lip, abs(float(spec.cost.f1x(t, x2, m)) - float(spec.cost.f1x(t, x, m))) / abs(x2 - x))
            lip = max(lip, abs(float(spec.cost.gx(x2, m)) - float(spec.cost.gx(x, m))) / abs(x2 - x))
    checks.append(AssumptionCheck("separable_lipschitz", lip <= spec.L * slack,
                                  {"max_derivative_lipschitz": lip}))

    # convexity: gap of f0 and monotone slopes of f1x, gx in x
    cf_hat = math.inf
    mono_min = math.inf
    conv_ok = True
    for t, x, u, m in zip(ts, xs, us, measures):
        x2 = x + float(rng.uniform(-2.0, 2.0))
        u2 = u + float(rng.uniform(-2.0, 2.0))
        du = u2 - u
        gap = (float(spec.cost.f0(t, x2, u2)) - float(spec.cost.f0(t, x, u))
               - float(spec.cost.f0x(t, x, u)) * (x2 - x) - float(spec.cost.f0u(t, x, u)) * du)
        if gap < spec.C_f * du * du - 1e-9:
            conv_ok = False
        if abs(du) > 1e-6:
            cf_hat = min(cf_hat, gap / (du * du))
        if abs(x2 - x) > 1e-12:
            mono_min = min(mono_min,
                           (float(spec.cost.f1x(t, x2, m)) - float(spec.cost.f1x(t, x, m))) * (x2 - x),
                           (float(spec.cost.gx(x2, m)) - float(spec.cost.gx(x, m))) * (x2 - x))
    conv_ok = conv_ok and mono_min >= -cfg.tol_mono
    checks.append(AssumptionCheck("convexity", conv_ok,
                                  {"convexity_u_estimate": cf_hat, "state_monotonicity_min": mono_min}))

    # measure-Lipschitz intercepts and cost derivatives
    lm_hat = 0.0
    cost_lm = 0.0
    for m1, m2 in _measure_pairs(rng, cfg):
        w = wasserstein2(m1, m2)
        if w < 1e-12:
            continue
        t = float(rng.uniform(0.0, T))
        x = float(rng.uniform(lo, hi))
        dsum = sum(abs(c.phi0(t, m2) - c.phi0(t, m1)) for _, c in coef_names)
        lm_hat = max(lm_hat, dsum / w)
        cost_lm = max(cost_lm,
                      abs(float(spec.cost.f1x(t, x, m2)) - float(spec.cost.f1x(t, x, m1))) / w,
                      abs(float(spec.cost.gx(x, m2)) - float(spec.cost.gx(x, m1))) / w)
    ok = lm_hat <= spec.L_m * slack + 1e-15 and cost_lm <= spec.L * slack
    checks.append(AssumptionCheck("measure_lipschitz", ok,
                                  {"intercept_measure_lipschitz": lm_hat,
                                   "cost_measure_lipschitz": cost_lm}))

    # weak monotonicity under comonotone / independent / antithetic couplings
    wm_min = math.inf
    for m1, m2 in _measure_pairs(rng, cfg, equal_size=True):
        t = float(rng.uniform(0.0, T))
        for make in (comonotone_coupling, independent_coupling, antithetic_coupling):
            cpl = make(m1, m2)
            val_f = cpl.expectation(
                lambda x, y: (np.asarray(spec.cost.f1x(t, x, m1)) - np.asarray(spec.cost.f1x(t, y, m2))) * (x - y))
            val_g = cpl.expectation(
                lambda x, y: (np.asarray(spec.cost.gx(x, m1)) - np.asarray(spec.cost.gx(y, m2))) * (x - y))
            wm_min = min(wm_min, val_f, val_g)
    checks.append(AssumptionCheck("weak_monotonicity", wm_min >= -cfg.tol_mono,
                                  {"coupled_monotonicity_min": wm_min}))

    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Smallness conditions for solvability
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Smallness ratios against conservative thresholds.

    The thresholds come from explicit (and deliberately conservative) Gronwall
    constants C1, C2 for the forward and backward stability estimates; the
    resulting deltas are stand-ins documented as such, not sharp values.  A
    violated condition never blocks solving, it is only recorded.
    """

    C1: float
    C2: float
    delta_continuation: float
    delta_uniqueness: float
    delta_stitching: float
    small_interval_threshold: float
    ratio_measure_coupling: float
    ratio_control_vol: float
    ratio_stitching: float
    continuation_ok: bool
    uniqueness_ok: bool
    small_interval_ok: bool
    stitching_ok: bool

    def to_dict(self) -> dict:
        return {k: (float(v) if not isinstance(v, bool) else v) for k, v in self.__dict__.items()}


def gronwall_constants(L: float, T: float) -> tuple[float, float]:
    """Conservative forward/backward stability constants (documented stand-ins)."""
    c1 = 3.0 * (1.0 + T) * (1.0 + L * L * T) * math.exp(3.0 * L * L * T * (T + 4.0))
    c2 = 8.0 * (1.0 + L * L) * (1.0 + T) * math.exp(8.0 * L * L * T * (T + 1.0))
    return c1, c2


def sufficient_condition_report(spec: ModelSpec, terminal_lipschitz: float | None = None) -> ConditionReport:
    """Evaluate every smallness condition the two constructive methods rely on."""
    L, T, cf = spec.L, spec.horizon, spec.C_f
    cv = spec.terminal_lipschitz if terminal_lipschitz is None else terminal_lipschitz
    c1, c2 = gronwall_constants(L, T)
    delta_cont = 2.0 / (3.0 * T * c1 + max(1.0, T) * (c1 + 1.0) * c2)
    delta_uni = 2.0 / (c2 * (1.0 + c1) * (T + 1.0) + 3.0 * T * c1)
    delta_stitch = 2.0 / (T * c1 + 3.0 * (T + 1.0) * (c1 + 1.0) * c2)
    ratio_lm = spec.L_m / cf
    ratio_bu = spec.B_u / cf
    small_threshold = 1.0 / (24.0 * L * cv)
    ratio_stitch = max(ratio_bu * (1.0 + 1.0 / cf) ** 4, ratio_lm)
    return ConditionReport(
        C1=c1, C2=c2,
        delta_continuation=delta_cont,
        delta_uniqueness=delta_uni,
        delta_stitching=delta_stitch,
        small_interval_threshold=small_threshold,
        ratio_measure_coupling=ratio_lm,
        ratio_control_vol=ratio_bu,
        ratio_stitching=ratio_stitch,
        continuation_ok=ratio_lm <= delta_cont,
        uniqueness_ok=ratio_lm <= delta_uni,
        small_interval_ok=ratio_bu <= small_threshold,
        stitching_ok=ratio_stitch <= delta_stitch,
    )


# ---------------------------------------------------------------------------
# Preset registry
# ---------------------------------------------------------------------------


@dataclass
class Preset:
    name: str
    spec: ModelSpec
    lq_params: "object | None"
    default_tol: float


def _const(v: float) -> Callable[[float], float]:
    return lambda t: v


def _make_intercept(base: float, kappa: float = 0.0, kind: str = "affine"):
    """Measure intercept families: affine or tanh in the conditional mean."""
    if kind == "affine":
        def phi0(t, m):
            return base + kappa * m.mean

        def phi0_stats(t, means, sqms):
            return base + kappa * means
    elif kind == "tanh":
        def phi0(t, m):
            return base + kappa * math.tanh(m.mean)

        def phi0_stats(t, means, sqms):
            return base + kappa * np.tanh(means)
    else:
        raise ModelError(f"unknown intercept kind {kind!r}")
    return phi0, phi0_stats


def _quadratic_cost(cu, cx, c1, lam, cg0, cg, lamg, quartic_x=0.0, quartic_u=0.0) -> CostSpec:
    # cubes and fourth powers are written as products: numpy's pow on signed
    # arrays is about 70x slower, and f0u is the minimizer's inner loop
    def f0(t, x, u):
        base = cu * np.asarray(u) ** 2 + cx * np.asarray(x) ** 2
        if quartic_u:
            u2 = np.asarray(u) * u
            base = base + quartic_u * (u2 * u2)
        return base

    def f0x(t, x, u):
        return 2.0 * cx * np.asarray(x) + np.zeros_like(np.asarray(u, dtype=float))

    def f0u(t, x, u):
        out = 2.0 * cu * np.asarray(u)
        if quartic_u:
            out = out + 4.0 * quartic_u * (np.asarray(u) * u * u)
        return out + np.zeros_like(np.asarray(x, dtype=float))

    def f0uu(t, x, u):
        return 2.0 * cu + 12.0 * quartic_u * np.asarray(u) ** 2

    def f1_of(x, mean):
        out = c1 * (np.asarray(x) - lam * mean) ** 2
        if quartic_x:
            x2 = np.asarray(x) * x
            out = out + quartic_x * (x2 * x2)
        return out

    def f1x_of(x, mean):
        out = 2.0 * c1 * (np.asarray(x) - lam * mean)
        if quartic_x:
            out = out + 4.0 * quartic_x * (np.asarray(x) * x * x)
        return out

    def g_of(x, mean):
        return cg0 * np.asarray(x) ** 2 + cg * (np.asarray(x) - lamg * mean) ** 2

    def gx_of(x, mean):
        return 2.0 * cg0 * np.asarray(x) + 2.0 * cg * (np.asarray(x) - lamg * mean)

    return CostSpec(
        f0=f0, f0x=f0x, f0u=f0u,
        f1=lambda t, x, m: f1_of(x, m.mean),
        f1x=lambda t, x, m: f1x_of(x, m.mean),
        g=lambda x, m: g_of(x, m.mean),
        gx=lambda x, m: gx_of(x, m.mean),
        convexity_u=cu,
        f0u_slope=None if quartic_u else 2.0 * cu,
        f0uu=f0uu,
        f1_stats=lambda t, x, means, sqms: f1_of(x, means),
        f1x_stats=lambda t, x, means, sqms: f1x_of(x, means),
        g_stats=lambda x, means, sqms: g_of(x, means),
        gx_stats=lambda x, means, sqms: gx_of(x, means),
    )


_LQ_DEFAULTS = dict(
    b0=0.0, kappa=0.0, b1=0.2, b2=1.0,
    sigma0=0.2, sigma1=0.0, sigma2=0.0,
    sigma_tilde0=0.3, sigma_tilde1=0.0, sigma_tilde2=0.0,
    cu=1.0, cx=0.25, c1=0.5, lam=0.8,
    cg0=0.25, cg=0.5, lamg=0.8,
    horizon=1.0,
)


def _structural_constants(p: dict, extra_lip: float = 0.0, lm_extra: float = 0.0) -> tuple[float, float, float, float]:
    slopes = [abs(p[k]) for k in ("b1", "b2", "sigma1", "sigma2", "sigma_tilde1", "sigma_tilde2")]
    lips = [2.0 * p["cx"], 2.0 * p["cu"], 2.0 * p["c1"], 2.0 * (p["cg0"] + p["cg"]),
            2.0 * p["c1"] * p["lam"], 2.0 * p["cg"] * p["lamg"], extra_lip]
    growth = [abs(p["b0"]) + abs(p["kappa"]), abs(p["sigma0"]), abs(p["sigma_tilde0"])]
    L = max(slopes + lips + growth + [1e-6])
    B_u = max(abs(p["sigma2"]), abs(p["sigma_tilde2"]))
    L_m = abs(p["kappa"]) + lm_extra
    cv = math.hypot(2.0 * (p["cg0"] + p["cg"]), 2.0 * p["cg"] * p["lamg"])
    return L, B_u, L_m, cv


def _build_affine_preset(name: str, overrides: dict, *, intercept_kind: str = "affine",
                         quartic_x: float = 0.0, quartic_u: float = 0.0,
                         default_tol: float = 1e-4, allow_lq: bool = True) -> Preset:
    p = dict(_LQ_DEFAULTS)
    p.update(overrides)
    extra_lip = 0.0
    if quartic_x:
        # local Lipschitz bound of the quartic term on the validator range
        extra_lip = 12.0 * quartic_x * 25.0
    cost = _quadratic_cost(p["cu"], p["cx"], p["c1"], p["lam"], p["cg0"], p["cg"], p["lamg"],
                           quartic_x=quartic_x, quartic_u=quartic_u)
    L, B_u, L_m, cv = _structural_constants(p, extra_lip=extra_lip)

    def make_coef(base_key, kappa_key, one, two):
        kappa = p[kappa_key] if kappa_key else 0.0
        phi0, phi0_stats = _make_intercept(p[base_key], kappa, intercept_kind if kappa_key else "affine")
        return LinearCoefficient(phi0=phi0, phi1=_const(p[one]), phi2=_const(p[two]),
                                 phi0_stats=phi0_stats)

    coupled = bool(p["kappa"] != 0.0 or p["c1"] * p["lam"] != 0.0 or p["cg"] * p["lamg"] != 0.0)
    spec = ModelSpec(
        drift=make_coef("b0", "kappa", "b1", "b2"),
        vol=make_coef("sigma0", None, "sigma1", "sigma2"),
        vol_common=make_coef("sigma_tilde0", None, "sigma_tilde1", "sigma_tilde2"),
        cost=cost,
        horizon=p["horizon"],
        name=name,
        L=L, B_u=B_u, L_m=L_m,
        terminal_lipschitz=cv,
        measure_coupled=coupled,
        params=dict(p, quartic_x=quartic_x, quartic_u=quartic_u, intercept_kind=intercept_kind),
    )
    lq = None
    if allow_lq and intercept_kind == "affine" and quartic_x == 0.0 and quartic_u == 0.0:
        from .lq_oracle import LQParameters

        lq = LQParameters(
            b0=p["b0"], kappa=p["kappa"], b1=p["b1"], b2=p["b2"],
            sigma0=p["sigma0"], sigma1=p["sigma1"], sigma2=p["sigma2"],
            sigma_tilde0=p["sigma_tilde0"], sigma_tilde1=p["sigma_tilde1"],
            sigma_tilde2=p["sigma_tilde2"],
            cu=p["cu"], cx=p["cx"], c1=p["c1"], lam=p["lam"],
            cg0=p["cg0"], cg=p["cg"], lamg=p["lamg"], horizon=p["horizon"],
        )
    return Preset(name=name, spec=spec, lq_params=lq, default_tol=default_tol)


def _concave_g_preset(name: str, overrides: dict) -> Preset:
    # validation-demo preset: concave terminal cost, so the convexity check fails;
    # it has no oracle and is never solved
    return _build_affine_preset(name, dict(overrides, cg0=-0.5, cg=0.0), allow_lq=False)


_PRESET_BUILDERS: dict[str, Callable[[dict], Preset]] = {
    "lq": lambda o: _build_affine_preset("lq", o),
    "lq_drift_coupled": lambda o: _build_affine_preset("lq_drift_coupled", dict({"kappa": 0.3}, **o)),
    "lq_small_bu": lambda o: _build_affine_preset(
        "lq_small_bu", dict({"sigma2": 0.005, "sigma_tilde2": 0.005}, **o)),
    "mean_reverting": lambda o: _build_affine_preset(
        "mean_reverting", dict({"b0": 0.1, "kappa": 0.25, "b1": -0.5}, **o)),
    "tanh_drift": lambda o: _build_affine_preset(
        "tanh_drift", dict({"kappa": 0.4, "b1": 0.1}, **o), intercept_kind="tanh", default_tol=1e-3),
    "quartic_f1": lambda o: _build_affine_preset("quartic_f1", o, quartic_x=0.05, default_tol=1e-3),
    "quartic_control": lambda o: _build_affine_preset("quartic_control", o, quartic_u=0.1, default_tol=1e-3),
    "concave_g": lambda o: _concave_g_preset("concave_g", o),
}

# presets exercised by the acceptance suite; the registry holds more
SHIPPED_PRESETS = ("lq", "lq_drift_coupled", "lq_small_bu", "mean_reverting", "tanh_drift")


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESET_BUILDERS)


def get_preset(name: str, params: dict | None = None) -> Preset:
    """Build a named preset, optionally overriding its parameters."""
    if name not in _PRESET_BUILDERS:
        raise ModelError(f"unknown preset {name!r}; known: {', '.join(_PRESET_BUILDERS)}")
    return _PRESET_BUILDERS[name](dict(params or {}))
