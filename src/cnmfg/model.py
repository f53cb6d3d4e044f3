"""Structural coefficient families, the generalized Hamiltonian, and its minimizer.

The state dynamics use drift and two volatilities (individual and common
noise), each linear in state and control with a measure-dependent intercept:

    phi(t, x, u, m) = phi0(t, m) + phi1(t) * x + phi2(t) * u.

Running cost separates as f0(t, x, u) + f1(t, x, m) with f0 strictly convex in
the control (modulus ``convexity_u``); terminal cost g(x, m) is convex in x.
Each measure-dependent piece (phi0, f1, f1x, g, gx) is one callable that reads
its law ``m`` only through ``m.mean`` and ``m.atoms`` (atoms on the last axis).
An ``EmpiricalMeasure`` is one law; the ``PathLaws`` view of a flow node holds
every path, mean (n_paths, 1) and atoms (n_paths, n_atoms), so one callable
serves the validators, ``hamiltonian`` and the batched solver loops.

The generalized Hamiltonian is

    H(t, x, p, q, qt, u, m) = b*p + sigma*q + sigma_tilde*qt + f,

whose unique u-minimizer solves b2*p + sigma2*q + sigma_tilde2*qt
+ f0u(t, x, u) = 0.  Every structural hypothesis the solvers rely on
(linearity, growth, Lipschitz, convexity, measure-Lipschitz intercepts, weak
monotonicity of f1x and gx under the sorted, antisorted and product pairings
of two measures' atoms) has a sampling validator here, and the smallness
ratios that guarantee solvability are evaluated by
``sufficient_condition_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ModelError
from .measures import EmpiricalMeasure, PathLaws, second_moment, wasserstein2

ArrayLike = float | np.ndarray
# the measure argument of a coefficient or cost: anything with .mean and .atoms
Law = EmpiricalMeasure | PathLaws


@dataclass
class LinearCoefficient:
    """One coefficient phi(t, x, u, m) = phi0(t, m) + phi1(t) x + phi2(t) u.

    ``phi0(t, m)`` reads ``m.mean`` and ``m.atoms`` only (see the module
    docstring); on a ``PathLaws`` view it broadcasts against the states.
    """

    phi0: Callable[[float, Law], ArrayLike]
    phi1: Callable[[float], float]
    phi2: Callable[[float], float]

    def values(self, t: float, x: ArrayLike, u: ArrayLike, m: Law) -> ArrayLike:
        """phi0 + phi1 x + phi2 u, summed in this order.

        A term whose coefficient is 0 is left out (on the LQ presets both
        volatilities are constant), so the result broadcasts against the
        states but may not have their shape.
        """
        total = self.phi0(t, m)
        for coef, arg in ((self.phi1(t), x), (self.phi2(t), u)):
            if coef != 0.0:
                total = total + coef * arg
        return total


@dataclass
class CostSpec:
    """Separable running cost f0(t,x,u) + f1(t,x,m) and terminal cost g(x,m).

    ``f0``, ``f0x``, ``f0u`` are elementwise in (x, u).  The measure-dependent
    pieces ``f1``, ``f1x``, ``g``, ``gx`` each take one law ``m`` that they
    read through ``m.mean`` and ``m.atoms`` only, so the same callable serves a
    single ``EmpiricalMeasure`` and a per-path ``PathLaws`` view.
    ``convexity_u`` is the strict-convexity modulus of f0 in u.  The cost
    declares its u-derivative as the polynomial f0u(t, x, u) = f0u(t, x, 0) +
    ``f0u_slope`` u + ``f0u_cubic`` u^3, with slope >= 2 convexity_u and cubic
    >= 0, so that the minimizer solves its first-order condition in closed
    form; construction checks the declaration at a few points.
    """

    f0: Callable[[float, ArrayLike, ArrayLike], ArrayLike]
    f0x: Callable[[float, ArrayLike, ArrayLike], ArrayLike]
    f0u: Callable[[float, ArrayLike, ArrayLike], ArrayLike]
    f1: Callable[[float, ArrayLike, Law], ArrayLike]
    f1x: Callable[[float, ArrayLike, Law], ArrayLike]
    g: Callable[[ArrayLike, Law], ArrayLike]
    gx: Callable[[ArrayLike, Law], ArrayLike]
    convexity_u: float
    f0u_slope: float
    f0u_cubic: float = 0.0

    def __post_init__(self):
        if self.convexity_u <= 0:
            raise ModelError("strict convexity modulus in u must be positive")
        if not self.f0u_slope >= 2.0 * self.convexity_u:
            raise ModelError("f0u_slope must be at least 2 * convexity_u")
        if not self.f0u_cubic >= 0.0:
            raise ModelError("f0u_cubic must be nonnegative")
        u = np.array([-1.0, 1.0, 2.0])
        rise = np.asarray(self.f0u(0.0, u, u)) - np.asarray(self.f0u(0.0, u, np.zeros(3)))
        declared = self.f0u_slope * u + self.f0u_cubic * u ** 3
        if not np.all(np.abs(rise - declared) <= 1e-9 * np.abs(declared)):
            raise ModelError("f0u disagrees with its declared f0u_slope and f0u_cubic")


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
                q_tilde: ArrayLike, u: ArrayLike, m: Law) -> ArrayLike:
    """Generalized Hamiltonian b*p + sigma*q + sigma_tilde*qt + f0 + f1."""
    x, u = np.asarray(x), np.asarray(u)
    h = (spec.drift.values(t, x, u, m) * p + spec.vol.values(t, x, u, m) * q
         + spec.vol_common.values(t, x, u, m) * q_tilde)
    return h + spec.cost.f0(t, x, u) + spec.cost.f1(t, x, m)


def hamiltonian_dx(spec: ModelSpec, t: float, x: ArrayLike, p: ArrayLike, q: ArrayLike,
                   q_tilde: ArrayLike, u: ArrayLike, m: Law) -> ArrayLike:
    """State derivative of the Hamiltonian: b1 p + sigma1 q + sigma_tilde1 qt + f0x + f1x.

    A term whose coefficient is 0 is left out (on the LQ presets sigma1 and
    sigma_tilde1 are), the others are summed in this order.
    """
    total = 0.0
    for coef, adjoint in ((spec.drift.phi1(t), p), (spec.vol.phi1(t), q),
                          (spec.vol_common.phi1(t), q_tilde)):
        if coef != 0.0:
            total = total + coef * adjoint
    return total + spec.cost.f0x(t, x, u) + spec.cost.f1x(t, x, m)


def control_loading(spec: ModelSpec, t: float, p: ArrayLike, q: ArrayLike,
                    q_tilde: ArrayLike) -> np.ndarray:
    """The Hamiltonian's control loading b2 p + sigma2 q + sigma_tilde2 q_tilde; a
    q or q_tilde term whose coefficient is 0 is left out, as in ``hamiltonian_dx``."""
    loadings = ((spec.vol.phi2(t), q), (spec.vol_common.phi2(t), q_tilde))
    return sum((c * np.asarray(a, dtype=float) for c, a in loadings if c != 0.0),
               spec.drift.phi2(t) * np.asarray(p, dtype=float))


def minimize_hamiltonian_values(spec: ModelSpec, t: float, x: np.ndarray, p: np.ndarray,
                                q: np.ndarray, q_tilde: np.ndarray) -> np.ndarray:
    """Vectorized Hamiltonian minimizer: the root of the first-order condition in u.

    The condition b2 p + sigma2 q + sigma_tilde2 qt + f0u(t, x, u) = 0 reads
    slope u + cubic u^3 + c = 0, c the loading plus f0u(t, x, 0).  With no
    cubic term the root is -c / slope.  Otherwise it is the one real root of
    u^3 + a u + b = 0, a = slope / cubic > 0 and b = c / cubic, in Cardano's
    form written without cancellation: with w the cube root of |b| / 2 +
    sqrt(b^2 / 4 + a^3 / 27), u = -b / (w^2 + a / 3 + (a / (3 w))^2), a
    denominator of positive terms.  A NaN or infinite c gives NaN.
    """
    x = np.asarray(x, dtype=float)
    const = control_loading(spec, t, p, q, q_tilde)
    cost = spec.cost
    zero = np.zeros_like(x)
    if not cost.f0u_cubic:
        return -(const + np.asarray(cost.f0u(t, x, zero))) / cost.f0u_slope
    a3 = cost.f0u_slope / cost.f0u_cubic / 3.0
    b = (const + np.asarray(cost.f0u(t, x, zero))) / cost.f0u_cubic
    # hypot keeps b^2 / 4 from overflowing, and (a/3)^(3/2) stands for sqrt(a^3 / 27)
    w = np.cbrt(0.5 * np.abs(b) + np.hypot(0.5 * b, a3 * math.sqrt(a3)))
    return -b / (w * w + a3 + (a3 / w) ** 2)


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
    total = np.zeros(states.shape[:2])
    for n in range(n_steps):
        t = grid.nodes[n]
        x, u = states[:, :, n], controls[:, :, n]
        total += (np.asarray(spec.cost.f0(t, x, u)) + spec.cost.f1(t, x, flow.at(n))) * dt
    total += spec.cost.g(states[:, :, -1], flow.at(n_steps))
    return total


def cost_functional(spec: ModelSpec, solution) -> float:
    """Monte Carlo cost: left-endpoint quadrature of f plus terminal g.

    ``solution`` is any object exposing states (n_paths, n_particles, n_nodes),
    controls (n_paths, n_particles, n_steps), a measure ``flow`` and a ``grid``.
    """
    return float(np.mean(per_sample_costs(spec, solution.states, solution.controls,
                                          solution.flow, solution.grid)))


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

    # weak monotonicity, averaged over three pairings of the atoms of m1 and m2:
    # equal ranks (sorted), every pair (product) and opposite ranks (antisorted);
    # the ranked pairings list their pairs in the index order of m2's atoms
    wm_min = math.inf
    for m1, m2 in _measure_pairs(rng, cfg, equal_size=True):
        t = float(rng.uniform(0.0, T))
        x, y = m1.atoms, m2.atoms
        rank = np.argsort(np.argsort(y, kind="stable"))
        ranked_x = np.sort(x, kind="stable")
        for xs, ys in ((ranked_x[rank], y), (x[:, None], y[None, :]), (ranked_x[::-1][rank], y)):
            gap_f = np.asarray(spec.cost.f1x(t, xs, m1)) - np.asarray(spec.cost.f1x(t, ys, m2))
            gap_g = np.asarray(spec.cost.gx(xs, m1)) - np.asarray(spec.cost.gx(ys, m2))
            wm_min = min(wm_min, float(np.mean(gap_f * (xs - ys))), float(np.mean(gap_g * (xs - ys))))
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
        # strict JSON has no infinity: a constant past float range is written as null
        return {k: v if isinstance(v, bool) else float(v) if math.isfinite(v) else None
                for k, v in self.__dict__.items()}


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def gronwall_constants(L: float, T: float) -> tuple[float, float]:
    """Conservative forward/backward stability constants (documented stand-ins).

    An exponent past float range gives an infinite constant: the smallness
    thresholds built on it are then 0, which only a zero ratio meets.
    """
    c1 = 3.0 * (1.0 + T) * (1.0 + L * L * T) * _exp(3.0 * L * L * T * (T + 4.0))
    c2 = 8.0 * (1.0 + L * L) * (1.0 + T) * _exp(8.0 * L * L * T * (T + 1.0))
    return c1, c2


def sufficient_condition_report(spec: ModelSpec) -> ConditionReport:
    """Evaluate every smallness condition the two constructive methods rely on."""
    L, T, cf, cv = spec.L, spec.horizon, spec.C_f, spec.terminal_lipschitz
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
        return lambda t, m: base + kappa * m.mean
    if kind == "tanh":
        return lambda t, m: base + kappa * np.tanh(m.mean)
    raise ModelError(f"unknown intercept kind {kind!r}")


def _quadratic_cost(cu, cx, c1, lam, cg0, cg, lamg, quartic_x=0.0, quartic_u=0.0) -> CostSpec:
    # cubes and fourth powers are written as products: numpy's pow on signed
    # arrays is about 70x slower, and f0u is the minimizer's inner loop
    def f0(t, x, u):
        base = cu * np.asarray(u) ** 2 + cx * np.asarray(x) ** 2
        if quartic_u:
            u2 = np.asarray(u) * u
            base = base + quartic_u * (u2 * u2)
        return base

    # every caller passes x and u of one shape, so neither derivative pads
    # its result to the shape of the argument it does not read
    def f0x(t, x, u):
        return 2.0 * cx * np.asarray(x)

    def f0u(t, x, u):
        out = 2.0 * cu * np.asarray(u)
        if quartic_u:
            out = out + 4.0 * quartic_u * (np.asarray(u) * u * u)
        return out

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
        f0u_slope=2.0 * cu,
        f0u_cubic=4.0 * quartic_u,
    )


_LQ_DEFAULTS = dict(
    b0=0.0, kappa=0.0, b1=0.2, b2=1.0,
    sigma0=0.2, sigma1=0.0, sigma2=0.0,
    sigma_tilde0=0.3, sigma_tilde1=0.0, sigma_tilde2=0.0,
    cu=1.0, cx=0.25, c1=0.5, lam=0.8,
    cg0=0.25, cg=0.5, lamg=0.8,
    horizon=1.0,
)


def _structural_constants(p: dict, extra_lip: float = 0.0) -> tuple[float, float, float, float]:
    slopes = [abs(p[k]) for k in ("b1", "b2", "sigma1", "sigma2", "sigma_tilde1", "sigma_tilde2")]
    lips = [2.0 * p["cx"], 2.0 * p["cu"], 2.0 * p["c1"], 2.0 * (p["cg0"] + p["cg"]),
            2.0 * p["c1"] * p["lam"], 2.0 * p["cg"] * p["lamg"], extra_lip]
    growth = [abs(p["b0"]) + abs(p["kappa"]), abs(p["sigma0"]), abs(p["sigma_tilde0"])]
    L = max(slopes + lips + growth + [1e-6])
    B_u = max(abs(p["sigma2"]), abs(p["sigma_tilde2"]))
    L_m = abs(p["kappa"])
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
        phi0 = _make_intercept(p[base_key], kappa, intercept_kind if kappa_key else "affine")
        return LinearCoefficient(phi0=phi0, phi1=_const(p[one]), phi2=_const(p[two]))

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

        lq = LQParameters(**p)
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
    params = dict(params or {})
    unknown = sorted(set(params) - set(_LQ_DEFAULTS))
    if unknown:
        raise ModelError(f"unknown preset parameter(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(_LQ_DEFAULTS)}")
    for key, value in params.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or isinstance(value, float) and not math.isfinite(value)):
            raise ModelError(f"preset parameter {key!r} must be a finite number, got {value!r}")
    return _PRESET_BUILDERS[name](params)
