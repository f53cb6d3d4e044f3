"""Closed-form reference solution for the linear-quadratic preset family.

For dynamics with coefficients affine in (state, control, conditional mean)
and quadratic costs, the adjoint admits the affine representation

    p_t = a_t X_t + b_t mbar_t + c_t,      mbar_t = conditional mean of X_t,

whose coefficients solve three coupled scalar ODEs obtained by substituting
the representation into the adjoint dynamics and matching the coefficients of
X, mbar, and 1 (derivation in docs/lq_riccati.md).  The ODEs are integrated by
RK4 on a grid ten times finer than the solver grid and validated internally by
a finite-difference residual of the matching equations; the solver acceptance
tests additionally validate the ansatz against the discrete dynamics step by
step.  Everything here is deliberately independent of the particle solvers so
it can serve as their ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import SolutionBundle
from .errors import ModelError, SolverError
from .forward_sim import InitialLaw, NoiseBundle, TimeGrid, particle_array
from .measures import MeasureFlow

_BLOWUP = 1e8


@dataclass(frozen=True)
class LQParameters:
    """Affine dynamics and quadratic cost constants of the LQ family.

    Dynamics: drift b0 + kappa*mbar + b1 x + b2 u, volatilities
    sigma0 + sigma1 x + sigma2 u (individual) and the sigma_tilde analogues
    (common).  Costs: cu u^2 + cx x^2 + c1 (x - lam*mbar)^2 running,
    cg0 x^2 + cg (x - lamg*mbar)^2 terminal.
    """

    b0: float
    kappa: float
    b1: float
    b2: float
    sigma0: float
    sigma1: float
    sigma2: float
    sigma_tilde0: float
    sigma_tilde1: float
    sigma_tilde2: float
    cu: float
    cx: float
    c1: float
    lam: float
    cg0: float
    cg: float
    lamg: float
    horizon: float

    def __post_init__(self):
        if self.cu <= 0:
            raise ModelError("control weight must be positive")
        if min(self.cx, self.c1, self.cg0, self.cg) < 0:
            raise ModelError("state and coupling weights must be nonnegative")
        if not (0.0 <= self.lam <= 1.0 and 0.0 <= self.lamg <= 1.0):
            raise ModelError("mean-coupling factors must lie in [0, 1] for weak monotonicity")
        if self.horizon <= 0:
            raise ModelError("horizon must be positive")


def _feedback(par: LQParameters, a, b, c):
    """Feedback u = alpha x + beta mbar + gamma_c from the first-order condition.

    Solves 2 cu u + b2 p + sigma2 q + sigma_tilde2 qt = 0 with the affine
    adjoint and its loadings substituted, including the conditional-mean
    feedback of the control through the common volatility.
    """
    s2sq = par.sigma2 ** 2 + par.sigma_tilde2 ** 2
    denom = 2.0 * par.cu + a * s2sq
    a_x = a * (par.b2 + par.sigma2 * par.sigma1 + par.sigma_tilde2 * par.sigma_tilde1)
    a_m = b * (par.b2 + par.sigma_tilde2 * par.sigma_tilde1)
    a_u = b * par.sigma_tilde2 ** 2
    a_0 = (par.b2 * c + a * par.sigma2 * par.sigma0 + a * par.sigma_tilde2 * par.sigma_tilde0
           + b * par.sigma_tilde2 * par.sigma_tilde0)
    denom_bar = denom + a_u
    alpha = -a_x / denom
    beta = (-a_m + a_u * (a_x + a_m) / denom_bar) / denom
    gamma_c = -a_0 / denom_bar
    return alpha, beta, gamma_c


def _ode_rhs(par: LQParameters, a, b, c):
    alpha, beta, gamma_c = _feedback(par, a, b, c)
    s2sq = par.sigma2 ** 2 + par.sigma_tilde2 ** 2
    denom = 2.0 * par.cu + a * s2sq
    if np.any(np.abs(denom) < 1e-12):
        raise SolverError("non-solvable LQ data: control curvature degenerates")
    cross = par.b2 + par.sigma1 * par.sigma2 + par.sigma_tilde1 * par.sigma_tilde2
    mixed = par.b2 + par.sigma_tilde1 * par.sigma_tilde2
    adot = (-2.0 * a * par.b1 - a * (par.sigma1 ** 2 + par.sigma_tilde1 ** 2)
            - a * alpha * cross - 2.0 * (par.cx + par.c1))
    bdot = (-a * par.kappa - b * (par.kappa + 2.0 * par.b1 + par.sigma_tilde1 ** 2)
            - a * beta * cross - b * (alpha + beta) * mixed + 2.0 * par.c1 * par.lam)
    cdot = (-par.b1 * c - (a + b) * (par.b0 + par.sigma_tilde1 * par.sigma_tilde0)
            - a * par.sigma1 * par.sigma0
            - gamma_c * ((a + b) * mixed + a * par.sigma1 * par.sigma2))
    return np.array([adot, bdot, cdot])


def matching_residuals(par: LQParameters, a, b, c, adot, bdot, cdot):
    """Raw coefficient-matching residuals of the affine representation.

    Written as the uncollected drift-matching identity (representation drift
    plus the Hamiltonian state derivative), so an algebra slip in the packed
    ODE right-hand side shows up against finite-difference time derivatives.
    """
    alpha, beta, gamma_c = _feedback(par, a, b, c)
    s0, s1, s2 = par.sigma_tilde0, par.sigma_tilde1, par.sigma_tilde2
    r_a = (adot + a * par.b1 + a * par.b2 * alpha
           + par.b1 * a + par.sigma1 * a * par.sigma1 + par.sigma1 * a * par.sigma2 * alpha
           + s1 * a * s1 + s1 * a * s2 * alpha + 2.0 * par.cx + 2.0 * par.c1)
    r_b = (bdot + a * par.kappa + a * par.b2 * beta + b * (par.kappa + par.b1)
           + b * par.b2 * (alpha + beta)
           + par.b1 * b + par.sigma1 * a * par.sigma2 * beta
           + s1 * (a * s2 * beta + b * s1 + b * s2 * (alpha + beta)) - 2.0 * par.c1 * par.lam)
    r_c = (cdot + (a + b) * par.b0 + (a + b) * par.b2 * gamma_c
           + par.b1 * c + par.sigma1 * (a * par.sigma0 + a * par.sigma2 * gamma_c)
           + s1 * (a * s0 + a * s2 * gamma_c + b * s0 + b * s2 * gamma_c))
    return r_a, r_b, r_c


@dataclass
class RiccatiSolution:
    """Backward-integrated affine-adjoint coefficients on fine and solver grids."""

    params: LQParameters
    t_fine: np.ndarray
    a_fine: np.ndarray
    b_fine: np.ndarray
    c_fine: np.ndarray
    grid: TimeGrid
    a: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)
    matching_residual_max: float = field(init=False)

    def __post_init__(self):
        nodes = self.grid.nodes
        self.a = np.interp(nodes, self.t_fine, self.a_fine)
        self.b = np.interp(nodes, self.t_fine, self.b_fine)
        self.c = np.interp(nodes, self.t_fine, self.c_fine)
        self.matching_residual_max = self._residual_max()

    def _residual_max(self) -> float:
        # 4th-order central differences on the interior of the fine grid
        h = self.t_fine[1] - self.t_fine[0]

        def d(y):
            return (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)

        sl = slice(2, -2)
        res = matching_residuals(self.params, self.a_fine[sl], self.b_fine[sl], self.c_fine[sl],
                                 d(self.a_fine), d(self.b_fine), d(self.c_fine))
        return float(max(np.max(np.abs(r)) for r in res))

    def feedback_at(self, idx: int):
        return _feedback(self.params, self.a[idx], self.b[idx], self.c[idx])

    def export_rows(self):
        return np.column_stack([self.grid.nodes, self.a, self.b, self.c])


def solve_riccati(params: LQParameters, grid: TimeGrid, refine: int | None = None,
                  residual_tol: float = 1e-8) -> RiccatiSolution:
    """Integrate the affine-adjoint ODEs backward from the terminal weights by RK4.

    The integration grid is at least ten times finer than the solver grid and
    never coarser than 400 steps overall, so the finite-difference residual
    check stays meaningful on coarse solver grids.
    """
    if refine is None:
        refine = max(10, -(-400 // grid.n_steps))
    n_fine = grid.n_steps * refine
    t_fine = np.linspace(0.0, params.horizon, n_fine + 1)
    h = params.horizon / n_fine
    y = np.array([2.0 * (params.cg0 + params.cg), -2.0 * params.cg * params.lamg, 0.0])
    out = np.empty((n_fine + 1, 3))
    out[n_fine] = y
    for i in range(n_fine, 0, -1):
        t = t_fine[i]
        k1 = _ode_rhs(params, *y)
        k2 = _ode_rhs(params, *(y - 0.5 * h * k1))
        k3 = _ode_rhs(params, *(y - 0.5 * h * k2))
        k4 = _ode_rhs(params, *(y - h * k3))
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.max(np.abs(y)) > _BLOWUP:
            raise SolverError(f"non-solvable LQ data: coefficient escape near t={t - h:.4f}")
        out[i - 1] = y
    sol = RiccatiSolution(params=params, t_fine=t_fine, a_fine=out[:, 0], b_fine=out[:, 1],
                          c_fine=out[:, 2], grid=grid)
    if sol.matching_residual_max > residual_tol:
        raise SolverError(
            f"affine-adjoint matching residual {sol.matching_residual_max:.2e} exceeds {residual_tol:.1e}")
    return sol


def oracle_loadings(params: LQParameters, a: float, b: float, x, u, mbar, ubar):
    """Diffusion loadings of the affine adjoint: q (individual) and q_tilde (common)."""
    q = a * (params.sigma0 + params.sigma1 * x + params.sigma2 * u)
    qt = (a * (params.sigma_tilde0 + params.sigma_tilde1 * x + params.sigma_tilde2 * u)
          + b * (params.sigma_tilde0 + params.sigma_tilde1 * mbar + params.sigma_tilde2 * ubar))
    return q, qt


def oracle_solution(params: LQParameters, noise: NoiseBundle, xi0: InitialLaw,
                    riccati: RiccatiSolution | None = None) -> SolutionBundle:
    """Closed-loop simulation of the affine feedback on the given noise bundle.

    The feedback and adjoint use the per-path empirical conditional mean, which
    puts the oracle on exactly the same information as the particle solvers it
    benchmarks; the first-order condition holds along the output up to float
    roundoff.
    """
    grid = noise.grid
    rs = riccati or solve_riccati(params, grid)
    m, k, n = noise.n_paths, noise.n_particles, grid.n_steps
    dt = grid.dt
    states = particle_array(m, k, n + 1)
    controls = particle_array(m, k, n)
    p = particle_array(m, k, n + 1)
    q = particle_array(m, k, n)
    qt = particle_array(m, k, n)
    states[:, :, 0] = noise.initial_states(xi0)

    for i in range(n + 1):
        x = states[:, :, i]
        mbar = x.mean(axis=1)[:, None]
        a_i, b_i, c_i = rs.a[i], rs.b[i], rs.c[i]
        p[:, :, i] = a_i * x + b_i * mbar + c_i
        if i == n:
            break
        alpha, beta, gamma_c = rs.feedback_at(i)
        u = alpha * x + beta * mbar + gamma_c
        ubar = (alpha + beta) * mbar + gamma_c
        controls[:, :, i] = u
        q[:, :, i], qt[:, :, i] = oracle_loadings(params, a_i, b_i, x, u, mbar, ubar)
        drift = params.b0 + params.kappa * mbar + params.b1 * x + params.b2 * u
        vol = params.sigma0 + params.sigma1 * x + params.sigma2 * u
        volc = params.sigma_tilde0 + params.sigma_tilde1 * x + params.sigma_tilde2 * u
        states[:, :, i + 1] = (x + drift * dt + vol * noise.dW[:, :, i]
                               + volc * noise.dW_common[:, i][:, None])

    flow = MeasureFlow(atoms=states, grid=grid)
    return SolutionBundle(states=states, controls=controls, p=p, q=q, q_tilde=qt,
                          flow=flow, grid=grid,
                          diagnostics={"source": "lq_oracle",
                                       "matching_residual_max": rs.matching_residual_max})


def conditional_mean_path(params: LQParameters, rs: RiccatiSolution, m0: float,
                          dw_common: np.ndarray) -> np.ndarray:
    """Euler integration of the closed conditional-mean dynamics on one common path."""
    n = dw_common.size
    dt = rs.grid.dt
    out = np.empty(n + 1)
    out[0] = m0
    for i in range(n):
        alpha, beta, gamma_c = rs.feedback_at(i)
        ubar = (alpha + beta) * out[i] + gamma_c
        drift = params.b0 + (params.kappa + params.b1) * out[i] + params.b2 * ubar
        diff = (params.sigma_tilde0 + params.sigma_tilde1 * out[i] + params.sigma_tilde2 * ubar)
        out[i + 1] = out[i] + drift * dt + diff * dw_common[i]
    return out


def _initial_moments(xi0: InitialLaw) -> tuple[float, float]:
    if xi0.kind == "constant":
        return xi0.mu, xi0.mu ** 2
    if xi0.kind == "normal":
        return xi0.mu, xi0.mu ** 2 + xi0.std ** 2
    atoms = np.asarray(xi0.atoms, dtype=float)
    return float(atoms.mean()), float(np.mean(atoms ** 2))


def lq_cost_oracle(params: LQParameters, xi0: InitialLaw, grid: TimeGrid,
                   riccati: RiccatiSolution | None = None, refine: int = 10) -> float:
    """Population-limit cost of the affine feedback via closed moment dynamics.

    Tracks (EX, EX^2, E[X mbar], E[mbar^2]) forward with RK4; the running and
    terminal quadratic costs are exact functionals of these moments.
    """
    rs = riccati or solve_riccati(params, grid)
    p1_0, p2_0 = _initial_moments(xi0)
    # mbar_0 is the deterministic initial mean in the population limit
    state = np.array([p1_0, p2_0, p1_0 ** 2, p1_0 ** 2, 0.0])  # P1, P2, C, Q2, running cost
    n_fine = grid.n_steps * refine
    h = params.horizon / n_fine
    t_fine = np.linspace(0.0, params.horizon, n_fine + 1)
    a_f = np.interp(t_fine, rs.t_fine, rs.a_fine)
    b_f = np.interp(t_fine, rs.t_fine, rs.b_fine)
    c_f = np.interp(t_fine, rs.t_fine, rs.c_fine)

    def rhs(i_frac: float, s):
        idx = i_frac
        a = np.interp(idx, t_fine, a_f)
        b = np.interp(idx, t_fine, b_f)
        c = np.interp(idx, t_fine, c_f)
        alpha, beta, gamma_c = _feedback(params, a, b, c)
        p1, p2, cx_m, q2, _ = s
        a_t = params.b1 + params.b2 * alpha
        b_t = params.kappa + params.b2 * beta
        c0 = params.b0 + params.b2 * gamma_c
        sig = (params.sigma0 + params.sigma2 * gamma_c, params.sigma1 + params.sigma2 * alpha,
               params.sigma2 * beta)
        sct = (params.sigma_tilde0 + params.sigma_tilde2 * gamma_c,
               params.sigma_tilde1 + params.sigma_tilde2 * alpha, params.sigma_tilde2 * beta)
        sbar = sct[1] + sct[2]

        def esq(coef):
            c0_, cx_, cm_ = coef
            return (c0_ ** 2 + cx_ ** 2 * p2 + cm_ ** 2 * q2 + 2 * c0_ * cx_ * p1
                    + 2 * c0_ * cm_ * p1 + 2 * cx_ * cm_ * cx_m)

        dp1 = c0 + (a_t + b_t) * p1
        dp2 = 2 * c0 * p1 + 2 * a_t * p2 + 2 * b_t * cx_m + esq(sig) + esq(sct)
        dc = (2 * c0 * p1 + a_t * cx_m + b_t * q2 + (a_t + b_t) * cx_m
              + sct[0] ** 2 + sct[0] * sbar * p1 + sct[1] * sct[0] * p1 + sct[1] * sbar * cx_m
              + sct[2] * sct[0] * p1 + sct[2] * sbar * q2)
        dq2 = 2 * c0 * p1 + 2 * (a_t + b_t) * q2 + sct[0] ** 2 + 2 * sct[0] * sbar * p1 + sbar ** 2 * q2
        e_usq = (gamma_c ** 2 + alpha ** 2 * p2 + beta ** 2 * q2 + 2 * gamma_c * alpha * p1
                 + 2 * gamma_c * beta * p1 + 2 * alpha * beta * cx_m)
        rate = (params.cu * e_usq + params.cx * p2
                + params.c1 * (p2 - 2 * params.lam * cx_m + params.lam ** 2 * q2))
        return np.array([dp1, dp2, dc, dq2, rate])

    for i in range(n_fine):
        t = t_fine[i]
        k1 = rhs(t, state)
        k2 = rhs(t + 0.5 * h, state + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, state + 0.5 * h * k2)
        k4 = rhs(t + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    _, p2, cx_m, q2, running = state
    terminal = params.cg0 * p2 + params.cg * (p2 - 2 * params.lamg * cx_m + params.lamg ** 2 * q2)
    return float(running + terminal)
