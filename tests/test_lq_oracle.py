"""Riccati oracle: derivation validation by residual substitution and closed forms."""

import dataclasses

import numpy as np
import pytest

from cnmfg.errors import ModelError, SolverError
from cnmfg.forward_sim import InitialLaw, NoiseBundle, TimeGrid, simulate_forward, OpenLoopControl
from cnmfg.lq_oracle import (LQParameters, RiccatiSolution, lq_cost_oracle, oracle_loadings,
                             oracle_solution, solve_riccati, _feedback, _ode_rhs)
from cnmfg.model import cost_functional, get_preset
from cnmfg.nplayer import FeedbackStrategy, limit_mean_path


def make_params(**kw):
    base = dict(b0=0.0, kappa=0.0, b1=0.2, b2=1.0, sigma0=0.2, sigma1=0.0, sigma2=0.0,
                sigma_tilde0=0.3, sigma_tilde1=0.0, sigma_tilde2=0.0,
                cu=1.0, cx=0.25, c1=0.5, lam=0.8, cg0=0.25, cg=0.5, lamg=0.8, horizon=1.0)
    base.update(kw)
    return LQParameters(**base)


GENERAL = make_params(b0=0.1, kappa=0.3, b1=-0.2, b2=0.9, sigma0=0.25, sigma1=0.15, sigma2=0.1,
                      sigma_tilde0=0.2, sigma_tilde1=0.1, sigma_tilde2=0.05,
                      cu=1.2, cx=0.3, c1=0.4, lam=0.7, cg0=0.2, cg=0.4, lamg=0.6)


def test_zero_cost_gives_zero_coefficients_and_control():
    params = make_params(cx=0.0, c1=0.0, cg0=0.0, cg=0.0)
    rs = solve_riccati(params, TimeGrid(1.0, 20))
    assert np.allclose(rs.a, 0.0) and np.allclose(rs.b, 0.0) and np.allclose(rs.c, 0.0)
    alpha, beta, gamma_c = rs.feedback_at(0)
    assert alpha == beta == gamma_c == 0.0


def test_scalar_riccati_tanh_closed_form_and_independent_rk4():
    # no coupling, b1 = 0, b2 = 1, cost u^2 + x^2, zero terminal weight:
    # da/dt = a^2/2 - 2 with a(T) = 0, closed form a(t) = 2 tanh(T - t)
    params = make_params(kappa=0.0, b1=0.0, b2=1.0, sigma0=0.0, sigma_tilde0=0.0,
                         cu=1.0, cx=1.0, c1=0.0, lam=0.0, cg0=0.0, cg=0.0, lamg=0.0)
    grid = TimeGrid(1.0, 50)
    rs = solve_riccati(params, grid)
    assert rs.a[0] == pytest.approx(2.0 * np.tanh(1.0), rel=1e-8)
    assert np.allclose(rs.a, 2.0 * np.tanh(1.0 - grid.nodes), atol=1e-8)

    # independent fine-grid RK4 of the derived scalar equation, written inline
    a, h = 0.0, 1.0 / 4000

    def f(a):
        return a * a / 2.0 - 2.0

    for _ in range(4000):
        k1, k2 = f(a), f(a - 0.5 * h * f(a))
        k3 = f(a - 0.5 * h * k2)
        k4 = f(a - h * k3)
        a = a - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert rs.a[0] == pytest.approx(a, rel=1e-9)


def test_matching_residual_small_for_general_params():
    rs = solve_riccati(GENERAL, TimeGrid(1.0, 40))
    assert rs.matching_residual_max <= 1e-8


def test_rk4_order_under_grid_halving():
    grid = TimeGrid(1.0, 10)
    ref = solve_riccati(GENERAL, grid, refine=160)
    errs = []
    for refine in (10, 20, 40):
        rs = solve_riccati(GENERAL, grid, refine=refine)
        errs.append(np.max(np.abs(rs.a_fine[0] - ref.a_fine[0])))
    assert 12 <= errs[0] / errs[1] <= 20
    assert 12 <= errs[1] / errs[2] <= 20


def test_blowup_detection():
    # convex data never escapes; force a finite-time escape with a concave
    # running cost injected past validation to exercise the guard
    import dataclasses

    params = make_params(b1=0.0, b2=1.0, cu=1.0, c1=0.0, cg0=0.0, cg=0.0, horizon=6.0)
    object.__setattr__(params, "cx", -5.0)
    assert dataclasses.asdict(params)["cx"] == -5.0
    with pytest.raises(SolverError, match="non-solvable LQ data"):
        solve_riccati(params, TimeGrid(6.0, 60))


def _reference_riccati_fine(params, grid):
    """The RK4 loop on a numpy state vector: each stage an array of numpy scalars."""
    refine = max(10, -(-400 // grid.n_steps))
    n_fine = grid.n_steps * refine
    h = params.horizon / n_fine
    y = np.array([2.0 * (params.cg0 + params.cg), -2.0 * params.cg * params.lamg, 0.0])
    out = np.empty((n_fine + 1, 3))
    out[n_fine] = y
    for i in range(n_fine, 0, -1):
        k1 = np.array(_ode_rhs(params, *y))
        k2 = np.array(_ode_rhs(params, *(y - 0.5 * h * k1)))
        k3 = np.array(_ode_rhs(params, *(y - 0.5 * h * k2)))
        k4 = np.array(_ode_rhs(params, *(y - h * k3)))
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i - 1] = y
    return out


def test_float_rk4_equals_array_form_reference_bit_for_bit():
    for name in ("lq", "lq_drift_coupled", "lq_small_bu", "mean_reverting"):
        params = get_preset(name).lq_params
        for n_steps in (12, 25, 100):
            grid = TimeGrid(params.horizon, n_steps)
            got = solve_riccati(params, grid)
            out = _reference_riccati_fine(params, grid)
            want = RiccatiSolution(params=params, t_fine=got.t_fine, a_fine=out[:, 0],
                                   b_fine=out[:, 1], c_fine=out[:, 2], grid=grid)
            for key in ("a_fine", "b_fine", "c_fine"):
                assert np.array_equal(getattr(got, key), getattr(want, key)), (name, n_steps, key)
            assert got.matching_residual_max == want.matching_residual_max


def test_stiff_valid_data_solves_with_finer_integration():
    params = make_params(cx=8.0, b1=1.5, horizon=2.0, cg0=4.0, cg=0.0)
    rs = solve_riccati(params, TimeGrid(2.0, 40), refine=40)
    assert rs.matching_residual_max <= 1e-8
    assert np.all(rs.a >= 0.0)  # convex data keeps the quadratic coefficient nonnegative


def test_parameter_validation():
    with pytest.raises(ModelError):
        make_params(cu=0.0)
    with pytest.raises(ModelError):
        make_params(cx=-1.0)
    with pytest.raises(ModelError):
        make_params(lam=1.5)


def test_ansatz_step_residual_vs_discrete_dynamics():
    """Substitute the affine representation into one Euler step of the dynamics.

    Because the representation is affine, all second-order terms vanish and the
    adjoint increment identity must hold to O(dt^{3/2}); any algebra slip in
    the ODEs, the feedback, or the loadings would surface at O(dt) or
    O(sqrt(dt)).
    """
    params = GENERAL
    dt = 1e-4
    grid = TimeGrid(params.horizon, int(round(params.horizon / dt)))
    rs = solve_riccati(params, grid, refine=2)
    rng = np.random.default_rng(11)
    t_fine, a_f, b_f, c_f = rs.t_fine, rs.a_fine, rs.b_fine, rs.c_fine

    def coef(t):
        return (np.interp(t, t_fine, a_f), np.interp(t, t_fine, b_f), np.interp(t, t_fine, c_f))

    worst = 0.0
    for _ in range(200):
        t = float(rng.uniform(0.0, params.horizon - 2 * dt))
        x = float(rng.uniform(-2, 2))
        mbar = float(rng.uniform(-2, 2))
        dw = float(rng.choice([-1, 1])) * np.sqrt(dt)
        dwc = float(rng.choice([-1, 1])) * np.sqrt(dt)
        a, b, c = coef(t)
        alpha, beta, gamma_c = _feedback(params, a, b, c)
        u = alpha * x + beta * mbar + gamma_c
        ubar = (alpha + beta) * mbar + gamma_c
        p = a * x + b * mbar + c
        q, qt = oracle_loadings(params, a, b, x, u, mbar, ubar)

        # first-order condition is an algebraic identity of the feedback solve
        foc = 2 * params.cu * u + params.b2 * p + params.sigma2 * q + params.sigma_tilde2 * qt
        assert abs(foc) < 1e-10

        drift_x = params.b0 + params.kappa * mbar + params.b1 * x + params.b2 * u
        vol = params.sigma0 + params.sigma1 * x + params.sigma2 * u
        volc = params.sigma_tilde0 + params.sigma_tilde1 * x + params.sigma_tilde2 * u
        x1 = x + drift_x * dt + vol * dw + volc * dwc
        drift_m = params.b0 + (params.kappa + params.b1) * mbar + params.b2 * ubar
        volm = params.sigma_tilde0 + params.sigma_tilde1 * mbar + params.sigma_tilde2 * ubar
        m1 = mbar + drift_m * dt + volm * dwc

        a1, b1_, c1_ = coef(t + dt)
        p1 = a1 * x1 + b1_ * m1 + c1_
        hx = (params.b1 * p + params.sigma1 * q + params.sigma_tilde1 * qt
              + 2 * params.cx * x + 2 * params.c1 * (x - params.lam * mbar))
        residual = p1 - p + hx * dt - q * dw - qt * dwc
        worst = max(worst, abs(residual))
    assert worst < 1e-5


def test_oracle_bundle_first_order_condition_and_terminal():
    grid = TimeGrid(1.0, 50)
    noise = NoiseBundle(seed=42, n_paths=8, n_particles=64, grid=grid)
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    bundle = oracle_solution(GENERAL, noise, xi0)

    # optimality condition residual before any Monte Carlo noise: pure algebra
    for step in (0, 20, 49):
        x = bundle.states[:, :, step]
        r = (2 * GENERAL.cu * bundle.controls[:, :, step] + GENERAL.b2 * bundle.p[:, :, step]
             + GENERAL.sigma2 * bundle.q[:, :, step]
             + GENERAL.sigma_tilde2 * bundle.q_tilde[:, :, step])
        assert np.max(np.abs(r)) < 1e-8
        del x

    # terminal adjoint equals the terminal-cost gradient at the empirical mean
    mbar_T = bundle.states[:, :, -1].mean(axis=1)[:, None]
    gx = (2 * (GENERAL.cg0 + GENERAL.cg) * bundle.states[:, :, -1]
          - 2 * GENERAL.cg * GENERAL.lamg * mbar_T)
    assert np.max(np.abs(bundle.p[:, :, -1] - gx)) < 1e-10


def test_conditional_mean_follows_closed_dynamics():
    grid = TimeGrid(1.0, 100)
    noise = NoiseBundle(seed=7, n_paths=16, n_particles=512, grid=grid)
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    rs = solve_riccati(GENERAL, grid)
    bundle = oracle_solution(GENERAL, noise, xi0)
    emp = bundle.states.mean(axis=1)
    spec = get_preset("lq", dataclasses.asdict(GENERAL)).spec
    strategy = FeedbackStrategy.from_riccati(rs)

    errs = []
    for j in range(16):
        ode = limit_mean_path(spec, strategy, float(emp[j, 0]), noise.dW_common[j:j + 1], grid)[0]
        errs.append(np.max(np.abs(emp[j] - ode)))
    # the only gap is the within-path idiosyncratic average: scale sigma/sqrt(K)
    vol_scale = float(np.mean(np.abs(GENERAL.sigma0 + GENERAL.sigma1 * bundle.states
                                     + GENERAL.sigma2 * 0.0)))
    bound = 3 * vol_scale * np.sqrt(grid.horizon / 512) * 3  # growth slack factor
    assert np.median(errs) < bound


def test_cost_functional_matches_moment_oracle():
    preset = get_preset("lq")
    grid = TimeGrid(1.0, 100)
    noise = NoiseBundle(seed=13, n_paths=64, n_particles=256, grid=grid)
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    bundle = oracle_solution(preset.lq_params, noise, xi0)
    j_mc = cost_functional(preset.spec, bundle)
    j_oracle = lq_cost_oracle(preset.lq_params, xi0, grid)
    assert j_mc == pytest.approx(j_oracle, rel=0.05)


def test_cost_functional_trivial_cases():
    # f = 1, g = 0, horizon 2 -> J = 2; f = 0, g = x^2, X_T = 3 -> J = 9
    from helpers import simple_spec

    spec = simple_spec(horizon=2.0)
    spec.cost.f0 = lambda t, x, u: 1.0 + 0.0 * np.asarray(u)
    grid = TimeGrid(2.0, 8)
    noise = NoiseBundle(seed=1, n_paths=2, n_particles=4, grid=grid)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((2, 4, 8))), noise,
                           InitialLaw(kind="constant", mu=0.0))

    class Sol:
        states, controls, flow = ens.states, ens.controls, ens.flow
        grid = ens.grid

    assert cost_functional(spec, Sol) == pytest.approx(2.0, abs=1e-12)

    spec2 = simple_spec(horizon=2.0)
    spec2.cost.g = lambda x, m: np.asarray(x) ** 2
    ens2 = simulate_forward(spec2, OpenLoopControl(np.zeros((2, 4, 8))), noise,
                            InitialLaw(kind="constant", mu=3.0))

    class Sol2:
        states, controls, flow = ens2.states, ens2.controls, ens2.flow
        grid = ens2.grid

    assert cost_functional(spec2, Sol2) == pytest.approx(9.0, abs=1e-12)
