"""Backward regression solve and the coupled frozen-flow fixed point."""

import numpy as np
import pytest

from cnmfg.bsde import (SolutionBundle, TerminalCondition, check_terminal, control_rms,
                        picard_solve, solution_distance, solution_norm,
                        solve_bsde_given_control, terminal_from_cost)
from cnmfg.errors import SolverError
from cnmfg.forward_sim import (InitialLaw, NoiseBundle, OpenLoopControl, TimeGrid,
                               simulate_forward)
from cnmfg.measures import MeasureFlow, constant_flow
from cnmfg.lq_oracle import oracle_solution
from cnmfg.model import get_preset

from cnmfg.mfg_solvers import solve_stitched

from helpers import assert_steps_contiguous, simple_spec


def _ensemble(spec, noise, xi0, controls=None):
    m, k, n = noise.n_paths, noise.n_particles, noise.grid.n_steps
    u = np.zeros((m, k, n)) if controls is None else controls
    return simulate_forward(spec, OpenLoopControl(u), noise, xi0)


def test_constant_terminal_no_driver():
    # zero driver and v = c: p is the constant c, loadings vanish
    grid = TimeGrid(1.0, 20)
    noise = NoiseBundle(seed=1, n_paths=6, n_particles=64, grid=grid)
    spec = simple_spec(s0=0.5, st0=0.3)
    ens = _ensemble(spec, noise, InitialLaw(kind="normal", mu=0.0, std=1.0))
    tc = TerminalCondition(evaluate=lambda x, m: 3.5 + 0.0 * x, lipschitz=0.0)
    back = solve_bsde_given_control(spec, ens, ens.flow, tc, noise)
    # exact up to the ridge bias of the regularized per-path regressions
    assert np.max(np.abs(back.p - 3.5)) < 1e-6
    assert np.max(np.abs(back.q)) < 1e-6
    assert np.max(np.abs(back.q_tilde)) < 1e-6


def test_backward_solve_needs_the_flow_on_the_noise_grid():
    grid = TimeGrid(1.0, 10)
    noise = NoiseBundle(seed=1, n_paths=4, n_particles=8, grid=grid)
    spec = simple_spec(s0=0.5)
    tc = terminal_from_cost(spec)
    window = noise.window(2, 6)
    ens = _ensemble(spec, window, InitialLaw(kind="constant", mu=0.0))
    back = solve_bsde_given_control(spec, ens, ens.flow, tc, window)
    assert back.grid is window.grid and back.p.shape == (4, 8, 5)
    # a full-grid flow with a window would read the wrong nodes
    with pytest.raises(SolverError, match="noise grid"):
        solve_bsde_given_control(spec, ens, constant_flow(0.0, grid, 4), tc, window)
    with pytest.raises(SolverError, match="noise grid"):
        solve_bsde_given_control(spec, ens, ens.flow, tc, noise)


def test_martingale_representation_identity_terminal():
    # dX = dW, v(x) = x: p = X, q = 1, q_tilde = 0 within regression tolerance
    grid = TimeGrid(1.0, 20)
    noise = NoiseBundle(seed=2, n_paths=8, n_particles=4096, grid=grid)
    spec = simple_spec(s0=1.0)
    ens = _ensemble(spec, noise, InitialLaw(kind="normal", mu=0.0, std=1.0))
    tc = TerminalCondition(evaluate=lambda x, m: x, lipschitz=1.0)
    back = solve_bsde_given_control(spec, ens, ens.flow, tc, noise)
    assert np.sqrt(np.mean((back.p - ens.states) ** 2)) < 0.05
    assert np.sqrt(np.mean((back.q - 1.0) ** 2)) < 0.05
    assert np.sqrt(np.mean(back.q_tilde ** 2)) < 0.05

    # terminal slice is exact
    assert np.array_equal(back.p[:, :, -1], ens.states[:, :, -1])

    # zero-driver martingale property: per-path means of p constant across steps
    path_means = back.p.mean(axis=1)
    dev = path_means - path_means[:, -1][:, None]
    assert np.sqrt(np.mean(dev ** 2)) < 0.05


def test_lq_backward_matches_affine_representation():
    preset = get_preset("lq")
    grid = TimeGrid(1.0, 50)
    noise = NoiseBundle(seed=3, n_paths=32, n_particles=256, grid=grid)
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    ob = oracle_solution(preset.lq_params, noise, xi0)
    back = solve_bsde_given_control(preset.spec, ob.ensemble, ob.flow,
                                    terminal_from_cost(preset.spec), noise)
    # regression of the estimated adjoint on the affine representation
    for step in (0, 10, 25, 40):
        x = ob.states[:, :, step].ravel()
        mbar = np.repeat(ob.states[:, :, step].mean(axis=1), 256)
        design = np.column_stack([np.ones_like(x), x, mbar])
        y = back.p[:, :, step].ravel()
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        fitted = design @ coef
        r2 = 1 - np.mean((y - fitted) ** 2) / np.var(y)
        assert r2 >= 0.99
    rel = np.sqrt(np.mean((back.p - ob.p) ** 2)) / np.sqrt(np.mean(ob.p ** 2))
    assert rel < 0.05


def test_no_control_in_dynamics_converges_in_one_sweep():
    # b2 = sigma2 = sigma_tilde2 = 0 and f0 = cu u^2: the minimizer is 0 regardless
    grid = TimeGrid(1.0, 10)
    noise = NoiseBundle(seed=4, n_paths=4, n_particles=16, grid=grid)
    spec = simple_spec(b1=0.3, s0=0.2)
    bundle = picard_solve(spec, noise, terminal_from_cost(spec),
                          xi0=InitialLaw(kind="constant", mu=1.0), tol=1e-6)
    assert bundle.diagnostics["iterations"] == 1
    assert np.all(bundle.controls == 0.0)


def test_frozen_dirac_flow_matches_decoupled_riccati_feedback():
    # freezing the flow at a point mass removes every mean coupling, so the
    # solve must match the oracle with the couplings switched off
    preset = get_preset("lq")
    grid = TimeGrid(1.0, 50)
    noise = NoiseBundle(seed=5, n_paths=16, n_particles=128, grid=grid)
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    flow = constant_flow(0.0, grid, 16)
    bundle = picard_solve(preset.spec, noise, terminal_from_cost(preset.spec), xi0=xi0,
                          frozen_flow=flow, tol=1e-5)
    import dataclasses

    decoupled = dataclasses.replace(preset.lq_params, lam=0.0, lamg=0.0, kappa=0.0)
    ob = oracle_solution(decoupled, noise, xi0)
    rel = (np.sqrt(np.mean((bundle.controls - ob.controls) ** 2))
           / np.sqrt(np.mean(ob.controls ** 2)))
    assert rel < 0.02
    assert bundle.diagnostics["first_order_residual"] <= 10 * 1e-5


def test_solution_norm_and_distance():
    grid = TimeGrid(1.0, 2)
    dt = 0.5
    states = np.array([[[1.0, -2.0, 0.5], [0.0, 1.0, 2.0]]])   # one path, two particles
    p = np.array([[[0.5, 1.0, -1.0], [2.0, 0.0, 1.0]]])
    controls = np.array([[[1.0, 2.0], [0.0, -1.0]]])
    q = np.array([[[0.5, 0.0], [1.0, 1.0]]])
    qt = np.array([[[0.0, 0.5], [0.5, 0.0]]])
    flow = MeasureFlow(atoms=states, grid=grid)
    bundle = SolutionBundle(states=states, controls=controls, p=p, q=q, q_tilde=qt,
                            flow=flow, grid=grid)
    # spreadsheet arithmetic: sup_n (X^2 + p^2) per particle, then time sums
    sup1 = max(1 + 0.25, 4 + 1, 0.25 + 1)
    sup2 = max(0 + 4, 1 + 0, 4 + 1)
    int1 = (1 + 0.25 + 0) * dt + (4 + 0 + 0.25) * dt
    int2 = (0 + 1 + 0.25) * dt + (1 + 1 + 0) * dt
    expected = np.sqrt((sup1 + sup2) / 2 + (int1 + int2) / 2)
    assert solution_norm(bundle) == pytest.approx(expected, rel=1e-12)

    zero = SolutionBundle(states=0 * states, controls=0 * controls, p=0 * p, q=0 * q,
                          q_tilde=0 * qt, flow=flow, grid=grid)
    assert solution_norm(zero) == 0.0
    for lam in (0.5, 3.0):
        scaled = SolutionBundle(states=lam * states, controls=lam * controls, p=lam * p,
                                q=lam * q, q_tilde=lam * qt, flow=flow, grid=grid)
        assert solution_norm(scaled) == pytest.approx(lam * solution_norm(bundle), rel=1e-12)
    assert solution_distance(bundle, zero) == pytest.approx(solution_norm(bundle), rel=1e-12)

    other = SolutionBundle(states=np.zeros((1, 2, 4)), controls=np.zeros((1, 2, 3)),
                           p=np.zeros((1, 2, 4)), q=np.zeros((1, 2, 3)),
                           q_tilde=np.zeros((1, 2, 3)),
                           flow=MeasureFlow(atoms=np.zeros((1, 2, 4)), grid=TimeGrid(1.0, 3)),
                           grid=TimeGrid(1.0, 3))
    with pytest.raises(SolverError):
        solution_distance(bundle, other)


def test_iteration_cap_raises_with_history():
    preset = get_preset("lq")
    grid = TimeGrid(1.0, 10)
    noise = NoiseBundle(seed=6, n_paths=4, n_particles=32, grid=grid)
    with pytest.raises(SolverError) as err:
        picard_solve(preset.spec, noise, terminal_from_cost(preset.spec),
                     xi0=InitialLaw(kind="constant", mu=1.0), tol=1e-16, max_iter=3)
    assert len(err.value.history["residuals"]) == 3


def test_picard_residuals_monotone_after_second_iterate():
    preset = get_preset("lq")
    grid = TimeGrid(1.0, 40)
    noise = NoiseBundle(seed=7, n_paths=16, n_particles=64, grid=grid)
    bundle = picard_solve(preset.spec, noise, terminal_from_cost(preset.spec),
                          xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=1e-4)
    h = bundle.residual_history
    assert all(h[i + 1] <= h[i] * (1 + 1e-12) for i in range(1, len(h) - 1))


def test_monotone_terminal_propagates_to_initial_adjoint():
    # paired frozen-flow solves from shifted initial states: the sampled product
    # of initial adjoint gaps with state gaps stays essentially nonnegative
    preset = get_preset("lq")
    grid = TimeGrid(1.0, 25)
    noise = NoiseBundle(seed=8, n_paths=8, n_particles=64, grid=grid)
    flow = constant_flow(0.5, grid, 8)
    tc = terminal_from_cost(preset.spec)
    b1 = picard_solve(preset.spec, noise, tc, xi0=InitialLaw(kind="normal", mu=0.5, std=0.4),
                      frozen_flow=flow, tol=1e-5)
    b2_init = noise.initial_states(InitialLaw(kind="normal", mu=0.5, std=0.4)) + 0.6
    b2 = picard_solve(preset.spec, noise, tc, init_states=b2_init, frozen_flow=flow, tol=1e-5)
    dp = b2.p[:, :, 0] - b1.p[:, :, 0]
    dx = b2.states[:, :, 0] - b1.states[:, :, 0]
    scale = np.sqrt(np.mean(dp ** 2)) * np.sqrt(np.mean(dx ** 2))
    assert np.mean(dp * dx) >= -0.05 * scale


def test_check_terminal_diagnostics():
    rng = np.random.default_rng(0)
    good = terminal_from_cost(get_preset("lq").spec)
    out = check_terminal(good, rng)
    assert out["monotone_ok"] and out["lipschitz_ok"]

    bad = TerminalCondition(evaluate=lambda x, m: -x, lipschitz=1.0)
    out = check_terminal(bad, np.random.default_rng(1))
    assert not out["monotone_ok"]


def test_control_rms_unit():
    u = np.ones((2, 3, 10))
    assert control_rms(u, 0.1, 1.0) == pytest.approx(1.0)


def _bundle_arrays(bundle):
    return (bundle.states, bundle.controls, bundle.p, bundle.q, bundle.q_tilde, bundle.flow.atoms)


def test_solution_arrays_are_stored_time_major():
    preset = get_preset("lq")
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    grid = TimeGrid(1.0, 10)
    noise = NoiseBundle(seed=14, n_paths=8, n_particles=32, grid=grid)
    terminal = terminal_from_cost(preset.spec)

    oracle = oracle_solution(preset.lq_params, noise, xi0)
    assert_steps_contiguous(*_bundle_arrays(oracle))
    bundle = picard_solve(preset.spec, noise, terminal, xi0=xi0, tol=2e-3)
    assert_steps_contiguous(*_bundle_arrays(bundle))
    stitched, _ = solve_stitched(preset.spec, xi0, noise, tol=2e-3)
    assert_steps_contiguous(*_bundle_arrays(stitched))

    # a C-ordered start (as a resumed run loads it) gives the same controls,
    # bit for bit, as the same start stored time-major
    start = np.ascontiguousarray(oracle.controls)
    from_c = picard_solve(preset.spec, noise, terminal, xi0=xi0, u0=start, tol=2e-3)
    from_tm = picard_solve(preset.spec, noise, terminal, xi0=xi0, u0=oracle.controls, tol=2e-3)
    assert_steps_contiguous(*_bundle_arrays(from_c))
    assert np.array_equal(from_c.controls, from_tm.controls)
    assert from_c.residual_history == from_tm.residual_history
    assert np.array_equal(start, oracle.controls)      # the caller's start is not written
