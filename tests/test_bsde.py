"""Backward regression solve and the coupled frozen-flow fixed point."""

import numpy as np
import pytest

from cnmfg import bsde
from cnmfg.bsde import (SolutionBundle, control_rms, first_order_residual, picard_solve,
                        solution_distance, solution_norm, solve_bsde_given_control,
                        terminal_from_cost)
from cnmfg.errors import SolverError
from cnmfg.forward_sim import (InitialLaw, NoiseBundle, OpenLoopControl, ParticleEnsemble,
                               TimeGrid, simulate_forward)
from cnmfg.measures import MeasureFlow
from cnmfg.lq_oracle import oracle_solution, solve_riccati
from cnmfg.model import control_loading, get_preset, hamiltonian_dx

from cnmfg.mfg_solvers import solve_scaled_fbsde, solve_stitched
from cnmfg.nplayer import FeedbackStrategy, simulate_nplayer

from helpers import assert_steps_contiguous, constant_flow, count_f0u_calls, simple_spec


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
    back = solve_bsde_given_control(spec, ens, ens.flow, lambda x, m: 3.5 + 0.0 * x, noise)
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
    back = solve_bsde_given_control(spec, ens, ens.flow, lambda x, m: x, noise)
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
    ensemble = ParticleEnsemble(states=ob.states, controls=ob.controls, grid=ob.grid)
    back = solve_bsde_given_control(preset.spec, ensemble, ob.flow,
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
    assert first_order_residual(preset.spec, bundle) <= 10 * 1e-5


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
    # against the whole-array formula: the node-by-node sums change rounding only
    rng = np.random.default_rng(4)
    pair = [SolutionBundle(states=rng.normal(size=(3, 5, 7)), controls=rng.normal(size=(3, 5, 6)),
                           p=rng.normal(size=(3, 5, 7)), q=rng.normal(size=(3, 5, 6)),
                           q_tilde=rng.normal(size=(3, 5, 6)), flow=flow, grid=TimeGrid(1.0, 6))
            for _ in range(2)]
    b1, b2 = pair
    sup = np.max((b1.states - b2.states) ** 2 + (b1.p - b2.p) ** 2, axis=2)
    running = np.sum((b1.controls - b2.controls) ** 2 + (b1.q - b2.q) ** 2
                     + (b1.q_tilde - b2.q_tilde) ** 2) / 6
    assert solution_distance(b1, b2) == pytest.approx(np.sqrt(np.mean(sup) + running / sup.size),
                                                      rel=1e-12)

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


def _ridge_fit(basis, target, ridge):
    """Ridge coefficients by lstsq on the augmented system [basis; sqrt(ridge) I]."""
    b = basis.shape[1]
    aug = np.vstack([basis, np.sqrt(ridge) * np.eye(b)])
    return np.linalg.lstsq(aug, np.concatenate([target, np.zeros(b)]), rcond=None)[0]


def _reference_backward(spec, ens, noise, terminal, plan):
    """The backward pass written out plainly, one lstsq per path and per step.

    ``plan`` maps a step to its z2 gate; a step missing from it is decided here
    and recorded.
    """
    states, flow, grid = ens.states, ens.flow, noise.grid
    m, k, n_nodes = states.shape
    span, dt = n_nodes - 1, grid.dt
    p, q, qt = np.zeros((m, k, n_nodes)), np.zeros((m, k, span)), np.zeros((m, k, span))
    p[:, :, span] = terminal(states[:, :, span], flow.at(span))
    r2, degenerate = np.zeros(span), 0
    for n in reversed(range(span)):
        t, x, y = grid.nodes[n], states[:, :, n], p[:, :, n + 1]
        if x.std() < 1e-10 * (1.0 + abs(x.mean())):
            degenerate += 1
            basis = np.ones((m, k, 1))
        else:
            z = (x - x.mean()) / x.std()
            basis = np.stack([np.ones_like(z), z, z * z], axis=2)
        coef = np.array([_ridge_fit(basis[j], y[j], 1e-9 * k) for j in range(m)])
        resid = y - np.einsum("jkb,jb->jk", basis, coef)
        coef_q = np.array([_ridge_fit(basis[j], resid[j] * noise.dW[j, :, n] / dt, 1e-9 * k)
                           for j in range(m)])

        # cross-path regression of the per-path coefficients
        mbar = flow.means[:, n]
        dm = flow.means[:, n + 1] - mbar
        dwc = noise.dW_common[:, n]
        if mbar.std() > 1e-12:
            mb = (mbar - mbar.mean()) / mbar.std()
            levels, factors = [np.ones(m), mb], [dwc, mb * dwc]
        else:
            mb = np.zeros(m)
            levels, factors = [np.ones(m)], [dwc]
        base = np.column_stack(levels + factors)
        z2 = dm - base @ np.linalg.lstsq(base, dm, rcond=None)[0]
        plan.setdefault(n, bool(np.var(z2) > 0.05 * np.var(dm)))
        if plan[n]:
            factors += [z2, mb * z2] if len(levels) == 2 else [z2]
        design = np.column_stack(levels + factors)
        sol = np.linalg.lstsq(design, coef, rcond=None)[0]
        n_level = len(levels)
        coef_qt = sol[n_level][None, :] + (mb[:, None] * sol[n_level + 1] if n_level == 2 else 0.0)
        factor_part = design[:, n_level:] @ sol[n_level:]

        q[:, :, n] = np.einsum("jkb,jb->jk", basis, coef_q)
        qt[:, :, n] = np.einsum("jkb,jb->jk", basis, coef_qt)
        cond_exp = np.einsum("jkb,jb->jk", basis, coef - factor_part)
        rest = hamiltonian_dx(spec, t, x, 0.0, q[:, :, n], qt[:, :, n], ens.controls[:, :, n],
                              flow.at(n))
        p[:, :, n] = (cond_exp + rest * dt) / (1.0 - spec.drift.phi1(t) * dt)
        r2[n] = 1.0 - np.mean(resid ** 2) / np.var(y)
    return p, q, qt, r2, degenerate


def test_backward_pass_matches_plain_lstsq_reference():
    # a constant initial law makes step 0 degenerate (one state per path)
    spec = get_preset("lq_drift_coupled").spec
    assert spec.measure_coupled
    grid = TimeGrid(1.0, 6)
    noise = NoiseBundle(seed=12, n_paths=8, n_particles=16, grid=grid)
    rng = np.random.default_rng(3)
    ens = _ensemble(spec, noise, InitialLaw(kind="constant", mu=1.0),
                    controls=0.5 * rng.standard_normal((8, 16, 6)))
    terminal = terminal_from_cost(spec)

    def check(gate_plan, plan):
        back = solve_bsde_given_control(spec, ens, ens.flow, terminal, noise,
                                        design=bsde._cross_path_design(spec, ens.flow, noise, gate_plan))
        p, q, qt, r2, degenerate = _reference_backward(spec, ens, noise, terminal, plan)
        for got, want in ((back.p, p), (back.q, q), (back.q_tilde, qt),
                          (back.diagnostics["r_squared"], r2)):
            assert np.max(np.abs(got - want)) < 1e-10
        assert degenerate == 1
        assert back.diagnostics["warnings"] == [
            "regression fell back to intercept-only basis on 1 steps"]
        assert gate_plan == {("z2", n): plan[n] for n in range(6)}

    gate_plan, plan = {}, {}
    check(gate_plan, plan)
    # the z2 column is in play on some steps and not on others
    assert 0 < sum(plan.values()) < 6

    # a filled plan is reused as given, not decided again
    flipped = {key: not use for key, use in gate_plan.items()}
    check(flipped, {n: not use for n, use in plan.items()})


def test_blocked_geometry_matches_plain_lstsq_reference(monkeypatch):
    # 10 steps of 8 x 16 states in blocks of 3 steps: [7, 10), [4, 7), [1, 4) and
    # the remainder [0, 1); the states of step 5, inside a block, all coincide
    spec = get_preset("lq_drift_coupled").spec
    grid = TimeGrid(1.0, 10)
    noise = NoiseBundle(seed=12, n_paths=8, n_particles=16, grid=grid)
    rng = np.random.default_rng(5)
    ens = _ensemble(spec, noise, InitialLaw(kind="normal", mu=1.0, std=0.5),
                    controls=0.5 * rng.standard_normal((8, 16, 10)))
    ens.states[:, :, 5] = 0.7
    terminal = terminal_from_cost(spec)
    monkeypatch.setattr(bsde, "_GEOMETRY_BLOCK", 3 * 8 * 16)
    blocks = []
    real = bsde._regression_geometry

    def recording(states, lo, hi, ridge):
        blocks.append((lo, hi))
        return real(states, lo, hi, ridge)

    monkeypatch.setattr(bsde, "_regression_geometry", recording)
    gate_plan = {}
    back = solve_bsde_given_control(spec, ens, ens.flow, terminal, noise,
                                    design=bsde._cross_path_design(spec, ens.flow, noise, gate_plan))
    assert blocks == [(7, 10), (4, 7), (1, 4), (0, 1)]
    p, q, qt, r2, degenerate = _reference_backward(
        spec, ens, noise, terminal, {n: gate_plan[("z2", n)] for n in range(10)})
    for got, want in ((back.p, p), (back.q, q), (back.q_tilde, qt),
                      (back.diagnostics["r_squared"], r2)):
        assert np.max(np.abs(got - want)) < 1e-10
    assert degenerate == 1
    assert back.diagnostics["warnings"] == [
        "regression fell back to intercept-only basis on 1 steps"]


def test_picard_never_writes_its_start():
    preset = get_preset("lq")
    grid = TimeGrid(1.0, 10)
    noise = NoiseBundle(seed=9, n_paths=8, n_particles=32, grid=grid)
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    terminal = terminal_from_cost(preset.spec)
    # a time-major start is used without a copy
    start = 0.5 * oracle_solution(preset.lq_params, noise, xi0).controls
    assert_steps_contiguous(start)
    kept = start.copy()
    start.setflags(write=False)
    read_only = picard_solve(preset.spec, noise, terminal, xi0=xi0, u0=start, tol=1e-4)
    assert len(read_only.residual_history) >= 3
    assert np.array_equal(start, kept)
    writable = picard_solve(preset.spec, noise, terminal, xi0=xi0, u0=kept.copy(order="K"),
                            tol=1e-4)
    assert read_only.residual_history == writable.residual_history
    # the returned live flow holds no sorted copy of its atoms
    assert read_only.flow._sorted is None


def test_nan_terminal_raises_solver_error_on_the_first_sweep():
    grid = TimeGrid(1.0, 10)
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    for name in ("lq", "quartic_control"):
        noise = NoiseBundle(seed=3, n_paths=8, n_particles=32, grid=grid)
        with pytest.raises(SolverError, match="non-finite control residual at sweep 1") as err:
            picard_solve(get_preset(name).spec, noise, lambda x, m: np.full_like(x, np.nan),
                         xi0=xi0, tol=1e-4)
        history = err.value.history
        assert len(history["residuals"]) == 1 and np.isnan(history["residuals"][0])
        assert history["flow_distances"] == []


def test_quartic_solve_f0u_evaluation_count():
    # the closed-form minimizer evaluates f0u once per call: one call per step
    # of each of the 8 sweeps on 10 steps
    preset = get_preset("quartic_control")
    spec = preset.spec
    calls = count_f0u_calls(spec.cost)
    noise = NoiseBundle(seed=3, n_paths=8, n_particles=32, grid=TimeGrid(1.0, 10))
    bundle = picard_solve(spec, noise, terminal_from_cost(spec),
                          xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=preset.default_tol)
    assert len(bundle.residual_history) == 8
    assert calls[0] == 8 * 10


@pytest.mark.parametrize("seed", [3, 11])
def test_quartic_full_coupling_solve_has_no_slow_phase(seed):
    # damped Picard took 19 and 23 sweeps here: its steps alternated in sign
    preset = get_preset("quartic_control")
    noise = NoiseBundle(seed=seed, n_paths=32, n_particles=64, grid=TimeGrid(1.0, 50))
    bundle = picard_solve(preset.spec, noise, terminal_from_cost(preset.spec),
                          xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=preset.default_tol)
    assert len(bundle.residual_history) <= 10


def test_residual_rise_restarts_with_the_damped_step(monkeypatch):
    # the minimizer's output is spoiled on the fourth sweep only; the step
    # mixing it raises the residual once, and the step after the rise is the
    # plain map again, undamped, since the rise followed a mixed step
    preset = get_preset("lq")
    noise = NoiseBundle(seed=7, n_paths=16, n_particles=64, grid=TimeGrid(1.0, 20))
    controls, images = [], []
    real_sim, real_min = bsde.simulate_forward, bsde.minimize_hamiltonian_values

    def recording_sim(spec, rule, *args, **kwargs):
        controls.append(np.array(rule.table))
        images.append(np.empty_like(controls[-1]))
        return real_sim(spec, rule, *args, **kwargs)

    def spoiling_min(spec, t, *args, **kwargs):
        n = int(round(t / noise.grid.dt))
        spoil = 0.03 if len(images) == 4 else 0.0
        images[-1][:, :, n] = real_min(spec, t, *args, **kwargs) + spoil
        return images[-1][:, :, n].copy()

    monkeypatch.setattr(bsde, "simulate_forward", recording_sim)
    monkeypatch.setattr(bsde, "minimize_hamiltonian_values", spoiling_min)
    bundle = picard_solve(preset.spec, noise, terminal_from_cost(preset.spec),
                          xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=1e-4)
    h = bundle.residual_history
    assert h[-1] <= 1e-4
    assert [i for i in range(1, len(h)) if h[i] > h[i - 1]] == [4]
    assert bundle.diagnostics["damping_final"] == 1.0
    # the sweep of the rise steps to its map image; those around it mix the history
    assert np.allclose(controls[5], images[4], rtol=0.0, atol=1e-12)
    for it in (4, 6):
        assert not np.allclose(controls[it], images[it - 1], rtol=0.0, atol=1e-6)


def test_flow_divergence_guard_is_reached_by_halving_the_damping(monkeypatch):
    # far outside the smallness conditions every step raises the residual: each
    # rise after a damped step halves theta, which is at its floor after six,
    # and the guard on the rising flow distance then ends the solve
    spec = get_preset("lq", {"b2": 4.0, "cu": 0.05}).spec
    noise = NoiseBundle(seed=3, n_paths=16, n_particles=32, grid=TimeGrid(1.0, 40))
    distance_sweeps = _counting_distances(monkeypatch)
    with pytest.raises(SolverError, match="measure flow diverging") as err:
        picard_solve(spec, noise, terminal_from_cost(spec),
                     xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=1e-3)
    residuals = err.value.history["residuals"]
    assert len(residuals) == 7
    assert all(b > a for a, b in zip(residuals, residuals[1:]))
    # theta is 1 on sweeps 1 and 2 and halves on each later one, to the floor
    # on sweep 8, where the guard raises before that sweep's residual exists;
    # a distance is taken on each sweep from the first with theta <= 4 floor
    thetas = {s: max(0.5 ** max(s - 2, 0), bsde._MIN_DAMPING) for s in range(1, 9)}
    first = min(s for s, theta in thetas.items() if theta <= 4.0 * bsde._MIN_DAMPING)
    assert thetas[8] == bsde._MIN_DAMPING and first == 6
    assert distance_sweeps == list(range(first, 9))
    assert len(err.value.history["flow_distances"]) == len(distance_sweeps)


def _picard_peak_arrays(name):
    """tracemalloc peak of a direct solve at 32 x 128 x 25, in (path x particle x step) arrays."""
    import tracemalloc

    spec = get_preset(name).spec
    m, k, n = 32, 128, 25
    noise = NoiseBundle(seed=3, n_paths=m, n_particles=k, grid=TimeGrid(1.0, n))
    tracemalloc.start()
    try:
        bundle = picard_solve(spec, noise, terminal_from_cost(spec),
                              xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bundle.residual_history) >= 5
    return peak / (m * k * n * 8)


def test_picard_peak_memory_stays_within_eight_and_a_half_arrays():
    # the Anderson history costs four arrays; a sweep drops its ensemble and
    # adjoints before the next one allocates its own, the new residual takes
    # the buffer of the oldest, and a flow is kept only near the damping floor.
    # With volatilities that read neither state nor control, no sweep holds the
    # loadings q and q_tilde: the returned one fills them after dropping the
    # history.  So the peak is 7.90 arrays: 9.82 with loadings on every sweep,
    # 10.82 with a new residual buffer per sweep as well
    assert _picard_peak_arrays("lq") < 8.5


def test_picard_peak_memory_with_loadings_on_every_sweep_stays_within_ten_arrays():
    # sigma2 = sigma_tilde2 = 0.005: every sweep's minimizer reads q and
    # q_tilde, so each pass holds them, and the peak is 9.81 arrays
    assert _picard_peak_arrays("lq_small_bu") < 10


def _recording_loadings(monkeypatch):
    """Wrap ``bsde.solve_bsde_given_control``; returns each pass's ``loadings`` flag."""
    flags = []
    real = bsde.solve_bsde_given_control

    def recording(*args, loadings=True, **kwargs):
        flags.append(loadings)
        return real(*args, loadings=loadings, **kwargs)

    monkeypatch.setattr(bsde, "solve_bsde_given_control", recording)
    return flags


def _deferred_and_inline(monkeypatch, solve):
    """``solve()`` as it runs, then with loadings forced on every sweep."""
    flags = _recording_loadings(monkeypatch)
    deferred = solve()
    assert flags and not any(flags)
    sweeps = len(flags)
    recording = bsde.solve_bsde_given_control
    monkeypatch.setattr(bsde, "solve_bsde_given_control",
                        lambda *args, loadings, **kwargs: recording(*args, loadings=True, **kwargs))
    del flags[:]
    inline = solve()
    assert len(flags) == sweeps and all(flags)
    return deferred, inline


def _assert_same_solution(deferred, inline):
    for name in ("states", "controls", "p", "q", "q_tilde"):
        assert np.array_equal(getattr(deferred, name), getattr(inline, name)), name
    assert np.all(np.isfinite(deferred.q)) and np.all(np.isfinite(deferred.q_tilde))
    assert np.array_equal(deferred.diagnostics["r_squared"], inline.diagnostics["r_squared"])
    assert deferred.residual_history == inline.residual_history


def test_deferred_loadings_equal_inline_ones_on_a_live_flow(monkeypatch):
    spec = get_preset("lq").spec
    noise = NoiseBundle(seed=5, n_paths=8, n_particles=32, grid=TimeGrid(1.0, 10))
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    _assert_same_solution(*_deferred_and_inline(
        monkeypatch, lambda: picard_solve(spec, noise, terminal_from_cost(spec), xi0=xi0,
                                          tol=1e-4)))


def test_deferred_loadings_equal_inline_ones_on_a_frozen_flow(monkeypatch):
    from cnmfg.mfg_solvers import interval_best_response

    spec = get_preset("lq").spec
    noise = NoiseBundle(seed=6, n_paths=12, n_particles=32, grid=TimeGrid(1.0, 20))
    init = noise.initial_states(InitialLaw(kind="normal", mu=1.0, std=0.5))
    u_hat = 0.3 * np.random.default_rng(2).standard_normal((12, 32, 8))
    _assert_same_solution(*_deferred_and_inline(
        monkeypatch, lambda: interval_best_response(spec, u_hat, 12, 20, init,
                                                    terminal_from_cost(spec), noise,
                                                    inner_tol=1e-5)))


def test_deferred_loadings_equal_inline_ones_in_a_continuation_solve(monkeypatch):
    from cnmfg.mfg_solvers import _coefficient_inputs

    spec = get_preset("lq_drift_coupled").spec
    noise = NoiseBundle(seed=7, n_paths=8, n_particles=32, grid=TimeGrid(1.0, 10))
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    start = solve_scaled_fbsde(spec, 0.5, xi0, None, noise, tol=1e-4)
    inputs = _coefficient_inputs(spec, start, 0.25)
    deferred, inline = _deferred_and_inline(
        monkeypatch, lambda: solve_scaled_fbsde(spec, 0.5, xi0, inputs, noise,
                                                u0=start.controls, tol=1e-5))
    _assert_same_solution(deferred, inline)
    assert (deferred.diagnostics["first_order_residual"]
            == inline.diagnostics["first_order_residual"])


@pytest.mark.parametrize("steps, blocks", [
    (1, [(n, n + 1) for n in range(9, -1, -1)]),
    (3, [(7, 10), (4, 7), (1, 4), (0, 1)]),
])
def test_deferred_r_squared_equals_inline_one_in_blocks_of_steps(monkeypatch, steps, blocks):
    # geometry blocks of one step, and of three steps with a partial last block
    spec = get_preset("lq").spec
    noise = NoiseBundle(seed=5, n_paths=8, n_particles=32, grid=TimeGrid(1.0, 10))
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    monkeypatch.setattr(bsde, "_GEOMETRY_BLOCK", steps * 8 * 32)
    assert bsde._step_blocks(10, 8, 32) == blocks
    deferred, inline = _deferred_and_inline(
        monkeypatch, lambda: picard_solve(spec, noise, terminal_from_cost(spec), xi0=xi0,
                                          tol=1e-4))
    _assert_same_solution(deferred, inline)
    r2 = deferred.diagnostics["r_squared"]
    assert r2.flags.writeable and np.all((r2 > 0.0) & (r2 <= 1.0))


def test_a_converged_solve_forms_the_fit_residual_on_one_sweep_only(monkeypatch):
    spec = get_preset("lq").spec
    noise = NoiseBundle(seed=5, n_paths=8, n_particles=32, grid=TimeGrid(1.0, 10))
    formed = []
    real = bsde._step_fit

    def counting(*args):
        formed.append(1)
        return real(*args)

    monkeypatch.setattr(bsde, "_step_fit", counting)
    bundle = picard_solve(spec, noise, terminal_from_cost(spec),
                          xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=1e-4)
    assert len(bundle.residual_history) >= 3
    # the fill of the returned sweep forms the residual of each of the 10 steps
    assert len(formed) == 10


def test_control_dependent_volatilities_compute_loadings_on_every_sweep(monkeypatch):
    spec = get_preset("lq_small_bu").spec
    assert spec.vol.phi2(0.0) == spec.vol_common.phi2(0.0) == 0.005
    flags = _recording_loadings(monkeypatch)
    noise = NoiseBundle(seed=5, n_paths=8, n_particles=32, grid=TimeGrid(1.0, 10))
    bundle = picard_solve(spec, noise, terminal_from_cost(spec),
                          xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=1e-4)
    assert len(flags) == len(bundle.residual_history) >= 3 and all(flags)
    assert np.all(np.isfinite(bundle.q)) and np.all(np.isfinite(bundle.q_tilde))


def test_a_pass_without_loadings_returns_nan_placeholders():
    spec = get_preset("lq").spec
    noise = NoiseBundle(seed=5, n_paths=8, n_particles=32, grid=TimeGrid(1.0, 10))
    ens = _ensemble(spec, noise, InitialLaw(kind="normal", mu=1.0, std=0.5))
    with_q = solve_bsde_given_control(spec, ens, ens.flow, terminal_from_cost(spec), noise)
    back = solve_bsde_given_control(spec, ens, ens.flow, terminal_from_cost(spec), noise,
                                    loadings=False)
    assert np.array_equal(back.p, with_q.p)
    for placeholder in (back.q, back.q_tilde):
        assert placeholder.shape == with_q.q.shape and not placeholder.flags.writeable
        assert np.all(np.isnan(placeholder))
    # R^2 is a finite placeholder: a tracer takes its minimum
    r2 = back.diagnostics["r_squared"]
    assert r2.shape == with_q.diagnostics["r_squared"].shape and not r2.flags.writeable
    assert np.all(np.isfinite(r2))


def test_control_loading_leaves_out_a_zero_volatility_slope():
    spec = get_preset("lq").spec
    p = np.array([0.5, -1.0])
    nan = np.full(2, np.nan)
    loading = control_loading(spec, 0.3, p, nan, nan)
    assert np.array_equal(loading, spec.drift.phi2(0.3) * p)
    small_bu = get_preset("lq_small_bu").spec
    assert np.all(np.isnan(control_loading(small_bu, 0.3, p, nan, np.zeros(2))))


def _counting_distances(monkeypatch):
    """Wrap ``MeasureFlow.node_distance``; returns the sweep of each call, counted from 1."""
    sweeps, calls = [0], []
    real_sim, real_distance = bsde.simulate_forward, MeasureFlow.node_distance

    def counting_sim(*args, **kwargs):
        sweeps[0] += 1
        return real_sim(*args, **kwargs)

    def counting_distance(self, other):
        calls.append(sweeps[0])
        return real_distance(self, other)

    monkeypatch.setattr(bsde, "simulate_forward", counting_sim)
    monkeypatch.setattr(MeasureFlow, "node_distance", counting_distance)
    return calls


# outcomes of direct solves at 16 x 32 x 40, seed 3, tol 1e-3, recorded while
# every live sweep took its flow distance; the guard reads them only at the
# damping floor, so taking them only near it must end each solve alike
_GUARD_OUTCOMES = [
    ("lq", {"b1": 3.0}, 10, 896207.8525656075),
    ("lq", {"b2": 4.0, "cu": 0.05}, 7, 6358779327012.721),
    ("lq_drift_coupled", {"kappa": 3.0, "horizon": 3.0}, 7, 5.3755108830210336e+17),
    ("lq_drift_coupled", {"kappa": 1.5, "horizon": 2.0}, 7, 1084267203.3009405),
    ("tanh_drift", {"kappa": 3.0, "horizon": 3.0}, 12, 6896986.381618124),
    ("lq_drift_coupled", {"b2": 3.0, "cu": 0.2}, 10, 428559852.4267492),
]


def _scan_solve(name, params):
    spec = get_preset(name, params).spec
    noise = NoiseBundle(seed=3, n_paths=16, n_particles=32, grid=TimeGrid(spec.horizon, 40))
    return solve_scaled_fbsde(spec, 1.0, InitialLaw(kind="normal", mu=1.0, std=0.5), None, noise,
                              tol=1e-3)


@pytest.mark.parametrize("name, params, n_residuals, last", _GUARD_OUTCOMES)
def test_flow_guard_ends_each_diverging_solve_on_its_sweep(name, params, n_residuals, last):
    with pytest.raises(SolverError, match="measure flow diverging over three sweeps") as err:
        _scan_solve(name, params)
    residuals = err.value.history["residuals"]
    assert len(residuals) == n_residuals
    assert residuals[-1] == pytest.approx(last, rel=1e-6)


def test_damped_solve_away_from_the_floor_keeps_its_controls(monkeypatch):
    # the quartic solve damps to theta = 1/8 and converges without a distance;
    # its controls are those recorded while every sweep took one
    distance_sweeps = _counting_distances(monkeypatch)
    bundle = _scan_solve("quartic_control", {"b2": 2.0, "cu": 0.1})
    assert len(bundle.residual_history) == 42
    assert bundle.diagnostics["damping_final"] == 0.125
    assert distance_sweeps == []
    c = bundle.controls
    assert bundle.residual_history[-1] == pytest.approx(0.0008292012305918007, rel=1e-9)
    assert control_rms(c, bundle.grid.dt, 1.0) == pytest.approx(0.7062057979844172, rel=1e-9)
    assert float(c.sum()) == pytest.approx(-11139.881676999532, rel=1e-9)
    assert float(c[:, :, 0].mean()) == pytest.approx(-0.8900424918808458, rel=1e-9)


def test_undamped_solve_takes_no_flow_distance(monkeypatch):
    distance_sweeps = _counting_distances(monkeypatch)
    bundle = _scan_solve("lq", {})
    assert bundle.diagnostics["damping_final"] == 1.0
    assert len(bundle.residual_history) == 8
    assert distance_sweeps == []


def _counting_designs(monkeypatch):
    """Wrap ``bsde._cross_path_design``; returns the list of designs it builds."""
    built = []
    real = bsde._cross_path_design

    def counting(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(bsde, "_cross_path_design", counting)
    return built


def test_frozen_flow_solve_builds_its_design_once(monkeypatch):
    # the frozen flow of a Nash deviation solve: 12 games of 4 players
    preset = get_preset("lq")
    spec, grid = preset.spec, TimeGrid(1.0, 25)
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    strategy = FeedbackStrategy.from_riccati(solve_riccati(preset.lq_params, grid))
    flow = simulate_nplayer(spec, strategy, 4, grid, xi0, [11 + 613 * r for r in range(12)]).flow
    noise = NoiseBundle(seed=5, n_paths=12, n_particles=32, grid=grid)
    built = _counting_designs(monkeypatch)
    bundle = picard_solve(spec, noise, terminal_from_cost(spec), xi0=xi0, frozen_flow=flow,
                          tol=1e-4)
    assert len(bundle.residual_history) >= 3
    assert len(built) == 1
    fresh = bsde._cross_path_design(spec, flow, noise, {})
    for reused, want in zip(built[0], fresh):
        assert np.array_equal(reused, want)
    # the z2 gates are in play, so a reuse that lost them would differ above
    assert np.any(built[0][0][:, :, 4] != 0.0)


def test_live_flow_solve_builds_its_design_every_sweep(monkeypatch):
    preset = get_preset("lq_drift_coupled")
    noise = NoiseBundle(seed=9, n_paths=8, n_particles=32, grid=TimeGrid(1.0, 10))
    built = _counting_designs(monkeypatch)
    bundle = picard_solve(preset.spec, noise, terminal_from_cost(preset.spec),
                          xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=1e-4)
    assert len(bundle.residual_history) >= 3
    assert len(built) == len(bundle.residual_history)
