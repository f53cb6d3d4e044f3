"""Continuation and stitching solvers at reduced scale (desk scale lives in acceptance)."""

import math

import numpy as np
import pytest

from cnmfg import mfg_solvers
from cnmfg.bsde import control_rms, solution_distance, solution_norm, terminal_from_cost
from cnmfg.errors import SimulationError, SolverError
from cnmfg.forward_sim import InitialLaw, InputPerturbation, NoiseBundle, TimeGrid
from cnmfg.lq_oracle import oracle_solution
from cnmfg.measures import EmpiricalMeasure
from cnmfg.model import get_preset, sufficient_condition_report
from cnmfg.mfg_solvers import (DecouplingField, fit_decoupling_field, interval_best_response,
                               solve_continuation, solve_scaled_fbsde, solve_stitched,
                               uniqueness_check)

from helpers import simple_spec

XI0 = InitialLaw(kind="normal", mu=1.0, std=0.5)


def small_noise(seed=11, m=12, k=48, n=40, horizon=1.0):
    return NoiseBundle(seed=seed, n_paths=m, n_particles=k, grid=TimeGrid(horizon, n))


def test_gamma_zero_zero_inputs_is_static():
    preset = get_preset("lq")
    noise = small_noise()
    b = solve_scaled_fbsde(preset.spec, 0.0, XI0, None, noise, tol=1e-8)
    x0 = noise.initial_states(XI0)
    assert np.max(np.abs(b.states - x0[:, :, None])) == 0.0
    assert np.max(np.abs(b.p)) < 1e-9


def test_gamma_zero_running_input_integrates_backward():
    preset = get_preset("lq")
    noise = small_noise()
    zero = np.zeros((12, 48, 40))
    inputs = InputPerturbation(b=zero, sigma=zero, sigma_tilde=zero, f=np.ones_like(zero),
                               g=np.zeros((12, 48)))
    b = solve_scaled_fbsde(preset.spec, 0.0, XI0, inputs, noise, tol=1e-8)
    expected = 1.0 - noise.grid.nodes
    assert np.max(np.abs(b.p - expected[None, None, :])) < 1e-6
    assert np.max(np.abs(b.q)) < 1e-6 and np.max(np.abs(b.q_tilde)) < 1e-6


def test_gamma_one_matches_oracle_at_reduced_scale():
    preset = get_preset("lq")
    noise = small_noise(m=24, k=96, n=50)
    b = solve_scaled_fbsde(preset.spec, 1.0, XI0, None, noise, tol=1e-4)
    ob = oracle_solution(preset.lq_params, noise, XI0)
    rel = np.sqrt(np.mean((b.controls - ob.controls) ** 2)) / np.sqrt(np.mean(ob.controls ** 2))
    assert rel < 0.05


def test_continuation_reaches_one_and_agrees_with_direct():
    preset = get_preset("lq")
    noise = small_noise(m=16, k=48, n=30)
    tol = 2e-4
    bundle, state = solve_continuation(preset.spec, XI0, noise, tol=tol)
    assert state.gamma == pytest.approx(1.0)
    # measure-free dynamics satisfy the continuation smallness condition:
    # every recorded step ratio must witness a contraction
    assert sufficient_condition_report(preset.spec).continuation_ok
    assert len(state.steps) <= int(np.ceil(1.0 / 0.25)) + 2
    for step in state.steps:
        assert step.ratio < 1.0

    direct = solve_scaled_fbsde(preset.spec, 1.0, XI0, None, noise, tol=tol,
                                u0=bundle.controls)
    assert solution_distance(bundle, direct) <= 2 * tol * max(1.0, solution_norm(bundle))


def test_continuation_inner_solves_are_inexact_until_accepted(monkeypatch):
    # each outer iteration solves only as tightly as the previous outer
    # distance asks, the first of an attempt to one sweep; a stage before the
    # last is accepted after two iterations at distance 40 tol, whatever its
    # inner tolerance, and the last stage only on a solve at inner_tol.  The
    # 30-step grid is walked on 1 step, and one direct solve at inner_tol on
    # the 30 steps finishes it
    preset = get_preset("lq")
    noise = small_noise(m=16, k=48, n=30)
    tol = 2e-4
    inner_tol = max(tol / 5.0, 1e-7)
    calls = []               # (gamma, tol, sweeps, grid steps, u0 steps) of every inner solve
    solve = mfg_solvers.solve_scaled_fbsde

    def recorded(spec, gamma, xi0, inputs, noise, *, tol, u0=None, **kwargs):
        bundle = solve(spec, gamma, xi0, inputs, noise, tol=tol, u0=u0, **kwargs)
        calls.append((gamma, tol, len(bundle.residual_history), noise.grid.n_steps,
                      None if u0 is None else u0.shape[2]))
        return bundle

    monkeypatch.setattr(mfg_solvers, "solve_scaled_fbsde", recorded)
    bundle, state = solve_continuation(preset.spec, XI0, noise, tol=tol)
    assert state.gamma == pytest.approx(1.0)
    assert state.walk_steps == 1 and state.coarse_failure is None
    assert calls[0][:2] == (0.0, inner_tol)    # the gamma = 0 start
    walk, finish = calls[1:-1], calls[-1]
    assert all(c[3] == 1 for c in calls[:-1])
    assert all(t >= inner_tol for _, t, *_ in walk)
    # every attempt was accepted here, so the stages cover the outer solves
    assert len(walk) == sum(step.iterations for step in state.steps)
    first = 0
    for step in state.steps:
        attempt = walk[first:first + step.iterations]
        first += step.iterations
        assert attempt[0][1:3] == (math.inf, 1)
        assert all(t < math.inf for _, t, *_ in attempt[1:])
        assert step.sweeps == [sweeps for _, _, sweeps, *_ in attempt]
    for step in state.steps[:-1]:
        assert step.iterations >= 2
        assert step.distances[-1] <= 40 * tol
    assert attempt[-1][1] == inner_tol        # the last stage's attempt
    assert state.steps[-1].distances[-1] <= tol
    assert state.bundle.residual_history[-1] <= inner_tol
    # exactly one fine finish follows the walk
    assert finish[0] == 1.0 and finish[1] == inner_tol and finish[3:] == (30, 30)
    assert bundle.residual_history[-1] <= inner_tol
    assert bundle.diagnostics["iterations"] == finish[2]
    # 44 sweeps on the 1-step walk, each a thirtieth of a fine one, and 9 on
    # the fine finish
    assert sum(sweeps for _, _, sweeps, *_ in calls[:-1]) <= 46
    assert finish[2] <= 10

    # a first distance within 40 tol does not end a stage: it has no ratio yet
    _, state = solve_continuation(simple_spec(b0=0.1), XI0, small_noise(m=4, k=8, n=5), tol=1e-3)
    assert state.steps[0].distances[0] <= 40 * 1e-3
    assert all(step.iterations >= 2 for step in state.steps)


def _recorded_grid_steps(monkeypatch) -> list:
    """Patch ``solve_scaled_fbsde`` to record the grid steps of every solve."""
    steps = []
    solve = mfg_solvers.solve_scaled_fbsde

    def recorded(*args, **kwargs):
        steps.append(args[4].grid.n_steps)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mfg_solvers, "solve_scaled_fbsde", recorded)
    return steps


def test_continuation_walks_a_prime_step_count_on_one_step(monkeypatch):
    # 7 steps have no divisor but themselves; the walk still runs on 1 step,
    # and one solve on the 7 steps finishes it
    steps = _recorded_grid_steps(monkeypatch)
    bundle, state = solve_continuation(get_preset("lq").spec, XI0, small_noise(m=8, k=32, n=7),
                                       tol=1e-3)
    assert state.gamma == pytest.approx(1.0)
    assert state.walk_steps == 1 and state.coarse_failure is None
    assert set(steps[:-1]) == {1} and steps[-1] == 7
    assert bundle.grid.n_steps == 7 and bundle.residual_history[-1] <= 1e-3 / 5


def test_continuation_walks_a_one_step_grid_on_its_own_step(monkeypatch):
    # a one-step grid has nothing coarser: the walk's bundle is the result
    steps = _recorded_grid_steps(monkeypatch)
    bundle, state = solve_continuation(get_preset("lq").spec, XI0, small_noise(m=8, k=32, n=1),
                                       tol=1e-3)
    assert state.gamma == pytest.approx(1.0)
    assert state.walk_steps == 1 and set(steps) == {1}
    assert bundle is state.bundle and state.coarse_failure is None


def _fine_walk(noise, spec, *, tol, max_picard=30):
    """The walk on the grid of ``noise`` with ``solve_continuation``'s defaults."""
    return mfg_solvers._walk(noise, spec, XI0, 0.25, tol, max_picard, max(tol / 5.0, 1e-7), 60)


def test_continuation_falls_back_to_the_fine_walk():
    # outside the smallness conditions the fine finish from the one-step
    # walk's control diverges; the walk on the fine grid converges, its result
    # is returned unchanged, and the state names the coarse failure
    preset = get_preset("lq_drift_coupled", {"kappa": 1.5, "horizon": 2.0})
    noise = small_noise(seed=3, m=16, k=32, n=40, horizon=2.0)
    bundle, state = solve_continuation(preset.spec, XI0, noise, tol=1e-3)
    assert state.gamma == pytest.approx(1.0) and state.walk_steps == 40
    assert bundle.residual_history[-1] <= 1e-3 / 5
    assert state.coarse_failure.startswith("measure flow diverging")
    fine_state = _fine_walk(noise, preset.spec, tol=1e-3)
    assert np.array_equal(bundle.controls, fine_state.bundle.controls)
    assert state.schedule() == fine_state.schedule()


def test_a_failed_fallback_raises_the_fine_walks_error():
    # both walks stall; the error is the fine walk's, and it names the coarse failure
    preset = get_preset("lq")
    noise = small_noise(m=6, k=16, n=10)
    with pytest.raises(SolverError, match="continuation stalled") as err:
        solve_continuation(preset.spec, XI0, noise, tol=1e-10, max_picard=1)
    with pytest.raises(SolverError) as fine:
        _fine_walk(noise, preset.spec, tol=1e-10, max_picard=1)
    assert str(err.value) == str(fine.value)
    history = dict(err.value.history)
    assert history.pop("coarse_failure").startswith("continuation stalled")
    assert history == fine.value.history
    assert set(history) >= {"schedule", "last_distances"}


def test_stability_ratio_bounded_across_perturbation_scales():
    # paired solves under scaled input perturbations: the response ratio
    # distance / input-norm stays within a constant band
    preset = get_preset("lq")
    noise = small_noise(m=8, k=32, n=20)
    rng = np.random.default_rng(5)
    shape = (8, 32, 20)
    base = solve_scaled_fbsde(preset.spec, 0.5, XI0, None, noise, tol=3e-4)
    direction = {key: rng.normal(size=shape) for key in ("b", "sigma", "sigma_tilde", "f")}
    direction["g"] = rng.normal(size=shape[:2])
    # input norm: root of the terminal mean square plus the time integral of the running squares
    running = sum(direction[key] ** 2 for key in ("b", "sigma", "sigma_tilde", "f")).sum(axis=2)
    direction_norm = np.sqrt(np.mean(direction["g"] ** 2 + running * noise.grid.dt))
    ratios = []
    for scale in np.geomspace(3e-3, 1.0, 10):
        inp = InputPerturbation(b=scale * direction["b"], sigma=scale * direction["sigma"],
                                sigma_tilde=scale * direction["sigma_tilde"],
                                f=scale * direction["f"], g=scale * direction["g"])
        pert = solve_scaled_fbsde(preset.spec, 0.5, XI0, inp, noise, tol=3e-4,
                                  u0=base.controls)
        ratios.append(solution_distance(pert, base) / (scale * direction_norm))
    ratios = np.array(ratios)
    assert np.all(ratios <= 10 * np.median(ratios))


def test_interval_map_fixed_point_and_zero_coupling():
    preset = get_preset("lq")
    noise = small_noise(m=12, k=48, n=40)
    grid = noise.grid
    tol = 2e-4
    n_lo, n_hi = 30, 40  # short right-end interval
    init = noise.initial_states(XI0)
    terminal = terminal_from_cost(preset.spec)
    shape = (12, 48, n_hi - n_lo)

    # iterate to a fixed point, then one more application stays put
    u = np.zeros(shape)
    for _ in range(25):
        out = interval_best_response(preset.spec, u, n_lo, n_hi, init, terminal, noise,
                                     inner_tol=tol / 5)
        d = control_rms(out.controls - u, grid.dt, (n_hi - n_lo) * grid.dt)
        u = out.controls
        if d <= tol:
            break
    out = interval_best_response(preset.spec, u, n_lo, n_hi, init, terminal, noise,
                                 inner_tol=tol / 5)
    assert control_rms(out.controls - u, grid.dt, (n_hi - n_lo) * grid.dt) <= 3 * tol

    # with every population coupling switched off the map ignores its argument
    flat = get_preset("lq", {"lam": 0.0, "lamg": 0.0, "kappa": 0.0})
    rng = np.random.default_rng(1)
    out1 = interval_best_response(flat.spec, np.zeros(shape), n_lo, n_hi, init,
                                  terminal_from_cost(flat.spec), noise, inner_tol=1e-6)
    out2 = interval_best_response(flat.spec, 0.5 * rng.standard_normal(shape), n_lo, n_hi, init,
                                  terminal_from_cost(flat.spec), noise, inner_tol=1e-6)
    # independent up to the conditional-expectation estimator's covariate noise
    assert control_rms(out1.controls - out2.controls, grid.dt, (n_hi - n_lo) * grid.dt) <= 5e-4


def test_interval_map_shrinks_input_distance():
    # short interval: output gap well below input gap (contraction with slack)
    preset = get_preset("lq")
    noise = small_noise(m=12, k=48, n=40)
    grid = noise.grid
    n_lo, n_hi = 30, 40
    init = noise.initial_states(XI0)
    terminal = terminal_from_cost(preset.spec)
    rng = np.random.default_rng(2)
    u1 = np.zeros((12, 48, 10))
    u2 = u1 + 0.3 * rng.standard_normal(u1.shape)
    out1 = interval_best_response(preset.spec, u1, n_lo, n_hi, init, terminal, noise, inner_tol=1e-6)
    out2 = interval_best_response(preset.spec, u2, n_lo, n_hi, init, terminal, noise, inner_tol=1e-6)
    span_t = (n_hi - n_lo) * grid.dt
    d_in = control_rms(u2 - u1, grid.dt, span_t)
    d_out = control_rms(out2.controls - out1.controls, grid.dt, span_t)
    assert d_out <= 0.9 * d_in


@pytest.mark.parametrize("name", ["lq", "lq_drift_coupled", "tanh_drift"])
def test_interval_map_takes_the_population_run_as_its_first_pass(monkeypatch, name):
    # the same best response, bit for bit, as a solve that simulates its first
    # sweep, with one forward simulation fewer inside the solve
    from cnmfg import bsde

    spec = get_preset(name).spec
    noise = small_noise(m=12, k=48, n=40)
    init = noise.initial_states(XI0)
    u_hat = 0.3 * np.random.default_rng(3).standard_normal((12, 48, 10))
    simulations = []
    real_simulate, real_solve = bsde.simulate_forward, mfg_solvers.picard_solve

    def counting_simulate(*args, **kw):
        simulations.append(args)
        return real_simulate(*args, **kw)

    def simulating_solve(*args, first_pass, **kw):
        return real_solve(*args, **kw)

    monkeypatch.setattr(bsde, "simulate_forward", counting_simulate)
    bundles, counts = [], []
    for solve in (real_solve, simulating_solve):
        monkeypatch.setattr(mfg_solvers, "picard_solve", solve)
        simulations.clear()
        bundles.append(interval_best_response(spec, u_hat, 30, 40, init, terminal_from_cost(spec),
                                              noise, inner_tol=1e-5))
        counts.append(len(simulations))
    reused, simulated = bundles
    for attr in ("states", "controls", "p", "q", "q_tilde"):
        assert np.array_equal(getattr(reused, attr), getattr(simulated, attr))
    assert reused.residual_history == simulated.residual_history
    sweeps = reused.diagnostics["iterations"]
    assert sweeps >= 2 and counts == [sweeps - 1, sweeps]


def test_decoupling_field_fit_and_terminal():
    rng = np.random.default_rng(3)
    states = rng.normal(size=(6, 40))
    means = states.mean(axis=1)
    p = 0.7 + 1.4 * states - 0.6 * means[:, None]
    fld = fit_decoupling_field(states, means, p)
    assert fld.intercept == pytest.approx(0.7, abs=1e-10)
    assert fld.slope_x == pytest.approx(1.4, abs=1e-10)
    assert fld.slope_mean == pytest.approx(-0.6, abs=1e-10)
    assert fld.r_squared > 1 - 1e-12
    terminal = fld.as_terminal()
    x = np.array([[1.0, 2.0]])
    vals = terminal(x, EmpiricalMeasure([0.0, 1.0]))
    assert np.allclose(vals, 0.7 + 1.4 * x - 0.3)

    with pytest.raises(SolverError, match="non-finite"):
        DecouplingField(intercept=np.nan, slope_x=1.0, slope_mean=0.0, r_squared=1.0)


def test_stitched_single_interval_equals_direct_fixed_point():
    preset = get_preset("lq")
    noise = small_noise(m=8, k=32, n=20)
    tol = 1.5e-3  # resolution floor of the 8 x 32 ensemble's regression map
    bundle, report = solve_stitched(preset.spec, XI0, noise, tol=tol, interval_fraction=1.0,
                                    global_passes=1)
    assert len(report.boundaries) == 2

    init = noise.initial_states(XI0)
    u = np.zeros((8, 32, 20))
    terminal = terminal_from_cost(preset.spec)
    for _ in range(30):
        out = interval_best_response(preset.spec, u, 0, 20, init, terminal, noise,
                                     inner_tol=max(tol / 5, 1e-7))
        d = control_rms(out.controls - u, noise.grid.dt, 1.0)
        u = out.controls
        if d <= tol:
            break
    assert control_rms(bundle.controls - u, noise.grid.dt, 1.0) <= 2 * tol


def test_stitched_fields_monotone_and_agreement_with_direct():
    preset = get_preset("lq")
    noise = small_noise(m=16, k=64, n=40)
    tol = 2e-4
    bundle, report = solve_stitched(preset.spec, XI0, noise, tol=tol)
    for fld in report.fields:
        assert fld.slope_x >= -1e-6
        assert fld.r_squared > 0.98
    for ratio in report.interval_ratios:
        assert ratio <= 0.9
    direct = solve_scaled_fbsde(preset.spec, 1.0, XI0, None, noise, tol=tol, u0=bundle.controls)
    dist = control_rms(bundle.controls - direct.controls, noise.grid.dt, 1.0)
    scale = control_rms(direct.controls, noise.grid.dt, 1.0)
    assert dist <= 0.03 * scale


def test_uniqueness_check():
    preset = get_preset("lq")
    noise = small_noise(m=8, k=32, n=20)
    rep1 = uniqueness_check(preset.spec, XI0, noise, n_starts=1, tol=3e-4)
    assert rep1.max_distance == 0.0 and rep1.passed

    rep3 = uniqueness_check(preset.spec, XI0, noise, n_starts=3, tol=3e-4)
    assert not rep3.inconclusive
    assert rep3.max_distance <= 5 * 3e-4
    assert rep3.passed

    with pytest.raises(SolverError, match="unknown solver"):
        uniqueness_check(preset.spec, XI0, noise, n_starts=1, solver="stitched")


def test_terminal_product_nonnegative_for_shifted_initial_laws():
    preset = get_preset("lq")
    noise = small_noise(m=12, k=48, n=30)
    tol = 2e-4
    b1 = solve_scaled_fbsde(preset.spec, 1.0, XI0, None, noise, tol=tol)
    shifted = InitialLaw(kind="normal", mu=1.6, std=0.5)
    b2 = solve_scaled_fbsde(preset.spec, 1.0, shifted, None, noise, tol=tol,
                            u0=b1.controls)
    dp = b2.p[:, :, -1] - b1.p[:, :, -1]
    dx = b2.states[:, :, -1] - b1.states[:, :, -1]
    scale = np.sqrt(np.mean(dp ** 2)) * np.sqrt(np.mean(dx ** 2))
    assert np.mean(dp * dx) >= -0.05 * scale


def test_gamma_validation():
    preset = get_preset("lq")
    noise = small_noise(m=4, k=8, n=5)
    with pytest.raises(SolverError):
        solve_scaled_fbsde(preset.spec, 1.5, XI0, None, noise)


def test_continuation_stall_error():
    # a single contraction iteration per stage can never converge, so the step
    # size halves until it underflows
    preset = get_preset("lq")
    noise = small_noise(m=6, k=16, n=10)
    with pytest.raises(SolverError, match="continuation stalled"):
        solve_continuation(preset.spec, XI0, noise, tol=1e-10, max_picard=1)


def test_stitching_halving_exhaustion_error():
    preset = get_preset("lq")
    noise = small_noise(m=6, k=16, n=16)
    with pytest.raises(SolverError, match="failed to contract"):
        solve_stitched(preset.spec, XI0, noise, tol=1e-12, max_fp_iter=1, max_halvings=2)


def test_continuation_inner_failure_halves_eta():
    # one sweep per inner solve hits the inner cap on every stage; each such
    # failure halves eta until the step size underflows, and the stall error
    # carries the inner failure's message and history
    preset = get_preset("lq")
    noise = small_noise(m=6, k=16, n=10)
    with pytest.raises(SolverError, match="continuation stalled") as err:
        solve_continuation(preset.spec, XI0, noise, max_iter_inner=1)
    assert "did not converge in 1 sweeps" in str(err.value)
    assert len(err.value.history["residuals"]) == 1
    assert err.value.history["schedule"] == []


def test_stitched_inner_failure_halves_intervals():
    # strong drift coupling with a cheap control: on quarter-horizon intervals
    # an inner solve hits its sweep cap, on eighths an interval map stalls, and
    # both failures halve the intervals until sixteenths converge
    preset = get_preset("lq_drift_coupled", {"b2": 3.0, "cu": 0.2})
    noise = small_noise(seed=3, m=8, k=32, n=20)
    bundle, report = solve_stitched(preset.spec, XI0, noise, tol=1e-3)
    assert report.halvings == 2
    assert bundle.residual_history[-1] <= 1e-3


def _failing_picard(monkeypatch, error, fail):
    """Patch the solvers' Picard solve to raise ``error`` on the calls ``fail`` picks."""
    solve = mfg_solvers.picard_solve
    raised = []

    def patched(*args, gamma=1.0, **kwargs):
        if fail(gamma, len(raised)):
            raised.append(gamma)
            raise error
        return solve(*args, gamma=gamma, **kwargs)

    monkeypatch.setattr(mfg_solvers, "picard_solve", patched)
    return raised


@pytest.mark.parametrize("error", [SimulationError("non-finite state at step 3", step=3)])
def test_continuation_recovers_from_a_non_solver_inner_failure(monkeypatch, error):
    # the first inner solve at gamma > 0 (the second stage's) fails once: the
    # step's eta is halved and the solve still reaches gamma = 1
    raised = _failing_picard(monkeypatch, error, lambda gamma, n: gamma > 0 and n == 0)
    preset = get_preset("lq")
    noise = small_noise(m=8, k=32, n=20)
    bundle, state = solve_continuation(preset.spec, XI0, noise, tol=1e-3)
    assert raised == [0.25]
    assert [step.eta for step in state.steps[:2]] == [0.25, 0.125]
    assert state.gamma == pytest.approx(1.0)
    assert np.isfinite(bundle.controls).all()


def test_stitched_recovers_from_a_simulation_error(monkeypatch):
    preset = get_preset("lq")
    noise = small_noise(m=8, k=32, n=20)
    raised = _failing_picard(monkeypatch, SimulationError("non-finite state"),
                             lambda gamma, n: n == 0)
    bundle, report = solve_stitched(preset.spec, XI0, noise, tol=1e-3)
    assert len(raised) == 1 and report.halvings == 1
    assert bundle.residual_history[-1] <= 1e-3

    # a failure on every pass ends in a SolverError with no history to carry
    _failing_picard(monkeypatch, SimulationError("non-finite state"), lambda gamma, n: True)
    with pytest.raises(SolverError, match="after 1 halvings") as err:
        solve_stitched(preset.spec, XI0, noise, tol=1e-3, max_halvings=1)
    assert isinstance(err.value.__cause__, SimulationError)
    assert err.value.history == {}
