"""Noise generation, Euler stepping, conditional-law consistency."""

import numpy as np
import pytest

from cnmfg.errors import SimulationError
from cnmfg.forward_sim import (FeedbackControl, InitialLaw, NoiseBundle, OpenLoopControl,
                               TimeGrid, ensemble_statistics, simulate_forward)
from cnmfg.measures import MeasureFlow, constant_flow
from cnmfg.model import get_preset

from helpers import assert_steps_contiguous, simple_spec


def test_grid_basics():
    grid = TimeGrid(2.0, 8)
    assert grid.dt == 0.25
    assert np.allclose(grid.nodes, np.arange(9) * 0.25)
    sub = grid.subgrid(2, 5)
    assert sub.n_steps == 3 and sub.t0 == 0.5
    assert np.allclose(sub.nodes, [0.5, 0.75, 1.0, 1.25])
    with pytest.raises(SimulationError):
        TimeGrid(0.0, 4)
    with pytest.raises(SimulationError):
        grid.subgrid(5, 5)


def test_noise_seed_determinism_and_moments():
    grid = TimeGrid(1.0, 50)
    n1 = NoiseBundle(seed=123, n_paths=8, n_particles=64, grid=grid)
    n2 = NoiseBundle(seed=123, n_paths=8, n_particles=64, grid=grid)
    assert np.array_equal(n1.dW, n2.dW)
    assert np.array_equal(n1.dW_common, n2.dW_common)
    n3 = NoiseBundle(seed=124, n_paths=8, n_particles=64, grid=grid)
    assert not np.array_equal(n1.dW, n3.dW)

    # i.i.d. mean-zero variance-dt increments, statistical bound from the invariant
    total = n1.dW.size
    assert abs(n1.dW.mean()) <= 4 * np.sqrt(grid.dt / total)
    assert n1.dW.var() == pytest.approx(grid.dt, rel=0.05)
    assert n1.dW_common.var() == pytest.approx(grid.dt, rel=0.2)

    # initial draws are deterministic in the seed as well
    law = InitialLaw(kind="normal", mu=1.0, std=0.5)
    assert np.array_equal(n1.initial_states(law), n2.initial_states(law))
    emp = InitialLaw(kind="empirical", atoms=(1.0, 2.0, 4.0))
    draws = n1.initial_states(emp)
    assert set(np.unique(draws)).issubset({1.0, 2.0, 4.0})


def test_constant_drift_is_exact_linear_motion():
    grid = TimeGrid(2.0, 10)
    spec = simple_spec(b0=0.7)
    noise = NoiseBundle(seed=1, n_paths=3, n_particles=5, grid=grid)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((3, 5, 10))), noise,
                           InitialLaw(kind="constant", mu=2.0))
    for n in range(11):
        assert np.allclose(ens.states[:, :, n], 2.0 + 0.7 * grid.nodes[n], atol=1e-12)


def test_zero_dynamics_keeps_initial_draws():
    grid = TimeGrid(1.0, 6)
    spec = simple_spec()
    noise = NoiseBundle(seed=2, n_paths=2, n_particles=16, grid=grid)
    law = InitialLaw(kind="normal", mu=0.0, std=1.0)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((2, 16, 6))), noise, law)
    x0 = noise.initial_states(law)
    for n in range(7):
        assert np.array_equal(ens.states[:, :, n], x0)


def test_mean_field_drift_follows_exponential_ode():
    # drift = conditional mean, identical unit starts: mean(t) = exp(t)
    grid = TimeGrid(1.0, 100)
    spec = simple_spec()
    spec.drift.phi0_stats = lambda t, means, sqms: means
    spec.drift.phi0 = lambda t, m: m.mean
    noise = NoiseBundle(seed=3, n_paths=4, n_particles=32, grid=grid)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((4, 32, 100))), noise,
                           InitialLaw(kind="constant", mu=1.0))
    mean_T = ens.flow.means[:, -1]
    assert np.all(np.abs(mean_T - np.e) < 0.02 * np.e)


def test_zero_noise_matches_euler_ode():
    grid = TimeGrid(1.0, 40)
    spec = simple_spec(b0=0.2, b1=-1.3)
    noise = NoiseBundle(seed=4, n_paths=2, n_particles=3, grid=grid)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((2, 3, 40))), noise,
                           InitialLaw(kind="constant", mu=1.0))
    x = 1.0
    for n in range(40):
        x = x + (0.2 - 1.3 * x) * grid.dt
        assert np.max(np.abs(ens.states[:, :, n + 1] - x)) < 1e-12


def test_exchangeability_and_conditional_law_consistency():
    preset = get_preset("lq_drift_coupled")
    grid = TimeGrid(1.0, 20)
    noise = NoiseBundle(seed=5, n_paths=4, n_particles=16, grid=grid)
    rule = FeedbackControl(lambda step, t, x, means: -0.3 * x)
    ens = simulate_forward(preset.spec, rule, noise, InitialLaw(kind="normal", mu=0.5, std=0.4))

    # permuting particles within a path leaves every flow measure invariant
    perm = np.random.default_rng(0).permutation(16)
    flow = ens.flow
    for n in (0, 7, 20):
        for j in range(4):
            assert np.array_equal(np.sort(flow.atoms[j, perm, n]), np.sort(flow.atoms[j, :, n]))

    # the emitted flow is exactly the per-path empirical law of the states
    assert flow.atoms is ens.states


def test_statistics():
    grid = TimeGrid(1.0, 5)
    spec = simple_spec()
    noise = NoiseBundle(seed=6, n_paths=8, n_particles=256, grid=grid)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((8, 256, 5))), noise,
                           InitialLaw(kind="constant", mu=3.0))
    stats = ensemble_statistics(ens)
    assert np.all(stats.cond_var == 0.0)
    assert np.allclose(stats.pooled_mean, 3.0)

    ens2 = simulate_forward(spec, OpenLoopControl(np.zeros((8, 256, 5))), noise,
                            InitialLaw(kind="normal", mu=0.0, std=1.0))
    stats2 = ensemble_statistics(ens2)
    assert abs(stats2.pooled_var[0] - 1.0) <= 5 / np.sqrt(8 * 256)


def test_linear_sde_variance_matches_moment_ode():
    # dX = b1 X dt + s0 dW + st0 dWt: Var' = 2 b1 Var + s0^2 + st0^2 (pooled, mean 0)
    grid = TimeGrid(1.0, 50)
    b1, s0, st0 = -0.8, 0.4, 0.3
    spec = simple_spec(b1=b1, s0=s0, st0=st0)
    noise = NoiseBundle(seed=7, n_paths=64, n_particles=128, grid=grid)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((64, 128, 50))), noise,
                           InitialLaw(kind="constant", mu=0.0))
    v = 0.0
    var_ode = [0.0]
    for _ in range(50):
        v = v + (2 * b1 * v + s0 ** 2 + st0 ** 2) * grid.dt
        var_ode.append(v)
    pooled = ensemble_statistics(ens).pooled_var
    err = np.abs(pooled - np.array(var_ode))
    # fluctuation scale of the common-noise component is var*sqrt(2/n_paths) ~ 0.02
    assert np.max(err) < 0.05
    assert err[-1] < 3 * var_ode[-1] * np.sqrt(2.0 / 64)


def test_frozen_flow_replaces_live_measure():
    spec = get_preset("lq_drift_coupled").spec  # drift has kappa * mean(m)
    grid = TimeGrid(1.0, 10)
    noise = NoiseBundle(seed=8, n_paths=2, n_particles=4, grid=grid)
    frozen = constant_flow(0.0, grid, 2)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((2, 4, 10))), noise,
                           InitialLaw(kind="constant", mu=1.0), frozen_flow=frozen)
    # with mean frozen at 0 the coupling term vanishes: pure b1 dynamics
    b1 = spec.params["b1"]
    st0 = spec.params["sigma_tilde0"]
    s0 = spec.params["sigma0"]
    x = np.full((2, 4), 1.0)
    for n in range(10):
        x = x + b1 * x * grid.dt + s0 * noise.dW[:, :, n] + st0 * noise.dW_common[:, n][:, None]
    assert np.allclose(ens.states[:, :, -1], x, atol=1e-12)


def test_non_finite_state_raises_with_location():
    grid = TimeGrid(1.0, 10)
    spec = simple_spec(b1=1e200)
    noise = NoiseBundle(seed=9, n_paths=2, n_particles=2, grid=grid)
    with pytest.raises(SimulationError) as err:
        simulate_forward(spec, OpenLoopControl(np.zeros((2, 2, 10))), noise,
                         InitialLaw(kind="constant", mu=1.0))
    assert err.value.step is not None


def test_subinterval_simulation():
    grid = TimeGrid(1.0, 10)
    spec = simple_spec(b0=1.0)
    noise = NoiseBundle(seed=10, n_paths=2, n_particles=2, grid=grid)
    init = np.full((2, 2), 0.5)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((2, 2, 4))), noise,
                           init_states=init, n_lo=3, n_hi=7)
    assert ens.grid.t0 == pytest.approx(0.3)
    assert ens.states.shape == (2, 2, 5)
    assert np.allclose(ens.states[:, :, -1], 0.5 + 0.4, atol=1e-12)


def test_particle_arrays_are_stored_time_major():
    grid = TimeGrid(1.0, 12)
    spec = get_preset("lq_drift_coupled").spec
    noise = NoiseBundle(seed=12, n_paths=3, n_particles=8, grid=grid)
    # a C-ordered control table is accepted as is
    ens = simulate_forward(spec, OpenLoopControl(np.full((3, 8, 12), 0.1)), noise,
                           InitialLaw(kind="normal", mu=1.0, std=0.5))
    assert ens.states.shape == (3, 8, 13) and ens.controls.shape == (3, 8, 12)
    assert_steps_contiguous(noise.dW, ens.states, ens.controls, ens.flow.atoms)

    # flows built from C-ordered atoms are brought into the layout, values unchanged
    stacked = np.ascontiguousarray(ens.states)
    flow = MeasureFlow(atoms=stacked, grid=grid)
    assert_steps_contiguous(flow.atoms, constant_flow(0.5, grid, 3).atoms)
    assert np.array_equal(flow.atoms, stacked)
    assert np.array_equal(flow.means, ens.flow.means)


def test_noise_bundle_from_arrays():
    grid = TimeGrid(1.0, 10)
    seeded = NoiseBundle(seed=13, n_paths=4, n_particles=6, grid=grid)
    dW = np.ascontiguousarray(seeded.dW)        # C-ordered (j, k, n) input
    dW[:, 0] = 0.0
    dwc = seeded.dW_common[::-1].copy()
    given = NoiseBundle.from_arrays(13, grid, dW, dwc)
    assert_steps_contiguous(given.dW)
    assert np.array_equal(given.dW, dW) and np.array_equal(given.dW_common, dwc)
    assert (given.n_paths, given.n_particles) == (4, 6)
    # initial draws stay keyed by the seed
    law = InitialLaw(kind="normal", mu=0.0, std=1.0)
    assert np.array_equal(given.initial_states(law), seeded.initial_states(law))

    # meta describes the increments held, not the seed's draws
    meta = given.meta()
    assert meta["increments"] == "given"
    assert "increments" not in seeded.meta()
    assert meta["digest"] == NoiseBundle.from_arrays(13, grid, dW, dwc).meta()["digest"]
    assert meta["digest"] != NoiseBundle.from_arrays(13, grid, seeded.dW, dwc).meta()["digest"]
    with pytest.raises(SimulationError):
        NoiseBundle.from_arrays(13, grid, dW, dwc[:, :5])
