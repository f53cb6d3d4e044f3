"""Noise generation, Euler stepping, conditional-law consistency."""

import numpy as np
import pytest

from cnmfg import forward_sim
from cnmfg.errors import SimulationError
from cnmfg.forward_sim import (FeedbackControl, InitialLaw, NoiseBundle, OpenLoopControl,
                               TimeGrid, simulate_forward)
from cnmfg.measures import EmpiricalMeasure, MeasureFlow
from cnmfg.model import get_preset, hamiltonian_dx

from helpers import assert_steps_contiguous, constant_flow, simple_spec


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
    rule = FeedbackControl(lambda step, t, x: -0.3 * x)
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
    assert np.all(ens.states.var(axis=1) == 0.0)
    assert np.allclose(ens.flow.means, 3.0)

    ens2 = simulate_forward(spec, OpenLoopControl(np.zeros((8, 256, 5))), noise,
                            InitialLaw(kind="normal", mu=0.0, std=1.0))
    assert abs(ens2.states.var(axis=(0, 1))[0] - 1.0) <= 5 / np.sqrt(8 * 256)


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
    pooled = ens.states.var(axis=(0, 1))
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


def _second_moment(m):
    # reads only m.atoms, reducing over its last axis: one law or one per path
    return np.mean(m.atoms * m.atoms, axis=-1, keepdims=True)


def test_one_callable_serves_live_frozen_and_per_path_laws():
    # intercept and cost derivative depend on the law beyond its mean
    grid = TimeGrid(1.0, 8)
    spec = simple_spec(b1=-0.4, s0=0.3, st0=0.2)
    spec.drift.phi0 = lambda t, m: 0.5 * np.sqrt(_second_moment(m)) - 0.2 * m.mean
    spec.vol.phi0 = lambda t, m: 0.1 + 0.05 * _second_moment(m)
    spec.cost.f1x = lambda t, x, m: np.asarray(x) * _second_moment(m) - m.mean
    noise = NoiseBundle(seed=14, n_paths=3, n_particles=16, grid=grid)
    rule = FeedbackControl(lambda step, t, x: -0.5 * x + 0.1 * x.mean(axis=1, keepdims=True))
    law0 = InitialLaw(kind="normal", mu=0.5, std=0.8)
    live = simulate_forward(spec, rule, noise, law0)
    frozen = simulate_forward(spec, rule, noise, law0, frozen_flow=live.flow)
    assert np.array_equal(frozen.states, live.states)
    # the law dependence is not inert
    plain = simulate_forward(simple_spec(b1=-0.4, s0=0.3, st0=0.2), rule, noise, law0)
    assert not np.array_equal(live.states, plain.states)

    flow = live.flow
    rng = np.random.default_rng(0)
    for n in (0, 4, 7):
        t = grid.nodes[n]
        x, u = live.states[:, :, n], live.controls[:, :, n]
        p, q, qt = (rng.normal(size=x.shape) for _ in range(3))
        law = flow.at(n)
        assert law.mean.shape == (3, 1) and law.atoms.shape == (3, 16)
        batched_b = spec.drift.values(t, x, u, law)
        batched_hx = hamiltonian_dx(spec, t, x, p, q, qt, u, law)
        for j in range(3):
            m = EmpiricalMeasure(law.atoms[j])
            assert np.array_equal(batched_b[j], spec.drift.values(t, x[j], u[j], m))
            assert np.array_equal(batched_hx[j],
                                  hamiltonian_dx(spec, t, x[j], p[j], q[j], qt[j], u[j], m))


def test_non_finite_state_raises_with_location():
    grid = TimeGrid(1.0, 10)
    spec = simple_spec(b1=1e200)
    noise = NoiseBundle(seed=9, n_paths=2, n_particles=2, grid=grid)
    with pytest.raises(SimulationError) as err:
        simulate_forward(spec, OpenLoopControl(np.zeros((2, 2, 10))), noise,
                         InitialLaw(kind="constant", mu=1.0))
    assert err.value.step is not None


def test_noise_window_simulation():
    grid = TimeGrid(1.0, 10)
    noise = NoiseBundle(seed=10, n_paths=2, n_particles=3, grid=grid)

    # the window's step and nodes are the parent's, bit for bit
    first = noise.window(0, 3)
    assert first.grid.dt == grid.dt
    assert np.array_equal(first.grid.nodes, grid.nodes[:4])

    window = noise.window(3, 7)
    assert window.grid.n_steps == 4 and window.grid.dt == grid.dt
    assert np.array_equal(window.grid.nodes, grid.nodes[3:8])
    # the increments are views on the parent's, per-step slices contiguous
    assert np.shares_memory(window.dW, noise.dW)
    assert np.shares_memory(window.dW_common, noise.dW_common)
    assert np.array_equal(window.dW, noise.dW[:, :, 3:7])
    assert_steps_contiguous(window.dW)

    # Euler on the window: exact linear motion, and the same states as steps
    # 3..7 of a simulation on the parent grid started from its node-3 states
    spec = simple_spec(b0=1.0, b1=-0.5, s0=0.3, st0=0.2)
    init = np.full((2, 3), 0.5)
    drift_only = simulate_forward(simple_spec(b0=1.0), OpenLoopControl(np.zeros((2, 3, 4))),
                                  window, init_states=init)
    assert drift_only.grid is window.grid
    assert np.allclose(drift_only.states[:, :, -1], 0.5 + 0.4, atol=1e-12)
    full = simulate_forward(spec, OpenLoopControl(np.zeros((2, 3, 10))), noise,
                            init_states=init)
    part = simulate_forward(spec, OpenLoopControl(np.zeros((2, 3, 4))), window,
                            init_states=full.states[:, :, 3])
    assert np.array_equal(part.states, full.states[:, :, 3:8])

    # a frozen flow must lie on the noise's grid
    with pytest.raises(SimulationError, match="frozen flow"):
        simulate_forward(spec, OpenLoopControl(np.zeros((2, 3, 4))), window,
                         init_states=init, frozen_flow=full.flow)
    with pytest.raises(SimulationError, match="frozen flow"):
        simulate_forward(spec, OpenLoopControl(np.zeros((2, 3, 4))), window,
                         init_states=init, frozen_flow=constant_flow(0.0, TimeGrid(0.4, 4), 2))


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
    with pytest.raises(SimulationError):
        NoiseBundle.from_arrays(13, grid, dW, dwc[:, :5])


def test_coarsened_noise_sums_runs_of_fine_increments():
    seeded = NoiseBundle(seed=16, n_paths=3, n_particles=5, grid=TimeGrid(2.0, 12))
    law = InitialLaw(kind="normal", mu=1.0, std=0.5)
    for f in (1, 2, 3, 4):
        coarse = seeded.coarsened(f)
        assert coarse.grid == TimeGrid(2.0, 12 // f)
        assert_steps_contiguous(coarse.dW)
        # runs of f increments summed in order: the same Brownian paths
        assert np.array_equal(coarse.dW, sum(seeded.dW[:, :, i::f] for i in range(f)))
        assert np.array_equal(coarse.dW_common, sum(seeded.dW_common[:, i::f] for i in range(f)))
        assert np.array_equal(coarse.initial_states(law), seeded.initial_states(law))
    # one step over the horizon: its increment is the sum of all fine ones (a
    # run of 12 may be summed pairwise, so the order is not pinned)
    coarse = seeded.coarsened(12)
    assert coarse.grid == TimeGrid(2.0, 1)
    assert np.allclose(coarse.dW[:, :, 0], seeded.dW.sum(axis=2), rtol=0, atol=1e-14)
    assert np.allclose(coarse.dW_common[:, 0], seeded.dW_common.sum(axis=1), rtol=0, atol=1e-14)
    assert np.array_equal(coarse.initial_states(law), seeded.initial_states(law))
    with pytest.raises(SimulationError, match="no coarsening"):
        seeded.coarsened(5)


def test_initial_states_are_drawn_once_per_bundle_and_law(monkeypatch):
    grid = TimeGrid(1.0, 10)
    laws = (InitialLaw(kind="normal", mu=1.0, std=0.5),
            InitialLaw(kind="empirical", atoms=(1.0, 2.0, 4.0)))
    fresh = [NoiseBundle(seed=15, n_paths=4, n_particles=6, grid=grid).initial_states(law)
             for law in laws]
    seeded = NoiseBundle(seed=15, n_paths=4, n_particles=6, grid=grid)
    calls = []
    block_rng = forward_sim._block_rng
    monkeypatch.setattr(forward_sim, "_block_rng",
                        lambda *args: calls.append(args) or block_rng(*args))
    for bundle in (seeded, seeded.window(2, 7),
                   NoiseBundle.from_arrays(15, grid, seeded.dW, seeded.dW_common)):
        for law, expected in zip(laws, fresh):
            first = bundle.initial_states(law)
            drawn = len(calls)
            first[:] = -1.0            # the caller owns what it is handed
            second = bundle.initial_states(law)
            assert len(calls) == drawn and drawn > 0
            assert np.array_equal(first, np.full((4, 6), -1.0))
            assert np.array_equal(second, expected)
            del calls[:]


def _former_block_rng(seed, channel, j):
    """The former per-block draw: a new generator on the key, advanced to the block."""
    bits = np.random.Philox(key=seed)
    bits.advance(channel * forward_sim._CHANNEL_STRIDE + j * forward_sim._PATH_STRIDE)
    return np.random.Generator(bits)


@pytest.mark.parametrize("seed", [0, 11, 23, 2 ** 64 + 5])
@pytest.mark.parametrize("n_paths", [1, 5])
def test_noise_draws_equal_those_of_a_new_generator_per_block(seed, n_paths):
    # one keyed generator per draw loop, re-pointed at each block, draws what a
    # new generator per (channel, path) block drew, bit for bit
    k, n = 5, 7       # odd: a 32-bit draw leaves half a word behind
    bundle = NoiseBundle(seed=seed, n_paths=n_paths, n_particles=k,
                         grid=TimeGrid(1.0, n))
    root = np.sqrt(bundle.grid.dt)
    laws = {"constant": InitialLaw(kind="constant", mu=0.7),
            "normal": InitialLaw(kind="normal", mu=1.0, std=0.5),
            "empirical": InitialLaw(kind="empirical", atoms=(1.0, 2.0, 4.0))}
    atoms = np.asarray(laws["empirical"].atoms)
    for j in range(n_paths):
        idio = _former_block_rng(seed, forward_sim._CH_IDIOSYNCRATIC, j).standard_normal((k, n))
        assert np.array_equal(bundle.dW[j], idio * root)
        common = _former_block_rng(seed, forward_sim._CH_COMMON, j).standard_normal(n) * root
        assert np.array_equal(bundle.dW_common[j], common)
    want = {"constant": np.full((n_paths, k), 0.7),
            "normal": np.stack([1.0 + 0.5 * _former_block_rng(seed, forward_sim._CH_INITIAL, j)
                                .standard_normal(k) for j in range(n_paths)]),
            "empirical": np.stack([atoms[_former_block_rng(seed, forward_sim._CH_INITIAL, j)
                                         .integers(0, 3, size=k)] for j in range(n_paths)])}
    # a law drawn after another starts from its own blocks, not where that one stopped
    for kind in ("empirical", "normal", "constant"):
        assert np.array_equal(bundle.initial_states(laws[kind]), want[kind]), kind


def test_noise_is_read_only():
    # the solvers' common random numbers: nothing may write into them
    grid = TimeGrid(1.0, 10)
    seeded = NoiseBundle(seed=14, n_paths=3, n_particles=4, grid=grid)
    dW, dwc = seeded.dW.copy(order="K"), seeded.dW_common.copy()
    given = NoiseBundle.from_arrays(14, grid, dW, dwc)
    for bundle in (seeded, given, seeded.window(2, 6), given.window(0, 5), seeded.coarsened(2)):
        for array in (bundle.dW, bundle.dW_common):
            with pytest.raises(ValueError):
                array[0] = 0.0
    # the flag sits on a view: the caller's arrays stay writable
    dW[0, 0, 0] = dwc[0, 0] = 0.0
    assert given.dW[0, 0, 0] == 0.0 and given.dW_common[0, 0] == 0.0
