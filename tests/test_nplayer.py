"""Finite-player game: exchangeability, gap estimator, trends."""

import numpy as np
import pytest

from cnmfg.bsde import picard_solve, terminal_from_cost
from cnmfg.errors import SolverError
from cnmfg.forward_sim import InitialLaw, NoiseBundle, TimeGrid, simulate_forward
from cnmfg.lq_oracle import lq_cost_oracle, solve_riccati
from cnmfg.measures import MeasureFlow
from cnmfg.model import get_preset, per_sample_costs
from cnmfg.mfg_solvers import solve_scaled_fbsde
from cnmfg.nplayer import (FeedbackStrategy, GapEstimate, gap_versus_n, nash_gap,
                           population_cost_convergence, simulate_nplayer)

GRID = TimeGrid(1.0, 50)
XI0 = InitialLaw(kind="normal", mu=1.0, std=0.5)


def riccati_strategy(preset):
    return FeedbackStrategy.from_riccati(solve_riccati(preset.lq_params, GRID))


def test_feedback_from_bundle_matches_riccati_feedback():
    preset = get_preset("lq")
    noise = NoiseBundle(seed=3, n_paths=16, n_particles=96, grid=GRID)
    bundle = solve_scaled_fbsde(preset.spec, 1.0, XI0, None, noise, tol=3e-4)
    fitted = FeedbackStrategy.from_bundle(bundle)
    exact = riccati_strategy(preset)
    # interior steps: the affine regression recovers the oracle feedback
    sl = slice(2, 45)
    assert np.max(np.abs(fitted.slope_x[sl] - exact.slope_x[sl])) < 0.08
    assert np.max(np.abs(fitted.intercept[sl] - exact.intercept[sl])) < 0.08


def test_feedback_from_bundle_rejects_a_non_finite_fit():
    preset = get_preset("lq")
    grid = TimeGrid(1.0, 5)
    noise = NoiseBundle(seed=3, n_paths=4, n_particles=8, grid=grid)
    bundle = solve_scaled_fbsde(preset.spec, 1.0, XI0, None, noise, tol=1e-3)
    bundle.controls[0, 0, 2] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        FeedbackStrategy.from_bundle(bundle)


def test_symmetric_players_zero_noise_identical_paths():
    preset = get_preset("lq", {"sigma0": 0.0, "sigma_tilde0": 0.0})
    strat = riccati_strategy(preset)
    sys = simulate_nplayer(preset.spec, strat, 8, GRID,
                           InitialLaw(kind="constant", mu=1.0), seeds=[5])
    states, costs = sys.states[0], sys.costs[0]
    assert np.max(np.abs(states - states[:1, :])) < 1e-12
    assert np.max(np.abs(costs - costs[0])) < 1e-12


def test_exchangeability_under_relabeling():
    preset = get_preset("lq")
    strat = riccati_strategy(preset)
    sys = simulate_nplayer(preset.spec, strat, 16, GRID, XI0, seeds=[9])
    states, costs = sys.states[0], sys.costs[0]
    # relabeling players permutes rows: the empirical flow and the cost
    # multiset are invariant exactly
    perm = np.random.default_rng(0).permutation(16)
    relabeled_states = states[perm]
    for n in (0, 25, 50):
        assert np.array_equal(np.sort(relabeled_states[:, n]), np.sort(states[:, n]))
    assert np.array_equal(np.sort(costs[perm]), np.sort(costs))


def test_single_player_zero_coupling_reduces_to_single_agent_cost():
    flat = get_preset("lq", {"lam": 0.0, "lamg": 0.0, "kappa": 0.0})
    strat = riccati_strategy(flat)
    sys = simulate_nplayer(flat.spec, strat, 1, GRID, XI0, seeds=[11])
    # single-agent reference: population-limit cost of the same feedback
    ref = lq_cost_oracle(flat.lq_params, XI0, GRID)
    costs = simulate_nplayer(flat.spec, strat, 1, GRID, XI0, seeds=range(100, 140)).costs[:, 0]
    assert abs(np.mean(costs) - ref) < 3 * np.std(costs) / np.sqrt(len(costs)) + 0.02 * abs(ref)
    assert sys.costs.shape == (1, 1)


def test_limit_mean_path_tracks_empirical_mean_for_large_n():
    preset = get_preset("lq")
    strat = riccati_strategy(preset)
    sys = simulate_nplayer(preset.spec, strat, 4096, GRID, XI0, seeds=[13])
    ode = sys.limit_means[0]
    emp = sys.states[0].mean(axis=0)
    assert np.max(np.abs(emp - ode)) < 0.05


def test_zero_coupling_gap_within_noise():
    flat = get_preset("lq", {"lam": 0.0, "lamg": 0.0, "kappa": 0.0})
    strat = riccati_strategy(flat)
    g = nash_gap(flat.spec, strat, 8, GRID, XI0, seed=7, n_replicas=16, n_copies=96,
                 solver_tol=3e-4)
    # the strategy is exactly optimal: any positive gain is rectified solver noise
    assert g.gap <= 3 * g.stderr + 1e-4
    assert g.gap >= 0.0  # class-best deviation can never lose


def test_gap_positive_at_small_n_with_strong_coupling():
    firm = get_preset("lq", {"c1": 1.0, "lam": 1.0, "cg": 0.75, "lamg": 1.0})
    strat = riccati_strategy(firm)
    g = nash_gap(firm.spec, strat, 2, GRID, XI0, seed=3, n_replicas=24, n_copies=96,
                 solver_tol=3e-4)
    assert not g.inconclusive
    assert g.gap > 3 * g.stderr

    # independent parametric deviation: a grid of feedback rescalings for
    # player 1 must already beat the shared strategy beyond noise, confirming
    # a genuine equilibrium gap without the regression solver
    from cnmfg.forward_sim import FeedbackControl

    games = simulate_nplayer(firm.spec, strat, 2, GRID, XI0, seeds=[3 + 613 * r for r in range(24)])
    frozen = games.flow
    seeded = NoiseBundle(seed=3 + 10_000_019, n_paths=24, n_particles=2, grid=GRID)
    dW, init = seeded.dW.copy(order="K"), seeded.initial_states(XI0)
    dW[:, 0] = games.noise.dW[:, 0]
    init[:, 0] = games.states[:, 0, 0]
    dev_noise = NoiseBundle.from_arrays(seeded.seed, GRID, dW, games.noise.dW_common)
    base_rule = strat.control_rule(games.limit_means)

    def leg(scale):
        rule = FeedbackControl(lambda step, t, x: scale * base_rule.fn(step, t, x))
        ens = simulate_forward(firm.spec, rule, dev_noise, init_states=init, frozen_flow=frozen)
        return per_sample_costs(firm.spec, ens.states, ens.controls, frozen, GRID)[:, 0]

    cost_strategy = leg(1.0)
    best = cost_strategy.copy()
    for scale in np.linspace(0.6, 1.4, 17):
        best = np.minimum(best, leg(float(scale)))
    diff = cost_strategy - best
    se = np.std(diff, ddof=1) / np.sqrt(24)
    assert diff.mean() > 3 * se


def test_gap_trend_and_average_cost_trend():
    preset = get_preset("lq")
    strat = riccati_strategy(preset)
    out = gap_versus_n(preset.spec, strat, [4, 32, 128], GRID, XI0, seeds=[100, 101, 102],
                       n_replicas=16, n_copies=96, solver_tol=3e-4)
    meds = [out["medians"][n] for n in (4, 32, 128)]
    assert meds[0] >= meds[1] >= meds[2] - 1e-9
    assert all(m >= 0 for m in meds)

    # average realized player cost approaches the population-limit cost,
    # isolated by pairing every player against a large-population embedding
    seeds = range(300, 340)
    gaps = [population_cost_convergence(preset.spec, strat, n_players, GRID, XI0, seeds)
            for n_players in (4, 16, 64)]
    assert gaps[0]["abs_gap"] > gaps[1]["abs_gap"] > gaps[2]["abs_gap"]


# ---------------------------------------------------------------------------
# Batched games: each game of a batch is the game played alone
# ---------------------------------------------------------------------------

SHORT = TimeGrid(1.0, 20)


def test_batched_games_equal_single_games():
    lq = get_preset("lq")
    strat = FeedbackStrategy.from_riccati(solve_riccati(lq.lq_params, SHORT))
    seeds = [5, 6, 7]
    # tanh_drift reads its measure argument through a nonlinear coefficient
    for spec in (lq.spec, get_preset("tanh_drift").spec):
        for n_players in (1, 6):
            batch = simulate_nplayer(spec, strat, n_players, SHORT, XI0, seeds)
            assert batch.states.shape == (3, n_players, 21)
            assert batch.costs.shape == (3, n_players)
            for g, seed in enumerate(seeds):
                alone = simulate_nplayer(spec, strat, n_players, SHORT, XI0, [seed])
                for name in ("states", "controls", "costs", "limit_means"):
                    assert np.array_equal(getattr(batch, name)[g], getattr(alone, name)[0])


def _reference_nash_gap(spec, strategy, n_players, grid, xi0, seed, *, n_copies, n_replicas,
                        solver_tol, max_iter=60):
    """The estimator with one game played per replica."""
    runs = [simulate_nplayer(spec, strategy, n_players, grid, xi0, [seed + 613 * r])
            for r in range(n_replicas)]
    frozen = MeasureFlow(atoms=np.concatenate([run.states for run in runs]), grid=grid)
    dev_seed = seed + 10_000_019
    seeded = NoiseBundle(seed=dev_seed, n_paths=n_replicas, n_particles=n_copies, grid=grid)
    dW, init_states = seeded.dW.copy(order="K"), seeded.initial_states(xi0)
    for r, run in enumerate(runs):
        dW[r, 0] = run.noise.dW[0, 0]
        init_states[r, 0] = run.states[0, 0, 0]
    dev_noise = NoiseBundle.from_arrays(
        dev_seed, grid, dW, np.concatenate([run.noise.dW_common for run in runs], axis=0))
    strat_rule = strategy.control_rule(np.concatenate([run.limit_means for run in runs]))
    strat_ens = simulate_forward(spec, strat_rule, dev_noise,
                                 init_states=init_states, frozen_flow=frozen)
    cost_strat = per_sample_costs(spec, strat_ens.states, strat_ens.controls, frozen, grid)
    try:
        dev = picard_solve(spec, dev_noise, terminal_from_cost(spec), init_states=init_states,
                           frozen_flow=frozen, u0=strat_ens.controls, tol=solver_tol,
                           max_iter=max_iter)
    except SolverError:
        return GapEstimate(gap=float("nan"), stderr=float("nan"),
                           cost_strategy=float(np.mean(cost_strat)),
                           cost_deviation=float("nan"), n_players=n_players,
                           n_copies=n_copies, n_replicas=n_replicas, inconclusive=True)
    cost_dev = per_sample_costs(spec, dev.states, dev.controls, frozen, grid)
    dev_class = np.minimum(cost_dev[:, 0], cost_strat[:, 0])
    diff = cost_strat[:, 0] - dev_class
    return GapEstimate(gap=float(np.mean(diff)),
                       stderr=float(np.std(diff, ddof=1) / np.sqrt(n_replicas)),
                       cost_strategy=float(np.mean(cost_strat[:, 0])),
                       cost_deviation=float(np.mean(dev_class)),
                       n_players=n_players, n_copies=n_copies, n_replicas=n_replicas)


def _reference_population_cost_convergence(spec, strategy, n_players, grid, xi0, seeds, *,
                                           proxy_particles=1024):
    """The paired proxy comparison with one game played per seed."""
    diffs = []
    for seed in seeds:
        run = simulate_nplayer(spec, strategy, n_players, grid, xi0, [seed])
        big_seed = seed + 50_000_017
        dW = NoiseBundle(seed=big_seed, n_paths=1, n_particles=proxy_particles,
                         grid=grid).dW.copy(order="K")
        dW[0, :n_players] = run.noise.dW[0]
        big = NoiseBundle.from_arrays(big_seed, grid, dW, run.noise.dW_common)
        init = big.initial_states(xi0)
        init[0, :n_players] = run.states[0, :, 0]
        ens = simulate_forward(spec, strategy.control_rule(run.limit_means), big, init_states=init)
        proxy = per_sample_costs(spec, ens.states, ens.controls, ens.flow, grid)[0, :n_players]
        diffs.append(run.costs[0].mean() - proxy.mean())
    diffs = np.asarray(diffs)
    return {"n_players": n_players, "mean_gap": float(diffs.mean()),
            "abs_gap": float(abs(diffs.mean())),
            "stderr": float(diffs.std(ddof=1) / np.sqrt(len(diffs)))}


def test_batched_estimators_equal_per_replica_reference():
    preset = get_preset("lq")
    strat = FeedbackStrategy.from_riccati(solve_riccati(preset.lq_params, SHORT))
    for n_players in (1, 4):
        kw = dict(n_copies=16, n_replicas=8, solver_tol=1e-3)
        got = nash_gap(preset.spec, strat, n_players, SHORT, XI0, 21, **kw)
        want = _reference_nash_gap(preset.spec, strat, n_players, SHORT, XI0, 21, **kw)
        assert not got.inconclusive
        assert got.to_dict() == want.to_dict()
        got = population_cost_convergence(preset.spec, strat, n_players, SHORT, XI0, range(30, 34),
                                          proxy_particles=64)
        want = _reference_population_cost_convergence(preset.spec, strat, n_players, SHORT, XI0,
                                                      range(30, 34), proxy_particles=64)
        assert got == want


def test_deviation_solve_starts_from_the_strategy_leg(monkeypatch):
    import cnmfg.nplayer as nplayer

    preset = get_preset("lq")
    strat = FeedbackStrategy.from_riccati(solve_riccati(preset.lq_params, SHORT))
    legs, solves = [], []

    def recording_simulate(*args, **kw):
        legs.append(simulate_forward(*args, **kw))
        return legs[-1]

    def recording_solve(*args, **kw):
        warm = picard_solve(*args, **kw)
        cold = picard_solve(*args, **dict(kw, u0=None, first_pass=None))
        solves.append((kw["u0"], warm, cold))
        return warm

    monkeypatch.setattr(nplayer, "simulate_forward", recording_simulate)
    monkeypatch.setattr(nplayer, "picard_solve", recording_solve)
    g = nash_gap(preset.spec, strat, 4, SHORT, XI0, 21, n_copies=16, n_replicas=8,
                 solver_tol=1e-3)
    assert not g.inconclusive
    (u0, warm, cold), = solves
    # the strategy leg is the last forward simulation before the solve
    assert u0 is legs[-1].controls
    assert warm.diagnostics["iterations"] < cold.diagnostics["iterations"]


@pytest.mark.parametrize("name", ["lq", "lq_drift_coupled", "tanh_drift"])
def test_deviation_solve_takes_the_strategy_leg_as_its_first_pass(monkeypatch, name):
    # the same estimate, bit for bit, as a solve that simulates its first sweep,
    # with one forward simulation fewer inside the solve
    from cnmfg import bsde, nplayer

    spec = get_preset(name).spec
    strat = FeedbackStrategy.from_riccati(solve_riccati(get_preset("lq").lq_params, SHORT))
    simulations, sweeps = [], []
    real_simulate, real_solve = bsde.simulate_forward, nplayer.picard_solve

    def counting_simulate(*args, **kw):
        simulations.append(args)
        return real_simulate(*args, **kw)

    def counting_solve(*args, **kw):
        bundle = real_solve(*args, **kw)
        sweeps.append(bundle.diagnostics["iterations"])
        return bundle

    def simulating_solve(*args, first_pass, **kw):
        return counting_solve(*args, **kw)

    monkeypatch.setattr(bsde, "simulate_forward", counting_simulate)
    estimates, counts = [], []
    for solve in (counting_solve, simulating_solve):
        monkeypatch.setattr(nplayer, "picard_solve", solve)
        simulations.clear()
        estimates.append(nash_gap(spec, strat, 4, SHORT, XI0, 21, n_copies=16, n_replicas=8,
                                  solver_tol=1e-3))
        counts.append(len(simulations))
    reused, simulated = estimates
    assert not reused.inconclusive
    assert reused.to_dict() == simulated.to_dict()
    assert sweeps[0] == sweeps[1] >= 2
    assert counts == [sweeps[0] - 1, sweeps[0]]


def test_stalled_deviation_solve_is_retried_without_the_flow_mean_covariate(monkeypatch):
    # the bench's nash_small game at seed 138011 and N = 16: replica 10's flow
    # mean (1.67 at mid-horizon, the others' 0.76-0.99) holds 0.9-0.98 of the
    # leverage of the flow-mean columns at most steps, and with them the
    # deviation iteration stalls at a residual near 0.1
    import cnmfg.nplayer as nplayer

    preset = get_preset("lq")
    grid = TimeGrid(1.0, 25)
    strat = FeedbackStrategy.from_riccati(solve_riccati(preset.lq_params, grid))
    attempts = []

    def recording_solve(spec, *args, **kw):
        try:
            bundle = picard_solve(spec, *args, **kw)
        except SolverError:
            attempts.append((spec.measure_coupled, False))
            raise
        attempts.append((spec.measure_coupled, True))
        return bundle

    monkeypatch.setattr(nplayer, "picard_solve", recording_solve)
    g = nash_gap(preset.spec, strat, 16, grid, XI0, 138011, n_copies=32, n_replicas=12,
                 solver_tol=1e-3)
    assert attempts == [(True, False), (False, True)]
    assert not g.inconclusive
    assert 0.0 <= g.gap < 0.01
