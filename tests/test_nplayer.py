"""Finite-player game: exchangeability, gap estimator, trends."""

import numpy as np

from cnmfg.forward_sim import InitialLaw, TimeGrid
from cnmfg.lq_oracle import lq_cost_oracle, solve_riccati
from cnmfg.model import get_preset
from cnmfg.mfg_solvers import solve_scaled_fbsde
from cnmfg.nplayer import FeedbackStrategy, gap_versus_n, nash_gap, simulate_nplayer

GRID = TimeGrid(1.0, 50)
XI0 = InitialLaw(kind="normal", mu=1.0, std=0.5)


def riccati_strategy(preset):
    return FeedbackStrategy.from_riccati(solve_riccati(preset.lq_params, GRID))


def test_feedback_from_bundle_matches_riccati_feedback():
    preset = get_preset("lq")
    from cnmfg.forward_sim import NoiseBundle

    noise = NoiseBundle(seed=3, n_paths=16, n_particles=96, grid=GRID)
    bundle = solve_scaled_fbsde(preset.spec, 1.0, XI0, None, noise, tol=3e-4)
    fitted = FeedbackStrategy.from_bundle(bundle)
    exact = riccati_strategy(preset)
    # interior steps: the affine regression recovers the oracle feedback
    sl = slice(2, 45)
    assert np.max(np.abs(fitted.slope_x[sl] - exact.slope_x[sl])) < 0.08
    assert np.max(np.abs(fitted.intercept[sl] - exact.intercept[sl])) < 0.08


def test_symmetric_players_zero_noise_identical_paths():
    preset = get_preset("lq", {"sigma0": 0.0, "sigma_tilde0": 0.0})
    strat = riccati_strategy(preset)
    sys = simulate_nplayer(preset.spec, strat, 8, GRID,
                           InitialLaw(kind="constant", mu=1.0), seed=5)
    assert np.max(np.abs(sys.states - sys.states[:1, :])) < 1e-12
    assert np.max(np.abs(sys.costs - sys.costs[0])) < 1e-12


def test_exchangeability_under_relabeling():
    preset = get_preset("lq")
    strat = riccati_strategy(preset)
    sys = simulate_nplayer(preset.spec, strat, 16, GRID, XI0, seed=9)
    # relabeling players permutes rows: the empirical flow and the cost
    # multiset are invariant exactly
    perm = np.random.default_rng(0).permutation(16)
    relabeled_states = sys.states[perm]
    for n in (0, 25, 50):
        assert np.array_equal(np.sort(relabeled_states[:, n]), np.sort(sys.states[:, n]))
    assert np.array_equal(np.sort(sys.costs[perm]), np.sort(sys.costs))


def test_single_player_zero_coupling_reduces_to_single_agent_cost():
    flat = get_preset("lq", {"lam": 0.0, "lamg": 0.0, "kappa": 0.0})
    strat = riccati_strategy(flat)
    sys = simulate_nplayer(flat.spec, strat, 1, GRID, XI0, seed=11)
    # single-agent reference: population-limit cost of the same feedback
    ref = lq_cost_oracle(flat.lq_params, XI0, GRID)
    costs = []
    for seed in range(40):
        costs.append(simulate_nplayer(flat.spec, strat, 1, GRID, XI0, seed=100 + seed).costs[0])
    assert abs(np.mean(costs) - ref) < 3 * np.std(costs) / np.sqrt(len(costs)) + 0.02 * abs(ref)
    assert sys.costs.shape == (1,)


def test_limit_mean_path_tracks_empirical_mean_for_large_n():
    preset = get_preset("lq")
    strat = riccati_strategy(preset)
    sys = simulate_nplayer(preset.spec, strat, 4096, GRID, XI0, seed=13, mean_source="limit")
    ode = sys.limit_means
    emp = sys.states.mean(axis=0)
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
    from cnmfg.forward_sim import FeedbackControl, NoiseBundle, simulate_forward
    from cnmfg.measures import MeasureFlow
    from cnmfg.model import per_sample_costs

    runs = [simulate_nplayer(firm.spec, strat, 2, GRID, XI0, seed=3 + 613 * r,
                             mean_source="limit") for r in range(24)]
    frozen = MeasureFlow(atoms=np.stack([r.states for r in runs]), grid=GRID)
    seeded = NoiseBundle(seed=3 + 10_000_019, n_paths=24, n_particles=2, grid=GRID)
    dW, init = seeded.dW.copy(order="K"), seeded.initial_states(XI0)
    for r, run in enumerate(runs):
        dW[r, 0] = run.noise.dW[0, 0]
        init[r, 0] = run.states[0, 0]
    dev_noise = NoiseBundle.from_arrays(seeded.seed, GRID, dW,
                                        np.concatenate([r.noise.dW_common for r in runs], axis=0))
    limit_matrix = np.stack([r.limit_means for r in runs])
    base_rule = strat.control_rule()

    def leg(scale):
        rule = FeedbackControl(lambda step, t, x, means:
                               scale * base_rule.fn(step, t, x, limit_matrix[:, step]))
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
    from cnmfg.nplayer import population_cost_convergence

    seeds = range(300, 340)
    gaps = [population_cost_convergence(preset.spec, strat, n_players, GRID, XI0, seeds)
            for n_players in (4, 16, 64)]
    assert gaps[0]["abs_gap"] > gaps[1]["abs_gap"] > gaps[2]["abs_gap"]
