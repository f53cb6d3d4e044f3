"""Finite-player game under the population feedback and empirical near-equilibrium gaps.

An N-player game is the particle system with one common path and one particle
per player: every player applies the same feedback at its own state and the
population-limit mean of the game's common noise, while coefficients and costs
read the empirical measure over the N players.  A path's law is the empirical
law of its own row, so a batch of independent games (one seed each) is played
as the paths of one particle simulation, each game bit for bit as if alone.

The equilibrium quality of the feedback is probed by the gap between a
player's cost under it and the cost of a best response computed against the
frozen empirical flow (solved with the regression machinery on a copy
ensemble that shares the run's common-noise realization and uses common
random numbers for the strategy and deviation legs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bsde import SolutionBundle, picard_solve, terminal_from_cost
from .errors import SolverError
from .forward_sim import FeedbackControl, InitialLaw, NoiseBundle, TimeGrid, simulate_forward
from .lq_oracle import RiccatiSolution, initial_moments
from .measures import MeasureFlow, PathLaws
from .mfg_solvers import fit_decoupling_field
from .model import ModelSpec, per_sample_costs


@dataclass
class FeedbackStrategy:
    """Per-step affine feedback u = intercept + slope_x * x + slope_mean * mean."""

    intercept: np.ndarray   # (n_steps,)
    slope_x: np.ndarray
    slope_mean: np.ndarray

    def control_rule(self, means: np.ndarray) -> FeedbackControl:
        """The feedback as a control rule on the means table ``means[j, step]``, a row per path."""
        def fn(step, t, x):
            return (self.intercept[step] + self.slope_x[step] * x
                    + self.slope_mean[step] * means[:, step, None])

        return FeedbackControl(fn)

    @classmethod
    def from_bundle(cls, bundle: SolutionBundle) -> "FeedbackStrategy":
        """Per-step pooled fit of the solved control on (1, x, mean); a
        non-finite fit raises SolverError."""
        fits = [fit_decoupling_field(bundle.states[:, :, n], bundle.flow.means[:, n],
                                     bundle.controls[:, :, n])
                for n in range(bundle.grid.n_steps)]
        return cls(**{name: np.array([getattr(f, name) for f in fits])
                      for name in ("intercept", "slope_x", "slope_mean")})

    @classmethod
    def from_riccati(cls, rs: RiccatiSolution) -> "FeedbackStrategy":
        n_steps = rs.grid.n_steps
        out = np.empty((n_steps, 3))
        for n in range(n_steps):
            alpha, beta, gamma_c = rs.feedback_at(n)
            out[n] = (gamma_c, alpha, beta)
        return cls(intercept=out[:, 0], slope_x=out[:, 1], slope_mean=out[:, 2])


@dataclass
class PlayerSystem:
    """States, controls and realized costs of a batch of N-player games, one per common path."""

    states: np.ndarray      # (n_games, n_players, n_nodes)
    controls: np.ndarray    # (n_games, n_players, n_steps)
    costs: np.ndarray       # (n_games, n_players)
    grid: TimeGrid
    noise: NoiseBundle = field(repr=False)
    limit_means: np.ndarray   # (n_games, n_nodes)

    @property
    def flow(self) -> MeasureFlow:
        return MeasureFlow(atoms=self.states, grid=self.grid)


def limit_mean_path(spec: ModelSpec, strategy: FeedbackStrategy, m0: float,
                    dw_common: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Euler integration of the closed population-mean dynamics under the strategy.

    In the population limit the idiosyncratic noise averages out, so the
    conditional mean follows its own equation driven by the common increments,
    with the control replaced by the strategy's mean feedback.  ``dw_common``
    holds one row of increments per game, (n_games, n_steps); the result holds
    one mean path per game, (n_games, n_nodes).
    """
    n_games, n = dw_common.shape
    dt = grid.dt
    out = np.empty((n_games, n + 1))
    out[:, 0] = m0
    # the population law of each game seen by the coefficients is the Dirac at
    # its limit mean: one path and one atom per game, refilled in place every step
    cell = np.empty((n_games, 1))
    law = PathLaws(mean=cell, atoms=cell)
    for i in range(n):
        t = grid.nodes[i]
        cell[:, 0] = out[:, i]
        ubar = strategy.intercept[i] + (strategy.slope_x[i] + strategy.slope_mean[i]) * cell
        drift = spec.drift.values(t, cell, ubar, law)
        diff = spec.vol_common.values(t, cell, ubar, law)
        out[:, i + 1] = (cell + drift * dt + diff * dw_common[:, i, None])[:, 0]
    return out


def simulate_nplayer(spec: ModelSpec, strategy: FeedbackStrategy, n_players: int,
                     grid: TimeGrid, xi0: InitialLaw, seeds) -> PlayerSystem:
    """Play one N-player game per seed under the shared feedback strategy.

    The empirical measure over players replaces the population law in the
    coefficients and costs, so a game is exactly the particle simulator with
    one common path and one particle per player.  Each seed's noise and
    initial states are drawn as for a one-path bundle of that seed; the games
    are then the paths of one simulation, game g on path g of every array.
    The feedback reads the population-limit mean integrated along each game's
    common noise (``limit_means``), the classic approximate-equilibrium
    strategy.
    """
    bundles = [NoiseBundle(seed=int(s), n_paths=1, n_particles=n_players, grid=grid)
               for s in seeds]
    init_states = np.concatenate([b.initial_states(xi0) for b in bundles])
    # the stacked bundle carries the first seed; its initial states are drawn per game above
    noise = NoiseBundle.from_arrays(bundles[0].seed, grid,
                                    np.concatenate([b.dW for b in bundles]),
                                    np.concatenate([b.dW_common for b in bundles]))
    limit_means = limit_mean_path(spec, strategy, initial_moments(xi0)[0], noise.dW_common, grid)
    ens = simulate_forward(spec, strategy.control_rule(limit_means), noise,
                           init_states=init_states)
    costs = per_sample_costs(spec, ens.states, ens.controls, ens.flow, grid)
    return PlayerSystem(states=ens.states, controls=ens.controls, costs=costs,
                        grid=grid, noise=noise, limit_means=limit_means)


@dataclass
class GapEstimate:
    gap: float
    stderr: float
    cost_strategy: float
    cost_deviation: float
    n_players: int
    n_copies: int
    n_replicas: int = 1
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {k: (float(v) if not isinstance(v, (bool, int)) else v)
                for k, v in self.__dict__.items()}


def nash_gap(spec: ModelSpec, strategy: FeedbackStrategy, n_players: int, grid: TimeGrid,
             xi0: InitialLaw, seed: int, *, n_copies: int = 128, n_replicas: int = 24,
             solver_tol: float = 1e-4) -> GapEstimate:
    """Expected unilateral-deviation gain for one player against frozen opponents.

    Runs ``n_replicas`` independent N-player games (one common-noise
    realization each) under the shared strategy and freezes their empirical
    flows.  Copies of a single player (fresh idiosyncratic noise, each
    replica's common noise, common random numbers between the two legs) are
    simulated following the strategy and following the best response solved
    against the frozen flows, its control iteration started from the strategy
    leg's controls; a solve that fails is tried once more without the
    flow-mean covariate of the cross-path regression, and an estimate whose
    solves both fail is inconclusive.  Several replicas are essential: the
    common loadings of the best-response solve are identified across
    replicas, keeping the deviation adapted - a single realization would hand
    it anticipative knowledge of the common path.  Player 1's paired cost
    difference (copy 0 reuses player 1's noise and initial state) estimates
    the deviation gain, one independent sample per replica.

    The strategy feeds back on the population-limit mean along the realized
    common noise; its mismatch with the realized N-player mean is what the
    deviation exploits, and the gap shrinks as N grows.
    """
    games = simulate_nplayer(spec, strategy, n_players, grid, xi0,
                             [seed + 613 * r for r in range(n_replicas)])
    frozen = games.flow

    # fresh copy noise under each replica's common noise; copy 0 of every
    # replica is that replica's player 1
    dev_seed = seed + 10_000_019
    seeded = NoiseBundle(seed=dev_seed, n_paths=n_replicas, n_particles=n_copies, grid=grid)
    dW, init_states = seeded.dW.copy(order="K"), seeded.initial_states(xi0)
    dW[:, 0] = games.noise.dW[:, 0]
    init_states[:, 0] = games.states[:, 0, 0]
    dev_noise = NoiseBundle.from_arrays(dev_seed, grid, dW, games.noise.dW_common)

    strat_ens = simulate_forward(spec, strategy.control_rule(games.limit_means), dev_noise,
                                 init_states=init_states, frozen_flow=frozen)
    cost_strat = per_sample_costs(spec, strat_ens.states, strat_ens.controls, frozen, grid)

    # the strategy leg lies within one equilibrium error of the best response,
    # and it is the first sweep's forward pass; picard_solve never writes into
    # its u0, and cost_strat is already taken.  A replica whose flow mean lies
    # far from the others' can take nearly all the leverage of the flow-mean
    # columns of the cross-path regression, and the iteration then stalls.  On
    # a frozen flow those columns serve only the regression (``measure_coupled``
    # selects nothing else), so a failed solve is tried again without them.
    attempts = [spec, replace(spec, measure_coupled=False)] if spec.measure_coupled else [spec]
    dev = None
    for attempt in attempts:
        try:
            dev = picard_solve(attempt, dev_noise, terminal_from_cost(spec),
                               init_states=init_states, frozen_flow=frozen,
                               u0=strat_ens.controls, first_pass=strat_ens, tol=solver_tol)
            break
        except SolverError:
            pass
    if dev is None:
        return GapEstimate(gap=float("nan"), stderr=float("nan"),
                           cost_strategy=float(np.mean(cost_strat)),
                           cost_deviation=float("nan"), n_players=n_players,
                           n_copies=n_copies, n_replicas=n_replicas, inconclusive=True)
    cost_dev = per_sample_costs(spec, dev.states, dev.controls, frozen, grid)

    # player-1 paired differences, one independent sample per replica; the
    # deviation class contains the strategy itself, so the class-best cost per
    # realization is the cheaper of the two legs and the gain is nonnegative
    dev_class = np.minimum(cost_dev[:, 0], cost_strat[:, 0])
    diff = cost_strat[:, 0] - dev_class
    stderr = float(np.std(diff, ddof=1) / np.sqrt(n_replicas))
    return GapEstimate(gap=float(np.mean(diff)), stderr=stderr,
                       cost_strategy=float(np.mean(cost_strat[:, 0])),
                       cost_deviation=float(np.mean(dev_class)),
                       n_players=n_players, n_copies=n_copies, n_replicas=n_replicas)


def gap_versus_n(spec: ModelSpec, strategy: FeedbackStrategy, player_counts, grid: TimeGrid,
                 xi0: InitialLaw, seeds, **kw) -> dict:
    """Gap estimates across player counts and seeds; medians per count."""
    table = {int(n): [] for n in player_counts}
    for n in player_counts:
        for seed in seeds:
            table[int(n)].append(nash_gap(spec, strategy, int(n), grid, xi0, int(seed), **kw))
    medians = {n: float(np.median([g.gap for g in gaps if not g.inconclusive]))
               for n, gaps in table.items()}
    return {"estimates": table, "medians": medians}


def population_cost_convergence(spec: ModelSpec, strategy: FeedbackStrategy, n_players: int,
                                grid: TimeGrid, xi0: InitialLaw, seeds, *,
                                proxy_particles: int = 1024) -> dict:
    """Average realized player cost against a paired large-population proxy.

    For each seed the N players are embedded in a ``proxy_particles``-strong
    population sharing their common path, their individual noises, and their
    initial states, so the paired cost difference isolates the effect of the
    finite empirical flow; its magnitude shrinks like the flow's sampling
    error as N grows.
    """
    seeds = [int(seed) for seed in seeds]
    games = simulate_nplayer(spec, strategy, n_players, grid, xi0, seeds)
    diffs = []
    # the proxy runs one seed at a time: a batch would hold every seed's
    # ``proxy_particles``-strong population at once
    for g, seed in enumerate(seeds):
        big_seed = seed + 50_000_017
        dW = NoiseBundle(seed=big_seed, n_paths=1, n_particles=proxy_particles,
                         grid=grid).dW.copy(order="K")
        dW[0, :n_players] = games.noise.dW[g]
        big = NoiseBundle.from_arrays(big_seed, grid, dW, games.noise.dW_common[g:g + 1])
        init = big.initial_states(xi0)
        init[0, :n_players] = games.states[g, :, 0]
        ens = simulate_forward(spec, strategy.control_rule(games.limit_means[g:g + 1]), big,
                               init_states=init)
        proxy_costs = per_sample_costs(spec, ens.states, ens.controls, ens.flow, grid)[0, :n_players]
        diffs.append(games.costs[g].mean() - proxy_costs.mean())
    diffs = np.asarray(diffs)
    return {"n_players": n_players, "mean_gap": float(diffs.mean()),
            "abs_gap": float(abs(diffs.mean())),
            "stderr": float(diffs.std(ddof=1) / np.sqrt(len(diffs)))}
