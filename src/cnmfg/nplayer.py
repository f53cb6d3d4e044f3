"""Finite-player game under the population feedback and empirical near-equilibrium gaps.

The N-player system is the particle system with a single common path and one
particle per player: every player applies the same feedback evaluated at the
player's own state with the population law replaced by the empirical measure
over the N players.  The equilibrium quality of the feedback is probed by the
gap between a player's cost under it and the cost of a best response computed
against the frozen empirical flow (solved with the regression machinery on a
copy ensemble that shares the run's common-noise realization and uses common
random numbers for the strategy and deviation legs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import SolutionBundle, picard_solve, terminal_from_cost
from .errors import SolverError
from .forward_sim import FeedbackControl, InitialLaw, NoiseBundle, TimeGrid, simulate_forward
from .lq_oracle import RiccatiSolution
from .measures import MeasureFlow
from .model import ModelSpec, per_sample_costs


@dataclass
class FeedbackStrategy:
    """Per-step affine feedback u = intercept + slope_x * x + slope_mean * mean."""

    intercept: np.ndarray   # (n_steps,)
    slope_x: np.ndarray
    slope_mean: np.ndarray

    def control_rule(self) -> FeedbackControl:
        def fn(step, t, x, means):
            return (self.intercept[step] + self.slope_x[step] * x
                    + self.slope_mean[step] * means[:, None])

        return FeedbackControl(fn)

    @classmethod
    def from_bundle(cls, bundle: SolutionBundle) -> "FeedbackStrategy":
        """Per-step pooled regression of the solved control on (1, x, mean)."""
        n_steps = bundle.controls.shape[2]
        means = bundle.flow.means
        coefs = np.empty((n_steps, 3))
        for n in range(n_steps):
            x = bundle.states[:, :, n].ravel()
            mb = np.repeat(means[:, n], bundle.states.shape[1])
            design = np.column_stack([np.ones_like(x), x, mb])
            sol, *_ = np.linalg.lstsq(design, bundle.controls[:, :, n].ravel(), rcond=None)
            coefs[n] = sol
        return cls(intercept=coefs[:, 0], slope_x=coefs[:, 1], slope_mean=coefs[:, 2])

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
    """States, controls and realized costs of the N players on one common path."""

    states: np.ndarray      # (n_players, n_nodes)
    controls: np.ndarray    # (n_players, n_steps)
    costs: np.ndarray       # (n_players,)
    grid: TimeGrid
    noise: NoiseBundle = field(repr=False, default=None)
    limit_means: np.ndarray | None = None

    @property
    def n_players(self) -> int:
        return self.states.shape[0]

    @property
    def flow(self) -> MeasureFlow:
        return MeasureFlow(atoms=self.states[None, :, :], grid=self.grid)


def limit_mean_path(spec: ModelSpec, strategy: FeedbackStrategy, m0: float,
                    dw_common: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Euler integration of the closed population-mean dynamics under the strategy.

    In the population limit the idiosyncratic noise averages out, so the
    conditional mean follows its own equation driven by the common increments,
    with the control replaced by the strategy's mean feedback.
    """
    n = dw_common.size
    dt = grid.dt
    out = np.empty(n + 1)
    out[0] = m0
    mean_arr = np.empty((1, 1))
    for i in range(n):
        t = grid.nodes[i]
        m = out[i]
        mean_arr[0, 0] = m
        ubar = strategy.intercept[i] + (strategy.slope_x[i] + strategy.slope_mean[i]) * m
        drift = (spec.drift.intercept_values(t, mean_arr, mean_arr ** 2).item()
                 + spec.drift.phi1(t) * m + spec.drift.phi2(t) * ubar)
        diff = (spec.vol_common.intercept_values(t, mean_arr, mean_arr ** 2).item()
                + spec.vol_common.phi1(t) * m + spec.vol_common.phi2(t) * ubar)
        out[i + 1] = m + drift * dt + diff * dw_common[i]
    return out


def _initial_mean(xi0: InitialLaw) -> float:
    if xi0.kind == "empirical":
        return float(np.mean(xi0.atoms))
    return float(xi0.mu)


def simulate_nplayer(spec: ModelSpec, strategy: FeedbackStrategy, n_players: int,
                     grid: TimeGrid, xi0: InitialLaw, seed: int, *,
                     mean_source: str = "empirical") -> PlayerSystem:
    """Simulate the N-player system under the shared feedback strategy.

    The empirical measure over players replaces the population law in the
    coefficients and costs, so this is exactly the particle simulator with one
    common path and one particle per player.  ``mean_source`` selects the mean
    the feedback reads: "empirical" (the realized N-player mean) or "limit"
    (the population-limit mean integrated along the realized common noise,
    the classic approximate-equilibrium strategy).
    """
    noise = NoiseBundle(seed=seed, n_paths=1, n_particles=n_players, grid=grid)
    limit_means = None
    rule = strategy.control_rule()
    if mean_source == "limit":
        limit_means = limit_mean_path(spec, strategy, _initial_mean(xi0),
                                      noise.dW_common[0], grid)
        base = rule

        def fn(step, t, x, means):
            return base.fn(step, t, x, np.full(1, limit_means[step]))

        rule = FeedbackControl(fn)
    elif mean_source != "empirical":
        raise SolverError(f"unknown mean source {mean_source!r}")
    ens = simulate_forward(spec, rule, noise, xi0)
    costs = per_sample_costs(spec, ens.states, ens.controls, ens.flow, grid)[0]
    return PlayerSystem(states=ens.states[0], controls=ens.controls[0], costs=costs,
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
             solver_tol: float = 1e-4, max_iter: int = 60,
             mean_source: str = "limit") -> GapEstimate:
    """Expected unilateral-deviation gain for one player against frozen opponents.

    Runs ``n_replicas`` independent N-player games (one common-noise
    realization each) under the shared strategy and freezes their empirical
    flows.  Copies of a single player (fresh idiosyncratic noise, each
    replica's common noise, common random numbers between the two legs) are
    simulated following the strategy and following the best response solved
    against the frozen flows.  Several replicas are essential: the common
    loadings of the best-response solve are identified across replicas,
    keeping the deviation adapted - a single realization would hand it
    anticipative knowledge of the common path.  Player 1's paired cost
    difference (copy 0 reuses player 1's noise and initial state) estimates
    the deviation gain, one independent sample per replica.

    With ``mean_source="limit"`` (default) the strategy feeds back on the
    population-limit mean along the realized common noise; its mismatch with
    the realized N-player mean is what the deviation exploits, and the gap
    shrinks as N grows.  Feeding back on the realized empirical mean
    ("empirical") makes the gap vanish identically for the affine family
    (the empirical mean has the same closure as the limit), which is measured
    but carries no N-trend.
    """
    runs = [simulate_nplayer(spec, strategy, n_players, grid, xi0, seed + 613 * r,
                             mean_source=mean_source)
            for r in range(n_replicas)]
    frozen = MeasureFlow(atoms=np.stack([run.states for run in runs]), grid=grid)

    # fresh copy noise under each replica's common noise; copy 0 of every
    # replica is that replica's player 1
    dev_seed = seed + 10_000_019
    seeded = NoiseBundle(seed=dev_seed, n_paths=n_replicas, n_particles=n_copies, grid=grid)
    dW, init_states = seeded.dW, seeded.initial_states(xi0)
    for r, run in enumerate(runs):
        dW[r, 0] = run.noise.dW[0, 0]
        init_states[r, 0] = run.states[0, 0]
    dev_noise = NoiseBundle.from_arrays(
        dev_seed, grid, dW, np.concatenate([run.noise.dW_common for run in runs], axis=0))

    base_rule = strategy.control_rule()
    if mean_source == "limit":
        limit_matrix = np.stack([run.limit_means for run in runs])

        def fn(step, t, x, means):
            return base_rule.fn(step, t, x, limit_matrix[:, step])

        strat_rule = FeedbackControl(fn)
    else:
        strat_rule = base_rule
    strat_ens = simulate_forward(spec, strat_rule, dev_noise,
                                 init_states=init_states, frozen_flow=frozen)
    cost_strat = per_sample_costs(spec, strat_ens.states, strat_ens.controls, frozen, grid)

    try:
        dev = picard_solve(spec, dev_noise, terminal_from_cost(spec), init_states=init_states,
                           frozen_flow=frozen, tol=solver_tol, max_iter=max_iter)
    except SolverError:
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
    diffs = []
    for seed in seeds:
        run = simulate_nplayer(spec, strategy, n_players, grid, xi0, int(seed),
                               mean_source="limit")
        big_seed = int(seed) + 50_000_017
        dW = NoiseBundle(seed=big_seed, n_paths=1, n_particles=proxy_particles, grid=grid).dW
        dW[0, :n_players] = run.noise.dW[0]
        big = NoiseBundle.from_arrays(big_seed, grid, dW, run.noise.dW_common)
        init = big.initial_states(xi0)
        init[0, :n_players] = run.states[:, 0]
        lm = run.limit_means
        base = strategy.control_rule()

        def fn(step, t, x, means):
            return base.fn(step, t, x, np.full(1, lm[step]))

        ens = simulate_forward(spec, FeedbackControl(fn), big, init_states=init)
        proxy_costs = per_sample_costs(spec, ens.states, ens.controls, ens.flow, grid)[0, :n_players]
        diffs.append(run.costs.mean() - proxy_costs.mean())
    diffs = np.asarray(diffs)
    return {"n_players": n_players, "mean_gap": float(diffs.mean()),
            "abs_gap": float(abs(diffs.mean())),
            "stderr": float(diffs.std(ddof=1) / np.sqrt(len(diffs)))}
