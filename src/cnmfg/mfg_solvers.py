"""Constructive solvers for the coupled conditional mean-field system.

Two routes to the fixed point, mirroring the two existence arguments the
solvers implement numerically:

* ``solve_continuation`` scales every coupling coefficient by gamma in [0, 1]
  and walks gamma to 1; each advance by eta solves the gamma-scaled system
  repeatedly, feeding the previous iterate back through exogenous input
  tables, which is a contraction for small eta.  The inner solves are
  inexact: each is solved only as tightly as the previous outer distance
  needs (a forcing term).  A stage before the last only has to stay near the
  continuation path: it is accepted at a loose outer distance, on whatever
  inner tolerance the forcing term gave.  The last stage is accepted only on
  a solve at the full inner tolerance.  The walk runs on one time step over
  the whole horizon, with the same Brownian paths; its gamma = 1 control,
  held over the fine steps, starts one direct solve on the fine grid.  If
  either fails, the walk is run again on the fine grid.

* ``solve_stitched`` partitions the horizon into short intervals; on each
  interval the map control -> (population under that control) -> best response
  against the frozen population is iterated to its fixed point (a contraction
  for short intervals when the control enters the volatilities weakly), and
  the interval boundary value of the adjoint is regressed into an affine
  decoupling field v(x, mean) whose callable (x, m) -> v(x, m.mean) is the
  terminal condition p_T of the next interval to the left.  A final
  left-to-right pass re-solves every interval from the achieved states and
  concatenates the controls.

Both solvers fix the noise bundle across all iterations (common random
numbers), so every inner map is deterministic and observed contraction ratios
are meaningful to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bsde import (SolutionBundle, control_rms, first_order_residual, picard_solve,
                   solution_distance, terminal_from_cost)
from .errors import SimulationError, SolverError
from .forward_sim import (InitialLaw, InputPerturbation, NoiseBundle, OpenLoopControl,
                          particle_array, simulate_forward)
from .measures import MeasureFlow
from .model import ModelSpec, hamiltonian_dx

# inner tolerance of a continuation step per unit of its previous outer distance
_FORCING = 0.05
# outer distance, per unit of tol, at which a stage before the last is accepted
_PATH_TOL = 40.0
# outer iterations of one continuation stage attempt
_MAX_PICARD = 30
# map iterations per interval, interval halvings and passes of stitching
_MAX_FP_ITER = 30
_MAX_HALVINGS = 5
_GLOBAL_PASSES = 2


def _inner_tol(tol: float) -> float:
    """Tolerance of the inner solves of continuation and stitching, from their own."""
    return max(tol / 5.0, 1e-7)


def solve_scaled_fbsde(spec: ModelSpec, gamma: float, xi0: InitialLaw,
                       inputs: InputPerturbation | None, noise: NoiseBundle,
                       *, u0: np.ndarray | None = None, tol: float = 1e-4,
                       max_iter: int = 60) -> SolutionBundle:
    """Solve the coupled system with coefficients scaled by gamma plus inputs.

    At gamma = 0 the forward and backward equations decouple (coefficients
    vanish, only the inputs drive them) and the iteration terminates in one
    pass.  The live conditional empirical flow is recomputed from the forward
    particles each sweep; three consecutive increases of the flow distance at
    the damping floor raise a SolverError with the history attached.  The
    distance is taken only on sweeps whose damping is within 4 times that
    floor, so ``history["flow_distances"]`` starts at the first such sweep
    and, on that error, ends one sweep past ``history["residuals"]`` (see
    ``picard_solve``).  The returned bundle's diagnostics hold its
    ``first_order_residual``.
    """
    if not 0.0 <= gamma <= 1.0:
        raise SolverError(f"gamma must lie in [0, 1], got {gamma}")
    bundle = picard_solve(spec, noise, terminal_from_cost(spec), xi0=xi0, gamma=gamma,
                          inputs=inputs, u0=u0, tol=tol, max_iter=max_iter)
    bundle.diagnostics["first_order_residual"] = first_order_residual(spec, bundle)
    return bundle


def _coefficient_inputs(spec: ModelSpec, bundle: SolutionBundle, eta: float) -> InputPerturbation:
    """Inputs eta * (coefficients along the bundle), the continuation map."""
    states, controls, flow = bundle.states, bundle.controls, bundle.flow
    n_steps = controls.shape[2]
    nodes = bundle.grid.nodes
    out_b, out_s, out_st, out_f = (particle_array(*controls.shape) for _ in range(4))
    for n in range(n_steps):
        t = nodes[n]
        x = states[:, :, n]
        u = controls[:, :, n]
        law = flow.at(n)
        np.multiply(spec.drift.values(t, x, u, law), eta, out=out_b[:, :, n])
        np.multiply(spec.vol.values(t, x, u, law), eta, out=out_s[:, :, n])
        np.multiply(spec.vol_common.values(t, x, u, law), eta, out=out_st[:, :, n])
        np.multiply(hamiltonian_dx(spec, t, x, bundle.p[:, :, n], bundle.q[:, :, n],
                                   bundle.q_tilde[:, :, n], u, law), eta, out=out_f[:, :, n])
    # the cost's gx may hand back its argument, so its values are not scaled in place
    gx_T = eta * np.asarray(spec.cost.gx(states[:, :, -1], flow.at(n_steps)))
    return InputPerturbation(b=out_b, sigma=out_s, sigma_tilde=out_st, f=out_f, g=gx_T)


@dataclass
class ContinuationStep:
    gamma: float
    eta: float
    iterations: int
    distances: list
    sweeps: list          # inner Picard sweeps of each outer iteration
    ratio: float


@dataclass
class ContinuationState:
    """A continuation walk: its coupling scale, step size, latest bundle and stages."""

    gamma: float
    eta: float
    bundle: SolutionBundle      # on the grid the walk runs on
    steps: list = field(default_factory=list)
    # the one-step attempt's error when the walk fell back to the fine grid
    coarse_failure: str | None = None

    @property
    def walk_steps(self) -> int:
        """Time steps of the grid that the stages were walked on: 1, or the
        fine grid's after a fallback."""
        return self.bundle.grid.n_steps

    def schedule(self) -> list:
        return [(s.gamma, s.eta, s.iterations, s.ratio) for s in self.steps]


def _observed_ratio(distances: list[float], floor: float) -> float:
    ratios = [d2 / d1 for d1, d2 in zip(distances, distances[1:]) if d1 > floor]
    if not ratios:
        return 0.0
    return float(max(ratios))


def solve_continuation(spec: ModelSpec, xi0: InitialLaw, noise: NoiseBundle,
                       *, eta0: float = 0.25, tol: float = 1e-4, max_iter_inner: int = 60
                       ) -> tuple[SolutionBundle, ContinuationState]:
    """Walk the coupling scale from 0 to 1 on one time step, then solve once on the fine grid.

    The walk runs on ``noise.coarsened(n_steps)``, one step over the whole
    horizon with the summed increments.  Its gamma = 1 control, held over
    every fine step, starts one direct solve of the full system on ``noise``
    at the inner tolerance ``inner_tol = max(tol / 5, 1e-7)``; that fine
    finish is the returned bundle, and the returned state is the walk's, its
    bundle on the one-step grid.  If the coarse walk or the fine finish raises
    a SolverError or SimulationError, the walk is run again on the fine grid
    from gamma = 0, its bundle is returned, and the state's
    ``coarse_failure`` holds the coarse attempt's message.  When that walk
    fails too, its SolverError's history gains the same ``coarse_failure``.  A
    one-step grid is walked on its own step, and the walk's bundle is the
    result.  The walk costs about the same number of sweeps on any grid and
    only has to follow the path (intermediate stages are loose anyway), so it
    runs on the cheapest grid; solving coarse and correcting fine is nested
    iteration (Brandt, Math. Comp. 31, 1977).

    Each advance gamma -> gamma + eta of a walk iterates: assemble inputs eta
    * (model coefficients along the current iterate), solve the gamma-scaled
    system with those inputs warm-started from the iterate, measure the
    solution-norm distance, for at most ``_MAX_PICARD`` iterations.  eta is
    halved when the observed ratio reaches 0.9 (and the step retried), doubled
    back toward eta0 after two clean steps, and the solver stalls out below
    eta = 1e-3.  An inner SolverError or SimulationError fails the step too.

    The inner solves are inexact (a forcing-term rule, as in inexact Newton
    methods): outer iteration k solves to max(inner_tol, _FORCING * d_{k-1}),
    with d_{k-1} the previous distance of the same attempt, and the first
    iteration of an attempt, which has no distance yet, runs one sweep.
    Intermediate stages are path-following steps: one is accepted once at
    least two outer iterations have run and the distance is within
    ``_PATH_TOL * tol``, whatever the inner tolerance.  The last stage
    (gamma + eta = 1) is accepted only at distance ``tol`` on a solve at
    ``inner_tol``.  ``ContinuationStep.sweeps`` holds the inner sweeps of
    each iteration.
    """
    walk = (spec, xi0, eta0, tol, max_iter_inner)
    n = noise.grid.n_steps
    coarse_failure = None
    if n > 1:
        try:
            state = _walk(noise.coarsened(n), *walk)
            u0 = np.repeat(state.bundle.controls.transpose(2, 0, 1), n, axis=0).transpose(1, 2, 0)
            bundle = solve_scaled_fbsde(spec, 1.0, xi0, None, noise, u0=u0,
                                        tol=_inner_tol(tol), max_iter=max_iter_inner)
            return bundle, state
        except (SolverError, SimulationError) as err:
            coarse_failure = str(err)
    try:
        state = _walk(noise, *walk)
    except SolverError as err:
        if coarse_failure is not None:
            err.history["coarse_failure"] = coarse_failure
        raise
    state.coarse_failure = coarse_failure
    return state.bundle, state


def _walk(noise: NoiseBundle, spec: ModelSpec, xi0: InitialLaw, eta0: float, tol: float,
          max_iter_inner: int) -> ContinuationState:
    """The continuation walk from gamma = 0 to 1 on the grid of ``noise``."""
    inner_tol = _inner_tol(tol)
    bundle = solve_scaled_fbsde(spec, 0.0, xi0, None, noise, tol=inner_tol,
                                max_iter=max_iter_inner)
    state = ContinuationState(gamma=0.0, eta=eta0, bundle=bundle)
    clean_streak = 0

    while state.gamma < 1.0 - 1e-12:
        eta = min(state.eta, 1.0 - state.gamma)
        distances: list[float] = []
        iterate = state.bundle
        converged = False
        # contraction iteration at fixed (gamma, eta); final step gets the tight tolerance
        last = state.gamma + eta >= 1.0 - 1e-12
        step_tol = tol if last else _PATH_TOL * tol
        failure = None
        sweeps: list[int] = []
        # forcing term: with no distance yet the first inner solve runs one sweep
        inner = math.inf
        for _ in range(_MAX_PICARD):
            inputs = _coefficient_inputs(spec, iterate, eta)
            try:
                nxt = solve_scaled_fbsde(spec, state.gamma, xi0, inputs, noise,
                                         u0=iterate.controls, tol=inner, max_iter=max_iter_inner)
            # an inner cap, flow divergence or non-finite state fails the step
            except (SolverError, SimulationError) as err:
                failure = err
                break
            d = solution_distance(nxt, iterate)
            distances.append(d)
            sweeps.append(nxt.diagnostics["iterations"])
            iterate = nxt
            # the last stage ends on a solve at the full inner tolerance; an
            # earlier one on a second distance, so that it has a ratio
            if d <= step_tol and (inner == inner_tol if last else len(distances) >= 2):
                converged = True
                break
            if len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
                break
            inner = max(inner_tol, _FORCING * d)
        ratio = _observed_ratio(distances, floor=5.0 * step_tol)
        if converged and ratio < 0.9:
            state.steps.append(ContinuationStep(gamma=state.gamma + eta, eta=eta,
                                                iterations=len(distances), distances=distances,
                                                sweeps=sweeps, ratio=ratio))
            state.gamma += eta
            state.bundle = iterate
            clean_streak = clean_streak + 1 if ratio < 0.45 else 0
            if clean_streak >= 2:
                state.eta = min(state.eta * 2.0, eta0)
        else:
            state.eta = eta / 2.0
            clean_streak = 0
            if state.eta < 1e-3:
                raise SolverError(f"continuation stalled: step size underflow; last failure: "
                                  f"{failure or 'no contraction'}",
                                  history={**getattr(failure, "history", {}),
                                           "schedule": state.schedule(),
                                           "last_distances": distances}) from failure
    return state


# ---------------------------------------------------------------------------
# Interval stitching through regressed decoupling fields
# ---------------------------------------------------------------------------


@dataclass
class DecouplingField:
    """Affine boundary representation of the adjoint: v(x, mean) at one grid node.

    Fitted by pooled least squares from (state, conditional mean, adjoint)
    samples at an interval boundary.
    """

    intercept: float
    slope_x: float
    slope_mean: float
    r_squared: float

    def __post_init__(self):
        if not np.isfinite([self.intercept, self.slope_x, self.slope_mean]).all():
            raise SolverError("decoupling field fit produced non-finite coefficients")

    def evaluate(self, x, mean):
        return self.intercept + self.slope_x * np.asarray(x) + self.slope_mean * np.asarray(mean)

    def as_terminal(self) -> Callable[..., np.ndarray]:
        """The field as a terminal condition (x, m) -> v(x, m.mean)."""
        return lambda x, m: self.evaluate(x, m.mean)


def fit_decoupling_field(states: np.ndarray, means: np.ndarray, p_values: np.ndarray) -> DecouplingField:
    """Pooled least-squares fit of p ~ 1 + x + conditional mean at a boundary."""
    x = states.ravel()
    mean_b = np.repeat(means, states.shape[1])
    y = p_values.ravel()
    design = np.column_stack([np.ones_like(x), x, mean_b])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    var_y = float(np.var(y))
    r2 = 1.0 - float(np.mean((y - fitted) ** 2)) / var_y if var_y > 1e-300 else 1.0
    return DecouplingField(intercept=float(coef[0]), slope_x=float(coef[1]),
                           slope_mean=float(coef[2]), r_squared=r2)


def interval_best_response(spec: ModelSpec, u_hat: np.ndarray, n_lo: int, n_hi: int,
                           init_states: np.ndarray, terminal: Callable[..., np.ndarray],
                           noise: NoiseBundle, *, inner_tol: float = 1e-5) -> SolutionBundle:
    """One application of the interval map: population under u_hat, then best response.

    On the window of steps n_lo..n_hi - 1 of ``noise``, simulates the
    conditional particle system under ``u_hat`` from the given initial states,
    freezes its empirical flow, and solves the control problem against that
    flow with terminal adjoint v evaluated on the frozen flow.  The returned
    bundle lies on the window's grid; its controls are the map output.
    """
    window = noise.window(n_lo, n_hi)
    hat_ens = simulate_forward(spec, OpenLoopControl(u_hat), window, init_states=init_states)
    # on its own flow, frozen, the population run is the first sweep's forward pass
    return picard_solve(spec, window, terminal, init_states=init_states,
                        frozen_flow=hat_ens.flow, u0=u_hat, first_pass=hat_ens, tol=inner_tol)


def _interval_fixed_point(spec, u_start, n_lo, n_hi, init_states, terminal, noise, tol):
    dt = noise.grid.dt
    horizon = (n_hi - n_lo) * dt
    u = u_start
    distances: list[float] = []
    for _ in range(_MAX_FP_ITER):
        bundle = interval_best_response(spec, u, n_lo, n_hi, init_states, terminal, noise,
                                        inner_tol=_inner_tol(tol))
        d = control_rms(bundle.controls - u, dt, horizon)
        distances.append(d)
        u = bundle.controls
        if d <= tol:
            ratio = _observed_ratio(distances, floor=5.0 * tol)
            return bundle, distances, ratio
        if len(distances) >= 4 and distances[-1] >= 0.98 * distances[-2] >= 0.98 ** 2 * distances[-3]:
            break
    raise SolverError(f"interval map on steps [{n_lo}, {n_hi}) failed to contract "
                      f"(last distance {distances[-1]:.3e})", history={"distances": distances})


@dataclass
class StitchReport:
    boundaries: list
    fields: list
    interval_ratios: list          # all map-iteration ratios, every pass and phase
    halvings: int
    cold_backward_ratios: list = field(default_factory=list)  # first backward pass only


def solve_stitched(spec: ModelSpec, xi0: InitialLaw, noise: NoiseBundle, *,
                   tol: float = 1e-4, interval_fraction: float = 0.25
                   ) -> tuple[SolutionBundle, StitchReport]:
    """Backward stitching of interval fixed points through decoupling fields.

    The horizon is split into intervals of length at most ``interval_fraction``
    times the horizon.  In each of ``_GLOBAL_PASSES`` passes, a backward pass
    solves each interval's fixed point (rightmost first, terminal cost
    gradient at the right end, fitted fields further left) from provisional
    boundary states; a forward pass re-solves every interval from achieved
    states and concatenates controls.  Any SolverError in a pass (no
    contraction, an inner cap, a non-monotone field) or SimulationError halves
    the interval length and restarts, up to ``_MAX_HALVINGS`` times.  Once
    every interval is one grid step a halving leaves the partition unchanged,
    and the deterministic passes would fail the same way again: the solve then
    raises at once.  The returned bundle's diagnostics hold its
    ``first_order_residual``.
    """
    n = noise.grid.n_steps
    init_full = noise.initial_states(xi0)
    tried: list[np.ndarray] = []
    failure = None

    for halving in range(_MAX_HALVINGS + 1):
        n_intervals = max(1, math.ceil(2.0 ** halving / interval_fraction))
        bounds = np.unique(np.round(np.linspace(0, n, n_intervals + 1)).astype(int))
        if tried and np.array_equal(bounds, tried[-1]):
            break           # the partition stopped changing: it would fail the same way
        tried.append(bounds)
        try:
            return _run_stitch(spec, xi0, noise, bounds, tol, init_full, halving)
        except (SolverError, SimulationError) as err:
            failure = err
    raise SolverError(f"interval fixed point failed to contract after {len(tried) - 1} halvings; "
                      f"last failure: {failure}",
                      history=getattr(failure, "history", {})) from failure


def _run_stitch(spec, xi0, noise, bounds, tol, init_full, halving):
    grid = noise.grid
    n = grid.n_steps
    m, k = noise.n_paths, noise.n_particles
    n_int = len(bounds) - 1
    u_full = particle_array(m, k, n, zeros=True)
    terminal_cost = terminal_from_cost(spec)
    report = StitchReport(boundaries=list(grid.nodes[bounds]), fields=[], interval_ratios=[],
                          halvings=halving)

    for pass_idx in range(_GLOBAL_PASSES):
        prov = simulate_forward(spec, OpenLoopControl(u_full), noise, xi0=xi0,
                                init_states=init_full)
        # backward pass: fixed points from provisional states, fit boundary fields
        fields: dict[int, Callable[..., np.ndarray]] = {n_int: terminal_cost}
        field_objs: list[DecouplingField] = []
        finals_hist: list[float] = []
        for r in range(n_int, 0, -1):
            lo, hi = bounds[r - 1], bounds[r]
            init = prov.states[:, :, lo]
            bundle, distances, ratio = _interval_fixed_point(
                spec, u_full[:, :, lo:hi], lo, hi, init, fields[r], noise, tol)
            report.interval_ratios.append(ratio)
            finals_hist.append(distances[-1])
            if pass_idx == 0:
                report.cold_backward_ratios.append(ratio)
            u_full[:, :, lo:hi] = bundle.controls
            if r > 1:
                fld = fit_decoupling_field(bundle.states[:, :, 0], bundle.flow.means[:, 0],
                                           bundle.p[:, :, 0])
                if fld.slope_x < -1e-3:
                    raise SolverError(
                        f"decoupling field at t={grid.nodes[lo]:.4f} lost monotonicity "
                        f"(slope {fld.slope_x:.3e})")
                field_objs.append(fld)
                fields[r - 1] = fld.as_terminal()

        # forward pass: re-solve from achieved states, concatenate
        states = particle_array(m, k, n + 1)
        controls = particle_array(m, k, n)
        p = particle_array(m, k, n + 1)
        q = particle_array(m, k, n)
        qt = particle_array(m, k, n)
        current = init_full
        for r in range(1, n_int + 1):
            lo, hi = bounds[r - 1], bounds[r]
            bundle, distances, ratio = _interval_fixed_point(
                spec, u_full[:, :, lo:hi], lo, hi, current, fields[r], noise, tol)
            report.interval_ratios.append(ratio)
            finals_hist.append(distances[-1])
            # node hi is written again, with the same states, by the next interval
            states[:, :, lo:hi + 1] = bundle.states
            controls[:, :, lo:hi] = bundle.controls
            p[:, :, lo:hi + 1] = bundle.p
            q[:, :, lo:hi] = bundle.q
            qt[:, :, lo:hi] = bundle.q_tilde
            current = bundle.states[:, :, -1]
            u_full[:, :, lo:hi] = bundle.controls

    # the last pass's fields and concatenated solution
    report.fields = field_objs[::-1]
    final = SolutionBundle(states=states, controls=controls, p=p, q=q, q_tilde=qt,
                           flow=MeasureFlow(atoms=states, grid=grid), grid=grid,
                           residual_history=finals_hist)
    final.diagnostics["first_order_residual"] = first_order_residual(spec, final)
    return final, report


# ---------------------------------------------------------------------------
# Uniqueness cross-checks
# ---------------------------------------------------------------------------


@dataclass
class UniquenessReport:
    max_distance: float
    distances: list
    tol: float
    inconclusive: bool

    @property
    def passed(self) -> bool:
        return (not self.inconclusive) and self.max_distance <= 5.0 * self.tol


def uniqueness_check(spec: ModelSpec, xi0: InitialLaw, noise: NoiseBundle, n_starts: int,
                     tol: float = 1e-4, *, solver: str = "direct",
                     seed: int = 0) -> UniquenessReport:
    """Solve from randomized initial control guesses and compare the endpoints.

    Each start is a direct solve, the only ``solver`` there is; starts after
    the first are normal draws of scale 0.5.
    """
    if solver != "direct":
        raise SolverError(f"unknown solver {solver!r}")
    grid = noise.grid
    shape = (noise.n_paths, noise.n_particles, grid.n_steps)
    finals = []
    inconclusive = False
    for s in range(n_starts):
        rng = np.random.default_rng(seed + 7919 * s)
        u0 = np.zeros(shape) if s == 0 else 0.5 * rng.standard_normal(shape)
        try:
            bundle = solve_scaled_fbsde(spec, 1.0, xi0, None, noise, u0=u0, tol=tol)
        except SolverError:
            inconclusive = True
            continue
        finals.append(bundle.controls)
    dists = []
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            dists.append(control_rms(finals[i] - finals[j], grid.dt, grid.horizon))
    return UniquenessReport(max_distance=float(max(dists)) if dists else 0.0,
                            distances=[float(d) for d in dists], tol=tol,
                            inconclusive=inconclusive or len(finals) < n_starts)
