"""Constructive solvers for the coupled conditional mean-field system.

Two routes to the fixed point, mirroring the two existence arguments the
solvers implement numerically:

* ``solve_continuation`` scales every coupling coefficient by gamma in [0, 1]
  and walks gamma to 1; each advance by eta solves the gamma-scaled system
  repeatedly, feeding the previous iterate back through exogenous input
  tables, which is a contraction for small eta.

* ``solve_stitched`` partitions the horizon into short intervals; on each
  interval the map control -> (population under that control) -> best response
  against the frozen population is iterated to its fixed point (a contraction
  for short intervals when the control enters the volatilities weakly), and
  the interval boundary value of the adjoint is regressed into an affine
  decoupling field v(x, mean) that serves as the terminal condition of the
  next interval to the left.  A final left-to-right pass re-solves every
  interval from the achieved states and concatenates the controls.

Both solvers fix the noise bundle across all iterations (common random
numbers), so every inner map is deterministic and observed contraction ratios
are meaningful to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bsde import (SolutionBundle, TerminalCondition, control_rms, first_order_residual,
                   picard_solve, solution_distance, terminal_from_cost)
from .errors import SolverError
from .forward_sim import (InitialLaw, NoiseBundle, OpenLoopControl, particle_array,
                          simulate_forward, time_major)
from .measures import MeasureFlow
from .model import ModelSpec, _f1x_values, _gx_values

_TOL_MONO_FIELD = 1e-6


@dataclass
class InputPerturbation:
    """Exogenous square-integrable perturbations injected into the dynamics.

    Tables are indexed [path, particle, step] and stored time-major; ``g``
    perturbs the terminal condition.  ``norm`` is the input norm: terminal mean
    square plus the time integral of the squared running perturbations,
    square-rooted.
    """

    b: np.ndarray
    sigma: np.ndarray
    sigma_tilde: np.ndarray
    f: np.ndarray
    g: np.ndarray
    dt: float

    def __post_init__(self):
        self.b, self.sigma, self.sigma_tilde, self.f = (
            time_major(a) for a in (self.b, self.sigma, self.sigma_tilde, self.f))

    @classmethod
    def zero(cls, n_paths: int, n_particles: int, n_steps: int, dt: float) -> "InputPerturbation":
        def table():
            return particle_array(n_paths, n_particles, n_steps, zeros=True)

        return cls(b=table(), sigma=table(), sigma_tilde=table(), f=table(),
                   g=np.zeros((n_paths, n_particles)), dt=dt)

    @property
    def norm(self) -> float:
        running = np.sum(self.b ** 2 + self.sigma ** 2 + self.sigma_tilde ** 2 + self.f ** 2,
                         axis=2) * self.dt
        return float(np.sqrt(np.mean(self.g ** 2 + running)))

    def as_dict(self) -> dict:
        return {"b": self.b, "sigma": self.sigma, "sigma_tilde": self.sigma_tilde,
                "f": self.f, "g": self.g}


def solve_scaled_fbsde(spec: ModelSpec, gamma: float, xi0: InitialLaw,
                       inputs: InputPerturbation | None, noise: NoiseBundle,
                       *, u0: np.ndarray | None = None, tol: float = 1e-4,
                       max_iter: int = 60) -> SolutionBundle:
    """Solve the coupled system with coefficients scaled by gamma plus inputs.

    At gamma = 0 the forward and backward equations decouple (coefficients
    vanish, only the inputs drive them) and the iteration terminates in one
    pass.  The live conditional empirical flow is recomputed from the forward
    particles each sweep; three consecutive increases of the flow distance
    raise a SolverError with the history attached.
    """
    if not 0.0 <= gamma <= 1.0:
        raise SolverError(f"gamma must lie in [0, 1], got {gamma}")
    terminal = terminal_from_cost(spec)
    in_dict = inputs.as_dict() if inputs is not None else None
    return picard_solve(spec, noise, terminal, xi0=xi0, gamma=gamma, inputs=in_dict,
                        u0=u0, tol=tol, max_iter=max_iter, check_divergence=True)


def _coefficient_inputs(spec: ModelSpec, bundle: SolutionBundle, eta: float,
                        base: InputPerturbation) -> InputPerturbation:
    """Inputs eta * (coefficients along the bundle) + base, the continuation map."""
    states, controls, flow = bundle.states, bundle.controls, bundle.flow
    n_steps = controls.shape[2]
    nodes = bundle.grid.nodes
    out_b, out_s, out_st, out_f = (particle_array(*controls.shape) for _ in range(4))
    means_all = flow.means
    sqms_all = flow.second_moments
    for n in range(n_steps):
        t = nodes[n]
        x = states[:, :, n]
        u = controls[:, :, n]
        means = means_all[:, n][:, None]
        sqms = sqms_all[:, n][:, None]
        atoms = flow.atoms[:, :, n]
        out_b[:, :, n] = spec.drift.values(t, x, u, means, sqms, atoms)
        out_s[:, :, n] = spec.vol.values(t, x, u, means, sqms, atoms)
        out_st[:, :, n] = spec.vol_common.values(t, x, u, means, sqms, atoms)
        out_f[:, :, n] = (spec.drift.phi1(t) * bundle.p[:, :, n]
                          + spec.vol.phi1(t) * bundle.q[:, :, n]
                          + spec.vol_common.phi1(t) * bundle.q_tilde[:, :, n]
                          + np.asarray(spec.cost.f0x(t, x, u))
                          + _f1x_values(spec.cost, t, x, means, sqms, atoms))
    means_T = means_all[:, -1][:, None]
    sqms_T = sqms_all[:, -1][:, None]
    gx_T = _gx_values(spec.cost, states[:, :, -1], means_T, sqms_T, flow.atoms[:, :, -1])
    return InputPerturbation(
        b=eta * out_b + base.b, sigma=eta * out_s + base.sigma,
        sigma_tilde=eta * out_st + base.sigma_tilde, f=eta * out_f + base.f,
        g=eta * gx_T + base.g, dt=bundle.grid.dt)


@dataclass
class ContinuationStep:
    gamma: float
    eta: float
    iterations: int
    distances: list
    ratio: float


@dataclass
class ContinuationState:
    gamma: float
    eta: float
    bundle: SolutionBundle
    steps: list = field(default_factory=list)

    def schedule(self) -> list:
        return [(s.gamma, s.eta, s.iterations, s.ratio) for s in self.steps]


def _observed_ratio(distances: list[float], floor: float) -> float:
    ratios = [d2 / d1 for d1, d2 in zip(distances, distances[1:]) if d1 > floor]
    if not ratios:
        return 0.0
    return float(max(ratios))


def solve_continuation(spec: ModelSpec, xi0: InitialLaw, noise: NoiseBundle,
                       *, eta0: float = 0.25, tol: float = 1e-4, max_picard: int = 30,
                       inner_tol: float | None = None, max_iter_inner: int = 60,
                       u0: np.ndarray | None = None) -> tuple[SolutionBundle, ContinuationState]:
    """Walk the coupling scale from 0 to 1 by contraction steps.

    Each advance gamma -> gamma + eta iterates: assemble inputs eta * (model
    coefficients along the current iterate), solve the gamma-scaled system
    with those inputs warm-started from the iterate, measure the solution-norm
    distance.  eta is halved when the observed ratio reaches 0.9 (and the step
    retried), doubled back toward eta0 after two clean steps, and the solver
    stalls out below eta = 1e-3.
    """
    grid = noise.grid
    inner_tol = inner_tol if inner_tol is not None else max(tol / 5.0, 1e-7)
    zero = InputPerturbation.zero(noise.n_paths, noise.n_particles, grid.n_steps, grid.dt)
    bundle = solve_scaled_fbsde(spec, 0.0, xi0, zero, noise, tol=inner_tol,
                                max_iter=max_iter_inner, u0=u0)
    state = ContinuationState(gamma=0.0, eta=eta0, bundle=bundle)
    clean_streak = 0

    while state.gamma < 1.0 - 1e-12:
        eta = min(state.eta, 1.0 - state.gamma)
        current = state.bundle
        distances: list[float] = []
        iterate = current
        converged = False
        # contraction iteration at fixed (gamma, eta); final step gets the tight tolerance
        step_tol = tol if state.gamma + eta >= 1.0 - 1e-12 else 4.0 * tol
        for it in range(max_picard):
            inputs = _coefficient_inputs(spec, iterate, eta, zero)
            nxt = solve_scaled_fbsde(spec, state.gamma, xi0, inputs, noise,
                                     u0=iterate.controls, tol=inner_tol, max_iter=max_iter_inner)
            d = solution_distance(nxt, iterate)
            distances.append(d)
            iterate = nxt
            if d <= step_tol:
                converged = True
                break
            if len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
                break
        ratio = _observed_ratio(distances, floor=5.0 * step_tol)
        if converged and ratio < 0.9:
            state.steps.append(ContinuationStep(gamma=state.gamma + eta, eta=eta,
                                                iterations=len(distances), distances=distances,
                                                ratio=ratio))
            state.gamma += eta
            state.bundle = iterate
            clean_streak = clean_streak + 1 if ratio < 0.45 else 0
            if clean_streak >= 2:
                state.eta = min(state.eta * 2.0, eta0)
        else:
            state.eta = eta / 2.0
            clean_streak = 0
            if state.eta < 1e-3:
                raise SolverError("continuation stalled: step size underflow",
                                  history={"schedule": state.schedule(),
                                           "last_distances": distances})
    state.bundle.diagnostics["continuation_schedule"] = state.schedule()
    return state.bundle, state


# ---------------------------------------------------------------------------
# Interval stitching through regressed decoupling fields
# ---------------------------------------------------------------------------


@dataclass
class DecouplingField:
    """Affine boundary representation of the adjoint: v(x, mean) at one time.

    Fitted by pooled least squares from (state, conditional mean, adjoint)
    samples at an interval boundary.  ``c_v`` is the plain Lipschitz constant
    of the affine map; ``monotone`` requires a nonnegative state slope up to
    the fitting tolerance.
    """

    tau: float
    intercept: float
    slope_x: float
    slope_mean: float
    r_squared: float

    def __post_init__(self):
        if not np.isfinite([self.intercept, self.slope_x, self.slope_mean]).all():
            raise SolverError("decoupling field fit produced non-finite coefficients")

    @property
    def c_v(self) -> float:
        return math.hypot(self.slope_x, self.slope_mean)

    @property
    def monotone(self) -> bool:
        return self.slope_x >= -_TOL_MONO_FIELD

    def evaluate(self, x, mean):
        return self.intercept + self.slope_x * np.asarray(x) + self.slope_mean * np.asarray(mean)

    def as_terminal(self) -> TerminalCondition:
        def _eval(x, means, sqms, atoms=None):
            return self.evaluate(x, means)

        return TerminalCondition(evaluate=_eval, lipschitz=max(self.c_v, 1e-12),
                                 monotone=self.monotone, label=f"decoupling_field@{self.tau:.4f}")

    def to_dict(self) -> dict:
        return {"tau": self.tau, "intercept": self.intercept, "slope_x": self.slope_x,
                "slope_mean": self.slope_mean, "c_v": self.c_v, "monotone": self.monotone,
                "r_squared": self.r_squared}


def fit_decoupling_field(tau: float, states: np.ndarray, means: np.ndarray,
                         p_values: np.ndarray) -> DecouplingField:
    """Pooled least-squares fit of p ~ 1 + x + conditional mean at a boundary."""
    x = states.ravel()
    mean_b = np.repeat(means, states.shape[1])
    y = p_values.ravel()
    design = np.column_stack([np.ones_like(x), x, mean_b])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    var_y = float(np.var(y))
    r2 = 1.0 - float(np.mean((y - fitted) ** 2)) / var_y if var_y > 1e-300 else 1.0
    return DecouplingField(tau=tau, intercept=float(coef[0]), slope_x=float(coef[1]),
                           slope_mean=float(coef[2]), r_squared=r2)


def interval_best_response(spec: ModelSpec, u_hat: np.ndarray, n_lo: int, n_hi: int,
                           init_states: np.ndarray, terminal: TerminalCondition,
                           noise: NoiseBundle, *, inner_tol: float = 1e-5,
                           max_iter: int = 60) -> SolutionBundle:
    """One application of the interval map: population under u_hat, then best response.

    Simulates the conditional particle system under ``u_hat`` from the given
    initial states, freezes its empirical flow, and solves the control problem
    against that flow with terminal adjoint v evaluated on the frozen flow.
    The returned bundle's controls are the map output.
    """
    hat_ens = simulate_forward(spec, OpenLoopControl(u_hat), noise,
                               init_states=init_states, n_lo=n_lo, n_hi=n_hi)
    return picard_solve(spec, noise, terminal, init_states=init_states,
                        frozen_flow=hat_ens.flow, n_lo=n_lo, n_hi=n_hi,
                        u0=u_hat, tol=inner_tol, max_iter=max_iter)


class _ContractionFailure(Exception):
    def __init__(self, distances):
        super().__init__("interval map failed to contract")
        self.distances = distances


def _interval_fixed_point(spec, u_start, n_lo, n_hi, init_states, terminal, noise,
                          tol, inner_tol, max_fp_iter):
    dt = noise.grid.dt
    horizon = (n_hi - n_lo) * dt
    u = u_start
    distances: list[float] = []
    bundle = None
    for _ in range(max_fp_iter):
        bundle = interval_best_response(spec, u, n_lo, n_hi, init_states, terminal, noise,
                                        inner_tol=inner_tol)
        d = control_rms(bundle.controls - u, dt, horizon)
        distances.append(d)
        u = bundle.controls
        if d <= tol:
            ratio = _observed_ratio(distances, floor=5.0 * tol)
            return bundle, distances, ratio
        if len(distances) >= 4 and distances[-1] >= 0.98 * distances[-2] >= 0.98 ** 2 * distances[-3]:
            raise _ContractionFailure(distances)
    raise _ContractionFailure(distances)


@dataclass
class StitchReport:
    boundaries: list
    fields: list
    interval_ratios: list          # all map-iteration ratios, every pass and phase
    interval_iterations: list
    halvings: int
    passes: int
    cold_backward_ratios: list = field(default_factory=list)  # first backward pass only


def solve_stitched(spec: ModelSpec, xi0: InitialLaw, noise: NoiseBundle, *,
                   tol: float = 1e-4, interval_fraction: float = 0.25,
                   max_fp_iter: int = 30, max_halvings: int = 5, global_passes: int = 2,
                   u0: np.ndarray | None = None) -> tuple[SolutionBundle, StitchReport]:
    """Backward stitching of interval fixed points through decoupling fields.

    The horizon is split into intervals of length at most ``interval_fraction``
    times the horizon.  A backward pass solves each interval's fixed point
    (rightmost first, terminal cost gradient at the right end, fitted fields
    further left) from provisional boundary states; a forward pass re-solves
    every interval from achieved states and concatenates controls.  Interval
    contraction failure halves the interval length and restarts, up to
    ``max_halvings`` times.
    """
    grid = noise.grid
    n = grid.n_steps
    m, k = noise.n_paths, noise.n_particles
    inner_tol = max(tol / 5.0, 1e-7)
    frac = interval_fraction
    init_full = noise.initial_states(xi0)
    last: list = []

    for halving in range(max_halvings + 1):
        n_intervals = max(1, math.ceil(1.0 / frac))
        bounds = np.unique(np.round(np.linspace(0, n, n_intervals + 1)).astype(int))
        if len(bounds) < 2 or np.any(np.diff(bounds) < 1):
            raise SolverError("stitching interval shorter than one grid step")
        try:
            return _run_stitch(spec, xi0, noise, bounds, tol, inner_tol, max_fp_iter,
                               global_passes, init_full, halving, u0)
        except _ContractionFailure as fail:
            frac /= 2.0
            last = fail.distances
    raise SolverError(f"interval fixed point failed to contract after {max_halvings} halvings",
                      history={"last_distances": last})


def _run_stitch(spec, xi0, noise, bounds, tol, inner_tol, max_fp_iter, global_passes,
                init_full, halving, u0):
    grid = noise.grid
    n = grid.n_steps
    m, k = noise.n_paths, noise.n_particles
    n_int = len(bounds) - 1
    u_full = particle_array(m, k, n, zeros=True)
    if u0 is not None:
        u_full[...] = u0
    terminal_cost = terminal_from_cost(spec)
    report = StitchReport(boundaries=list(grid.nodes[bounds]), fields=[], interval_ratios=[],
                          interval_iterations=[], halvings=halving, passes=0)
    final = None
    prev_controls = None

    for pass_idx in range(global_passes):
        report.passes = pass_idx + 1
        prov = simulate_forward(spec, OpenLoopControl(u_full), noise, xi0=xi0,
                                init_states=init_full)
        # backward pass: fixed points from provisional states, fit boundary fields
        fields: dict[int, TerminalCondition] = {n_int: terminal_cost}
        field_objs: list[DecouplingField] = []
        ratios, iters = [], []
        finals_hist: list[float] = []
        for r in range(n_int, 0, -1):
            lo, hi = bounds[r - 1], bounds[r]
            init = prov.states[:, :, lo]
            bundle, distances, ratio = _interval_fixed_point(
                spec, u_full[:, :, lo:hi], lo, hi, init, fields[r], noise,
                tol, inner_tol, max_fp_iter)
            ratios.append(ratio)
            iters.append(len(distances))
            finals_hist.append(distances[-1])
            if pass_idx == 0:
                report.cold_backward_ratios.append(ratio)
            u_full[:, :, lo:hi] = bundle.controls
            if r > 1:
                fld = fit_decoupling_field(grid.nodes[lo], bundle.states[:, :, 0],
                                           bundle.flow.means[:, 0], bundle.p[:, :, 0])
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
                spec, u_full[:, :, lo:hi], lo, hi, current, fields[r], noise,
                tol, inner_tol, max_fp_iter)
            ratios.append(ratio)
            iters.append(len(distances))
            finals_hist.append(distances[-1])
            states[:, :, lo:hi] = bundle.states[:, :, :-1]
            controls[:, :, lo:hi] = bundle.controls
            p[:, :, lo:hi] = bundle.p[:, :, :-1]
            q[:, :, lo:hi] = bundle.q
            qt[:, :, lo:hi] = bundle.q_tilde
            current = bundle.states[:, :, -1]
            if r == n_int:
                states[:, :, n] = bundle.states[:, :, -1]
                p[:, :, n] = bundle.p[:, :, -1]
            u_full[:, :, lo:hi] = bundle.controls

        report.interval_ratios.extend(ratios)
        report.interval_iterations.extend(iters)
        report.fields = field_objs[::-1]
        flow = MeasureFlow(atoms=states, grid=grid)
        final = SolutionBundle(states=states, controls=controls, p=p, q=q, q_tilde=qt,
                               flow=flow, grid=grid,
                               residual_history=list(finals_hist),
                               diagnostics={"stitch_boundaries": report.boundaries,
                                            "interval_ratios": report.interval_ratios,
                                            "cold_backward_ratios": report.cold_backward_ratios,
                                            "fields": [f.to_dict() for f in report.fields],
                                            "passes": report.passes})
        final.diagnostics["first_order_residual"] = first_order_residual(spec, final)
        if prev_controls is not None:
            change = control_rms(controls - prev_controls, grid.dt, grid.horizon)
            if change <= tol:
                break
        prev_controls = controls

    return final, report


# ---------------------------------------------------------------------------
# Uniqueness cross-checks
# ---------------------------------------------------------------------------


@dataclass
class UniquenessReport:
    solver: str
    n_starts: int
    max_distance: float
    distances: list
    tol: float
    inconclusive: bool
    condition_ok: bool

    @property
    def passed(self) -> bool:
        return (not self.inconclusive) and self.max_distance <= 5.0 * self.tol

    def to_dict(self) -> dict:
        return {"solver": self.solver, "n_starts": self.n_starts,
                "max_distance": self.max_distance, "distances": self.distances,
                "tol": self.tol, "inconclusive": self.inconclusive,
                "condition_ok": self.condition_ok, "passed": self.passed}


def uniqueness_check(spec: ModelSpec, xi0: InitialLaw, noise: NoiseBundle, n_starts: int,
                     tol: float = 1e-4, *, solver: str = "direct", seed: int = 0,
                     start_scale: float = 0.5, condition_ok: bool = True) -> UniquenessReport:
    """Solve from randomized initial control guesses and compare the endpoints.

    ``condition_ok`` records whether the smallness condition backing the
    uniqueness statement holds; a violated condition never blocks the check,
    the distances are simply reported without an assertion.
    """
    grid = noise.grid
    shape = (noise.n_paths, noise.n_particles, grid.n_steps)
    finals = []
    inconclusive = False
    for s in range(n_starts):
        rng = np.random.default_rng(seed + 7919 * s)
        u0 = np.zeros(shape) if s == 0 else start_scale * rng.standard_normal(shape)
        try:
            if solver == "direct":
                bundle = solve_scaled_fbsde(spec, 1.0, xi0, None, noise, u0=u0, tol=tol)
            elif solver == "continuation":
                bundle, _ = solve_continuation(spec, xi0, noise, tol=tol, u0=u0)
            elif solver == "stitched":
                bundle, _ = solve_stitched(spec, xi0, noise, tol=tol, u0=u0)
            else:
                raise SolverError(f"unknown solver {solver!r}")
        except SolverError:
            inconclusive = True
            continue
        finals.append(bundle.controls)
    dists = []
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            dists.append(control_rms(finals[i] - finals[j], grid.dt, grid.horizon))
    return UniquenessReport(solver=solver, n_starts=n_starts,
                            max_distance=float(max(dists)) if dists else 0.0,
                            distances=[float(d) for d in dists], tol=tol,
                            inconclusive=inconclusive or len(finals) < n_starts,
                            condition_ok=condition_ok)
