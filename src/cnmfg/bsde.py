"""Backward solve and the coupled forward-backward fixed point for a frozen flow.

The backward recursion estimates conditional expectations by least-squares
regression per common path over that path's particles (polynomial basis in the
particle state; the conditional law enters only through the frozen flow).  Two
common-noise specifics matter:

* the common increment is constant within a path, so the per-path fit of the
  next adjoint slice absorbs the common-noise martingale term; the common
  loading is therefore identified by a cross-path regression of per-path fit
  coefficients on the common increment, and the per-path fit is recentred by
  subtracting that loading times the realized increment before it is used as a
  conditional expectation;
* the idiosyncratic loading is regressed from fit residuals times the own
  increments, which keeps its variance at the increment scale.

The coupled solve iterates: simulate forward under the current control, solve
backward, replace the control by the pointwise Hamiltonian minimizer, with
optional damping, until the control stops moving in time-space rms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SolverError
from .forward_sim import (InitialLaw, NoiseBundle, OpenLoopControl, ParticleEnsemble, TimeGrid,
                          particle_array, simulate_forward, time_major)
from .measures import MeasureFlow
from .model import ModelSpec, _f1x_values, _gx_values, minimize_hamiltonian_values


@dataclass
class TerminalCondition:
    """Terminal adjoint rule p_T = evaluate(x, conditional-law stats).

    ``lipschitz`` is the plain Lipschitz constant in (x, conditional state),
    ``monotone`` asserts nondecreasing dependence on x; both are sampling-level
    contracts checked by ``check_terminal``.
    """

    evaluate: Callable[..., np.ndarray]
    lipschitz: float
    monotone: bool = True
    label: str = "terminal"


def terminal_from_cost(spec: ModelSpec) -> TerminalCondition:
    """Terminal condition read from the terminal-cost gradient."""

    def _eval(x, means, sqms, atoms=None):
        return _gx_values(spec.cost, x, means, sqms, atoms)

    return TerminalCondition(evaluate=_eval, lipschitz=spec.terminal_lipschitz,
                             monotone=True, label="terminal_cost_gradient")


def check_terminal(tc: TerminalCondition, rng: np.random.Generator, *,
                   x_range: tuple[float, float] = (-5.0, 5.0), n: int = 200,
                   tol_mono: float = 1e-9) -> dict:
    """Sampled monotonicity and Lipschitz diagnostics for a terminal condition."""
    lo, hi = x_range
    xs = rng.uniform(lo, hi, size=(n, 2))
    means = rng.uniform(lo, hi, size=(n, 1))
    sqms = means ** 2 + rng.uniform(0.0, 4.0, size=(n, 1))
    v1 = tc.evaluate(xs[:, :1], means, sqms)
    v2 = tc.evaluate(xs[:, 1:], means, sqms)
    dx = xs[:, 1:] - xs[:, :1]
    mono_min = float(np.min((v2 - v1) * dx))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(v2 - v1) / np.abs(dx)
    lip_max = float(np.nanmax(np.where(np.abs(dx) > 1e-9, ratios, np.nan)))
    return {"monotone_min": mono_min,
            "monotone_ok": (not tc.monotone) or mono_min >= -tol_mono,
            "lipschitz_max": lip_max,
            "lipschitz_ok": lip_max <= tc.lipschitz * 1.01}


@dataclass
class BackwardSolution:
    """Adjoint triple on the grid: p at nodes, loadings q, q_tilde on intervals."""

    p: np.ndarray         # (n_paths, n_particles, span + 1)
    q: np.ndarray         # (n_paths, n_particles, span)
    q_tilde: np.ndarray
    grid: TimeGrid
    diagnostics: dict = field(default_factory=dict)


@dataclass
class SolutionBundle:
    """Full discrete solution (X, u, m, p, q, q_tilde) on a (sub)grid."""

    states: np.ndarray
    controls: np.ndarray
    p: np.ndarray
    q: np.ndarray
    q_tilde: np.ndarray
    flow: MeasureFlow
    grid: TimeGrid
    n_lo: int = 0
    residual_history: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def ensemble(self) -> ParticleEnsemble:
        return ParticleEnsemble(states=self.states, controls=self.controls, grid=self.grid)


def solution_norm(bundle: SolutionBundle) -> float:
    """Discrete solution-process norm: sup of (X, p), time integral of (u, q, q_tilde)."""
    sup_part = np.max(bundle.states ** 2 + bundle.p ** 2, axis=2)
    int_part = np.sum(bundle.controls ** 2 + bundle.q ** 2 + bundle.q_tilde ** 2, axis=2) * bundle.grid.dt
    return float(np.sqrt(np.mean(sup_part) + np.mean(int_part)))


def solution_distance(b1: SolutionBundle, b2: SolutionBundle) -> float:
    """Solution-norm of the difference of two bundles on a common grid."""
    if b1.states.shape != b2.states.shape or abs(b1.grid.dt - b2.grid.dt) > 1e-14:
        raise SolverError("bundles are not on a common grid")
    sup_part = np.max((b1.states - b2.states) ** 2 + (b1.p - b2.p) ** 2, axis=2)
    int_part = np.sum((b1.controls - b2.controls) ** 2 + (b1.q - b2.q) ** 2
                      + (b1.q_tilde - b2.q_tilde) ** 2, axis=2) * b1.grid.dt
    return float(np.sqrt(np.mean(sup_part) + np.mean(int_part)))


def control_rms(table: np.ndarray, dt: float, horizon: float) -> float:
    """Time-space rms of a control table (the unit solver tolerances are stated in)."""
    return float(np.sqrt(np.mean(np.sum(table ** 2, axis=2)) * dt / horizon))


def first_order_residual(spec: ModelSpec, bundle: SolutionBundle) -> float:
    """rms residual of the Hamiltonian first-order condition along the solution."""
    nodes = bundle.grid.nodes
    total = 0.0
    count = 0
    for step in range(bundle.controls.shape[2]):
        t = nodes[step]
        r = (spec.drift.phi2(t) * bundle.p[:, :, step]
             + spec.vol.phi2(t) * bundle.q[:, :, step]
             + spec.vol_common.phi2(t) * bundle.q_tilde[:, :, step]
             + np.asarray(spec.cost.f0u(t, bundle.states[:, :, step], bundle.controls[:, :, step])))
        total += float(np.sum(r ** 2))
        count += r.size
    return float(np.sqrt(total / count))


# ---------------------------------------------------------------------------
# Backward regression pass
# ---------------------------------------------------------------------------


def _flow_stats_at(flow: MeasureFlow, idx: int):
    means = flow.means[:, idx][:, None]
    sqms = flow.second_moments[:, idx][:, None]
    return means, sqms, flow.atoms[:, :, idx]


def _backward_pass(spec: ModelSpec, states: np.ndarray, controls: np.ndarray,
                   flow: MeasureFlow, terminal_values: np.ndarray, noise: NoiseBundle,
                   *, gamma: float = 1.0, input_f: np.ndarray | None = None,
                   n_lo: int = 0, gate_plan: dict | None = None) -> BackwardSolution:
    m, k, n_nodes = states.shape
    span = n_nodes - 1
    dt = noise.grid.dt
    nodes = noise.grid.nodes
    flow_is_local = flow.atoms.shape[2] == span + 1
    # covariate-selection decisions are recorded per step on the first pass and
    # reused on later sweeps of the same solve, keeping the control-to-control
    # map continuous (flipping gates mid-iteration creates limit cycles)
    freeze_gates = gate_plan is not None and len(gate_plan) > 0
    if gate_plan is None:
        gate_plan = {}

    p = particle_array(m, k, span + 1)
    q = particle_array(m, k, span)
    qt = particle_array(m, k, span)
    p[:, :, span] = terminal_values

    eye3 = np.eye(3)
    r2 = np.empty(span)
    warnings: list[str] = []
    degenerate_steps = 0

    cost = spec.cost
    for step in range(span - 1, -1, -1):
        n = n_lo + step
        t = nodes[n]
        x = states[:, :, step]
        y = p[:, :, step + 1]
        dw = noise.dW[:, :, n]
        dwc = noise.dW_common[:, n]

        mu, sd = float(x.mean()), float(x.std())
        degenerate = sd < 1e-10 * (1.0 + abs(mu))
        if degenerate:
            degenerate_steps += 1
            psi = np.ones((m, k, 1))
            eye = np.eye(1)
        else:
            z = (x - mu) / sd
            psi = np.empty((m, k, 3))
            psi[:, :, 0] = 1.0
            psi[:, :, 1] = z
            psi[:, :, 2] = z * z
            eye = eye3

        psi_t = psi.transpose(0, 2, 1)
        gram = psi_t @ psi + (1e-9 * k) * eye
        coef = np.linalg.solve(gram, psi_t @ y[..., None])[..., 0]
        fitted = (psi @ coef[..., None])[..., 0]
        resid = y - fitted

        coef_q = np.linalg.solve(gram, psi_t @ (resid * dw / dt)[..., None])[..., 0]
        q_val = (psi @ coef_q[..., None])[..., 0]

        # Environment loadings: the common increment (and, at finite particle
        # counts, the flow-mean innovation it does not explain) are constant
        # within a path, so they are identified from cross-path variation of
        # the per-path fit coefficients.  The common-increment slope is the
        # common-noise loading; the full factor part is subtracted from the
        # fit to undo its anticipative conditioning on the realized increments.
        f_idx = step if flow_is_local else n
        if m >= 4:
            mbar = flow.means[:, f_idx]
            dm = flow.means[:, f_idx + 1] - mbar
            mb_sd = float(mbar.std())
            mb = None
            # the flow-mean covariate is a structural choice: for models whose
            # coefficients and costs never read the conditional law it would be
            # a pure noise column leaking the flow into decoupled problems
            if spec.measure_coupled and m >= 6 and mb_sd > 1e-12:
                mb = (mbar - mbar.mean()) / mb_sd
            cols = [np.ones(m)] + ([mb] if mb is not None else [])
            factor_cols = [dwc] + ([mb * dwc] if mb is not None else [])
            n_level = len(cols)
            design_w = np.column_stack(cols + factor_cols)
            use_z2 = gate_plan.get(("z2", step), False) if freeze_gates else False
            z2 = None
            if m >= 8:
                # flow-mean innovation orthogonalized against the common increment;
                # included only when it carries real unexplained variance (at large
                # particle counts it is noise and would only inflate the fit)
                z2_sol, *_ = np.linalg.lstsq(design_w, dm, rcond=None)
                z2_cand = dm - design_w @ z2_sol
                dm_var = float(np.var(dm))
                if not freeze_gates:
                    use_z2 = dm_var > 1e-300 and float(np.var(z2_cand)) > 0.05 * dm_var
                if use_z2 and float(np.var(z2_cand)) > 1e-300:
                    z2 = z2_cand
            gate_plan[("z2", step)] = z2 is not None
            if z2 is not None:
                factor_cols = factor_cols + ([z2, mb * z2] if mb is not None else [z2])
            design = np.column_stack(cols + factor_cols)
            sol, *_ = np.linalg.lstsq(design, coef, rcond=None)
            coef_qt = sol[n_level][None, :] + (mb[:, None] * sol[n_level + 1][None, :]
                                               if mb is not None else 0.0)
            coef_factors = design[:, n_level:] @ sol[n_level:]
            qt_val = (psi @ coef_qt[..., None])[..., 0]
            anticipative = (psi @ coef_factors[..., None])[..., 0]
        else:
            qt_val = np.zeros_like(q_val)
            anticipative = np.zeros_like(q_val)
            if step == span - 1:
                warnings.append("common-noise loading set to zero: fewer than 4 common paths")

        cond_exp = fitted - anticipative

        means, sqms, atoms = _flow_stats_at(flow, f_idx)
        u = controls[:, :, step]
        rest = gamma * (spec.vol.phi1(t) * q_val + spec.vol_common.phi1(t) * qt_val
                        + np.asarray(cost.f0x(t, x, u))
                        + _f1x_values(cost, t, x, means, sqms, atoms))
        if input_f is not None:
            rest = rest + input_f[:, :, step]
        p[:, :, step] = (cond_exp + rest * dt) / (1.0 - gamma * spec.drift.phi1(t) * dt)
        q[:, :, step] = q_val
        qt[:, :, step] = qt_val

        var_y = float(np.var(y))
        r2[step] = 1.0 - float(np.mean(resid ** 2)) / var_y if var_y > 1e-300 else 1.0

    if degenerate_steps:
        warnings.append(f"regression fell back to intercept-only basis on {degenerate_steps} steps")
    diag = {"r_squared": r2, "warnings": warnings}
    return BackwardSolution(p=p, q=q, q_tilde=qt, grid=noise.grid if span == noise.grid.n_steps
                            else noise.grid.subgrid(n_lo, n_lo + span), diagnostics=diag)


def solve_bsde_given_control(spec: ModelSpec, ensemble: ParticleEnsemble, flow: MeasureFlow,
                             terminal: TerminalCondition, noise: NoiseBundle,
                             *, gamma: float = 1.0, input_f: np.ndarray | None = None,
                             input_g: np.ndarray | None = None, n_lo: int = 0,
                             gate_plan: dict | None = None) -> BackwardSolution:
    """Backward solve for a given control and frozen measure flow."""
    span = ensemble.states.shape[2] - 1
    idx = span if flow.atoms.shape[2] == span + 1 else n_lo + span
    means, sqms, atoms = _flow_stats_at(flow, idx)
    terminal_values = gamma * np.asarray(terminal.evaluate(ensemble.states[:, :, -1], means, sqms, atoms))
    if input_g is not None:
        terminal_values = terminal_values + input_g
    return _backward_pass(spec, ensemble.states, ensemble.controls, flow, terminal_values, noise,
                          gamma=gamma, input_f=input_f, n_lo=n_lo, gate_plan=gate_plan)


# ---------------------------------------------------------------------------
# Coupled fixed point (Picard on the control)
# ---------------------------------------------------------------------------


def picard_solve(spec: ModelSpec, noise: NoiseBundle, terminal: TerminalCondition, *,
                 xi0: InitialLaw | None = None, init_states: np.ndarray | None = None,
                 frozen_flow: MeasureFlow | None = None, gamma: float = 1.0,
                 inputs: dict | None = None, n_lo: int = 0, n_hi: int | None = None,
                 u0: np.ndarray | None = None, tol: float = 1e-4, max_iter: int = 60,
                 damping: float = 1.0, min_damping: float = 0.02,
                 check_divergence: bool = False) -> SolutionBundle:
    """Solve the coupled system by Picard iteration on the control.

    With ``frozen_flow`` the measure argument stays fixed (the control problem
    for a given flow); otherwise each sweep re-simulates the conditional
    particle system so the flow is the live empirical one.  ``gamma`` and
    ``inputs`` (keys "b", "sigma", "sigma_tilde", "f" as [j, k, step] tables
    and "g" as [j, k]) realize the coefficient-scaled system with exogenous
    perturbations.  Raises SolverError with the residual history on iteration
    cap, and on three consecutive increases of the measure-flow distance when
    ``check_divergence`` is set.
    """
    grid = noise.grid
    n_hi = grid.n_steps if n_hi is None else n_hi
    span = n_hi - n_lo
    if init_states is None:
        if xi0 is None:
            raise SolverError("need an initial law or explicit initial states")
        init_states = noise.initial_states(xi0)
    horizon = span * grid.dt
    # the iteration never writes into u, so a time-major u0 is used without a copy
    u = particle_array(noise.n_paths, noise.n_particles, span, zeros=True) if u0 is None \
        else time_major(u0)
    inputs = inputs or {}
    sim_inputs = {key: inputs[key] for key in ("b", "sigma", "sigma_tilde") if key in inputs}

    history: list[float] = []
    flow_dists: list[float] = []
    theta = damping
    theta_cap = damping
    prev_step = np.inf
    prev_move = np.inf
    prev_flow = None
    gate_plan: dict = {}
    nodes = grid.nodes

    for it in range(max_iter):
        ens = simulate_forward(spec, OpenLoopControl(u), noise, xi0,
                               init_states=init_states, frozen_flow=frozen_flow,
                               gamma=gamma, inputs=sim_inputs, n_lo=n_lo, n_hi=n_hi)
        flow = frozen_flow if frozen_flow is not None else ens.flow
        if check_divergence and frozen_flow is None:
            if prev_flow is not None:
                flow_dists.append(prev_flow.node_distance(flow))
                # three rising sweeps clearly above the noise floor, after the
                # damping rescue has already bottomed out
                if (len(flow_dists) >= 3 and flow_dists[-1] > flow_dists[-2] > flow_dists[-3]
                        and flow_dists[-1] > 10.0 * tol and theta <= min_damping):
                    raise SolverError("measure flow diverging over three sweeps",
                                      history={"residuals": history, "flow_distances": flow_dists})
            prev_flow = flow

        back = solve_bsde_given_control(spec, ens, flow, terminal, noise, gamma=gamma,
                                        input_f=inputs.get("f"), input_g=inputs.get("g"),
                                        n_lo=n_lo, gate_plan=gate_plan)

        u_min = np.empty_like(u)
        for step in range(span):
            t = nodes[n_lo + step]
            u_min[:, :, step] = minimize_hamiltonian_values(
                spec, t, ens.states[:, :, step], back.p[:, :, step],
                back.q[:, :, step], back.q_tilde[:, :, step])

        # convergence is measured on the undamped fixed-point gap, so a small
        # damping factor cannot fake progress
        step_rms = control_rms(u_min - u, grid.dt, horizon)
        history.append(step_rms)
        if step_rms <= tol:
            diag = dict(back.diagnostics)
            diag["iterations"] = it + 1
            diag["damping_final"] = theta
            bundle = SolutionBundle(
                states=ens.states, controls=ens.controls, p=back.p, q=back.q,
                q_tilde=back.q_tilde, flow=flow, grid=ens.grid, n_lo=n_lo,
                residual_history=history, diagnostics=diag)
            diag["first_order_residual"] = first_order_residual(spec, bundle)
            return bundle

        # damping adaptation: increases of the gap cap the step size, stalls
        # damp further, solid contractions recover the step up to the cap, and
        # the realized movement per sweep never more than doubles
        if step_rms > prev_step:
            theta_cap = max(theta * 0.5, min_damping)
            theta = theta_cap
        elif step_rms > 0.98 * prev_step:
            # a stall reveals the map struggles at this step size: remember it
            theta = max(theta * 0.5, min_damping)
            theta_cap = min(theta_cap, theta)
        elif step_rms < 0.6 * prev_step:
            theta = min(theta * 2.0, theta_cap)
        move = theta * step_rms
        if np.isfinite(prev_move) and move > 2.0 * prev_move:
            theta = 2.0 * prev_move / step_rms
            move = theta * step_rms
        u = u + theta * (u_min - u)
        prev_step = step_rms
        prev_move = move

    raise SolverError(f"control iteration did not converge in {max_iter} sweeps "
                      f"(last residual {history[-1]:.3e})",
                      history={"residuals": history, "flow_distances": flow_dists})


def solve_fbsde_frozen_flow(spec: ModelSpec, flow: MeasureFlow, xi0: InitialLaw,
                            terminal: TerminalCondition, noise: NoiseBundle,
                            tol: float = 1e-4, max_iter: int = 60, **kw) -> SolutionBundle:
    """Control problem for a frozen measure flow, solved by Picard on the control."""
    return picard_solve(spec, noise, terminal, xi0=xi0, frozen_flow=flow,
                        tol=tol, max_iter=max_iter, **kw)
