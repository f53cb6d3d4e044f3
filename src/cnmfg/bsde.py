"""Backward solve and the coupled forward-backward fixed point for a frozen flow.

The backward recursion estimates conditional expectations by least-squares
regression per common path over that path's particles (basis [1, z, z^2] in
the standardized particle state; the conditional law enters only through the
frozen flow).  Two common-noise specifics matter:

* the common increment is constant within a path, so the per-path fit of the
  next adjoint slice absorbs the common-noise martingale term; the common
  loading is therefore identified by a cross-path regression of per-path fit
  coefficients on the common increment, and the per-path fit is recentred by
  subtracting that loading times the realized increment before it is used as a
  conditional expectation;
* the idiosyncratic loading is regressed from fit residuals times the own
  increments, which keeps its variance at the increment scale.

Only the products with the next adjoint slice depend on the recursion.  The
state-only geometry is built per block of consecutive steps (at most
``_GEOMETRY_BLOCK`` states): each step's mean and standard deviation in one
reduction over the block, the ridged Gram matrices of [1, z, z^2] from
per-path power sums of z, and one batched inversion of those; if a step's
states all coincide, z = 0, which under the ridge is the intercept-only fit.
The variances R^2 divides by are taken per block too, once its adjoint nodes
are written.  Per step, the recursion rebuilds the basis as one (path, basis,
particle) block from the stored moments and keeps the fits, q, q_tilde, p and
the Hamiltonian's x-derivative.  The cross-path design reads only flow, noise
and the z2 gates, so two batched solves build it for all steps up front, and a
coupled solve on a frozen flow builds it only once.  The loop reduces with
einsum and ufuncs: a long BLAS dot wakes spinning threads.

The coupled solve iterates: simulate forward under the current control, solve
backward, take the pointwise Hamiltonian minimizer, and step the control
toward it by Anderson acceleration, until the control stops moving in
time-space rms.

A terminal condition is a callable (x, m) -> p_T of the last node's states
and per-path laws (``m.mean``, ``m.atoms``): the terminal-cost gradient, or a
fitted decoupling field on an interval of the horizon.

Every solve runs on the whole grid of its noise bundle: backward step n reads
node n of the states, the flow, the noise and the grid, with no offset.  An
interval of the horizon is solved on ``NoiseBundle.window``; a frozen flow
must lie on the noise's grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SolverError
from .forward_sim import (InitialLaw, InputPerturbation, NoiseBundle, OpenLoopControl,
                          ParticleEnsemble, TimeGrid, particle_array, simulate_forward, time_major)
from .measures import MeasureFlow
from .model import ModelSpec, control_loading, hamiltonian_dx, minimize_hamiltonian_values

# floor of the Picard damping factor, which starts at 1 (the undamped map)
_MIN_DAMPING = 0.02
# residual differences that each Anderson step of the control iteration mixes
_ANDERSON_DEPTH = 2
# elements (step x path x particle) whose regression geometry the backward pass
# builds at once: a whole pass on small ensembles, one step at desk scale
_GEOMETRY_BLOCK = 2 ** 14


def terminal_from_cost(spec: ModelSpec) -> Callable[..., np.ndarray]:
    """Terminal condition p_T = gx(x, m), the terminal-cost gradient."""
    return spec.cost.gx


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
    residual_history: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def solution_norm(bundle: SolutionBundle) -> float:
    """Discrete solution-process norm: sup of (X, p), time integral of (u, q, q_tilde)."""
    sup_part = np.max(bundle.states ** 2 + bundle.p ** 2, axis=2)
    int_part = np.sum(bundle.controls ** 2 + bundle.q ** 2 + bundle.q_tilde ** 2) * bundle.grid.dt
    return float(np.sqrt(np.mean(sup_part) + int_part / sup_part.size))


def solution_distance(b1: SolutionBundle, b2: SolutionBundle) -> float:
    """Solution-norm of the difference of two bundles on a common grid.

    Taken node by node in two (path, particle) buffers, with no full-size temporary.
    """
    if b1.states.shape != b2.states.shape or abs(b1.grid.dt - b2.grid.dt) > 1e-14:
        raise SolverError("bundles are not on a common grid")
    m, k, n_nodes = b1.states.shape
    sup_part = np.zeros((m, k))
    diff, node = np.empty((m, k)), np.empty((m, k))
    running = 0.0
    for n in range(n_nodes):
        np.square(np.subtract(b1.states[:, :, n], b2.states[:, :, n], out=diff), out=node)
        node += np.square(np.subtract(b1.p[:, :, n], b2.p[:, :, n], out=diff), out=diff)
        np.maximum(sup_part, node, out=sup_part)
        if n < n_nodes - 1:
            for a1, a2 in ((b1.controls, b2.controls), (b1.q, b2.q), (b1.q_tilde, b2.q_tilde)):
                np.subtract(a1[:, :, n], a2[:, :, n], out=diff)
                running += float(np.einsum("jk,jk->", diff, diff))
    return float(np.sqrt(np.mean(sup_part) + running * b1.grid.dt / sup_part.size))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b over two (path, atom, node) arrays, on memory-order views if time-major."""
    return float(np.einsum("i,i->", a.transpose(2, 0, 1).reshape(-1),
                           b.transpose(2, 0, 1).reshape(-1)))


def control_rms(table: np.ndarray, dt: float, horizon: float) -> float:
    """Time-space rms of a control table (the unit solver tolerances are stated in)."""
    return float(np.sqrt(_dot(table, table) / (table.size / table.shape[2]) * dt / horizon))


def first_order_residual(spec: ModelSpec, bundle: SolutionBundle) -> float:
    """rms residual of the Hamiltonian first-order condition along the solution."""
    nodes = bundle.grid.nodes
    total = 0.0
    count = 0
    for step in range(bundle.controls.shape[2]):
        t = nodes[step]
        r = (control_loading(spec, t, bundle.p[:, :, step], bundle.q[:, :, step],
                             bundle.q_tilde[:, :, step])
             + np.asarray(spec.cost.f0u(t, bundle.states[:, :, step], bundle.controls[:, :, step])))
        total += float(np.sum(r ** 2))
        count += r.size
    return float(np.sqrt(total / count))


# ---------------------------------------------------------------------------
# Backward regression pass
# ---------------------------------------------------------------------------


def _fit_maps(design: np.ndarray) -> np.ndarray:
    """Least-squares maps (step, col, path) of stacked (step, path, col) designs."""
    # normal equations in unit-norm columns; an absent (zero) column gets 1 on
    # its Gram diagonal, so its coefficient is exactly 0
    norms = np.sqrt(np.einsum("njc,njc->nc", design, design))
    absent = norms == 0.0
    scale = 1.0 / np.where(absent, 1.0, norms)
    scaled = design * scale[:, None, :]
    gram = np.einsum("njc,njd->ncd", scaled, scaled)
    gram += absent[:, :, None] * np.eye(design.shape[2])
    return scale[:, :, None] * np.linalg.solve(gram, scaled.transpose(0, 2, 1))


def _cross_path_design(spec: ModelSpec, flow: MeasureFlow, noise: NoiseBundle,
                       gate_plan: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each step's cross-path design and its least-squares map, zero below 4 paths.

    The columns are [1, mb, dwc, mb * dwc, z2, mb * z2]; an absent one is zero.
    """
    m, span = flow.n_paths, noise.grid.n_steps
    design = np.zeros((span, m, 6))
    if m < 4:
        return design, np.zeros((span, 6, m))
    mbar = flow.means[:, :-1].T
    dm = np.diff(flow.means, axis=1).T
    design[:, :, 0] = 1.0
    design[:, :, 2] = noise.dW_common.T
    # the flow-mean covariate is a structural choice: for models whose
    # coefficients and costs never read the conditional law it would be a
    # pure noise column leaking the flow into decoupled problems
    mb_sd = mbar.std(axis=1)
    live = (mb_sd > 1e-12) & (spec.measure_coupled and m >= 6)
    design[live, :, 1] = (mbar[live] - mbar[live].mean(axis=1, keepdims=True)) / mb_sd[live, None]
    design[:, :, 3] = design[:, :, 1] * design[:, :, 2]
    # flow-mean innovation orthogonalized against the common increment;
    # included only when it carries real unexplained variance (at large
    # particle counts it is noise and would only inflate the fit)
    base = design[:, :, :4]
    z2 = dm - np.einsum("njc,nc->nj", base, np.einsum("ncj,nj->nc", _fit_maps(base), dm))
    dm_var, z2_var = dm.var(axis=1), z2.var(axis=1)
    if gate_plan:
        use_z2 = np.array([gate_plan.get(("z2", n), False) for n in range(span)])
    else:
        use_z2 = (dm_var > 1e-300) & (z2_var > 0.05 * dm_var)
    use_z2 &= (z2_var > 1e-300) & (m >= 8)
    gate_plan.update({("z2", n): bool(use_z2[n]) for n in range(span)})
    design[use_z2, :, 4] = z2[use_z2]
    design[:, :, 5] = design[:, :, 1] * design[:, :, 4]
    return design, _fit_maps(design)


def _regression_geometry(states: np.ndarray, lo: int, hi: int, ridge: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Standardization and inverse ridged Gram matrices of the steps lo..hi - 1.

    Returns each step's state mean and standard deviation, whether its states
    all coincide (its z is then 0, which under the ridge is the intercept-only
    fit), and the (step, path, 3, 3) inverse Gram matrices of the basis
    [1, z, z^2].  The moments are one reduction over the block's time-major
    (step, path * particle) view; Gram entry (a, b) is the per-path power sum
    of z^(a + b).
    """
    m, k, _ = states.shape
    x = states.transpose(2, 0, 1)[lo:hi].reshape(hi - lo, m * k)
    mu = x.mean(axis=1)
    z = x - mu[:, None]
    sd = np.sqrt(np.einsum("ni,ni->n", z, z) / (m * k))
    flat = sd < 1e-10 * (1.0 + np.abs(mu))
    z /= np.where(flat, np.inf, sd)[:, None]
    z = z.reshape(hi - lo, m, k)
    power = np.empty((5, hi - lo, m))
    power[0] = k
    z.sum(axis=2, out=power[1])
    np.einsum("njk,njk,njk->nj", z, z, z, out=power[3])
    np.square(z, out=z)
    z.sum(axis=2, out=power[2])
    np.einsum("njk,njk->nj", z, z, out=power[4])
    gram = np.stack([power[a:a + 3] for a in range(3)]).transpose(2, 3, 0, 1) + ridge
    return mu, sd, flat, np.linalg.inv(gram)


def solve_bsde_given_control(spec: ModelSpec, ensemble: ParticleEnsemble, flow: MeasureFlow,
                             terminal: Callable[..., np.ndarray], noise: NoiseBundle,
                             *, gamma: float = 1.0, inputs: InputPerturbation | None = None,
                             design: tuple[np.ndarray, np.ndarray] | None = None
                             ) -> BackwardSolution:
    """Backward solve for a given control and frozen measure flow on the noise's grid.

    ``design`` is the cross-path design with its maps, as ``_cross_path_design``
    builds it on this flow and noise; without it one is built with fresh gates.
    """
    grid = noise.grid
    if flow.grid != grid or ensemble.grid != grid:
        raise SolverError(f"flow on {flow.grid} and ensemble on {ensemble.grid} "
                          f"are not both on the noise grid {grid}")
    states, controls = ensemble.states, ensemble.controls
    m, k, _ = states.shape
    span = grid.n_steps
    dt = grid.dt
    nodes = grid.nodes
    design, fit_maps = _cross_path_design(spec, flow, noise, {}) if design is None else design

    # the steps run in blocks of ``width``, last first; each block's geometry is
    # built before its recursion, the first one before the adjoint arrays exist
    width = max(1, _GEOMETRY_BLOCK // (m * k))
    lo, hi = max(0, span - width), span
    ridge = (1e-9 * k) * np.eye(3)
    geometry = _regression_geometry(states, lo, hi, ridge)

    p = particle_array(m, k, span + 1)
    q = particle_array(m, k, span)
    qt = particle_array(m, k, span)
    terminal_values = gamma * np.asarray(terminal(states[:, :, -1], flow.at(span)))
    if inputs is not None:
        terminal_values = terminal_values + inputs.g
    p[:, :, span] = terminal_values

    basis = np.empty((m, 3, k))          # rows [1, z, z^2] of each path
    basis[:, 0] = 1.0
    r2 = np.empty(span)
    warnings = [] if m >= 4 else ["common-noise loading set to zero: fewer than 4 common paths"]
    degenerate_steps = 0

    def fit(gram_inv, values):
        """Per-path ridge coefficients of ``values`` on the basis."""
        return np.einsum("jab,jb->ja", gram_inv, np.einsum("jbk,jk->jb", basis, values))

    while hi > 0:
        mu, sd, flat, gram_invs = geometry
        degenerate_steps += int(np.count_nonzero(flat))
        for n in range(hi - 1, lo - 1, -1):
            t = nodes[n]
            x = states[:, :, n]
            y = p[:, :, n + 1]
            if flat[n - lo]:
                basis[:, 1] = 0.0
            else:
                np.subtract(x, mu[n - lo], out=basis[:, 1])
                basis[:, 1] /= sd[n - lo]
            np.square(basis[:, 1], out=basis[:, 2])
            gram_inv = gram_invs[n - lo]
            coef = fit(gram_inv, y)
            resid = y - np.einsum("jbk,jb->jk", basis, coef)
            q_val = np.einsum("jbk,jb->jk", basis, fit(gram_inv, resid * noise.dW[:, :, n]) / dt,
                              out=q[:, :, n])

            # Environment loadings: the common increment (and, at finite particle
            # counts, the flow-mean innovation it does not explain) are constant
            # within a path, so they are identified from cross-path variation of
            # the per-path fit coefficients.  The common-increment slope is the
            # common-noise loading; the full factor part is subtracted from the
            # fit to undo its anticipative conditioning on the realized increments.
            sol = fit_maps[n] @ coef
            qt_val = np.einsum("jbk,jb->jk", basis, sol[2] + design[n, :, 1, None] * sol[3],
                               out=qt[:, :, n])
            p_n = np.einsum("jbk,jb->jk", basis, coef - design[n, :, 2:] @ sol[2:],
                            out=p[:, :, n])

            # H_x at p = 0: its b1 * p term is implicit, in the denominator below
            p_n += (gamma * dt) * hamiltonian_dx(spec, t, x, 0.0, q_val, qt_val,
                                                 controls[:, :, n], flow.at(n))
            if inputs is not None:
                p_n += dt * inputs.f[:, :, n]
            p_n /= 1.0 - gamma * spec.drift.phi1(t) * dt
            r2[n] = np.einsum("jk,jk->", resid, resid) / (m * k)

        # r2 holds each step's mean squared residual; R^2 divides it by the
        # variance of the fitted slice p[n + 1], now written for the whole block
        var_y = p.transpose(2, 0, 1)[lo + 1:hi + 1].reshape(hi - lo, m * k).var(axis=1)
        fitted = var_y > 1e-300
        r2[lo:hi] = 1.0 - fitted * r2[lo:hi] / np.where(fitted, var_y, 1.0)
        lo, hi = max(0, lo - width), lo
        if hi > 0:
            geometry = _regression_geometry(states, lo, hi, ridge)

    if degenerate_steps:
        warnings.append(f"regression fell back to intercept-only basis on {degenerate_steps} steps")
    diag = {"r_squared": r2, "warnings": warnings}
    return BackwardSolution(p=p, q=q, q_tilde=qt, grid=grid, diagnostics=diag)


# ---------------------------------------------------------------------------
# Coupled fixed point (Picard on the control)
# ---------------------------------------------------------------------------


def _anderson_weights(gram: np.ndarray) -> np.ndarray:
    """Weights c, summing to 1, of stored residuals f_j that minimize |sum_j c_j f_j|.

    ``gram`` holds the residuals' dot products, oldest first.  The least
    squares runs over the differences of consecutive residuals against the
    newest one (Walker & Ni), so it is invariant to their scale.
    """
    n = len(gram)
    if n == 1:
        return np.ones(1)
    diff = np.eye(n, n - 1, -1) - np.eye(n, n - 1)     # column i: f_{i+1} - f_i
    lhs = np.einsum("ia,ij,jb->ab", diff, gram, diff)
    # a relative ridge keeps the normal equations regular when differences are
    # (nearly) parallel; a zero difference gets weight 0
    diag = np.diag_indices(n - 1)
    lhs[diag] = lhs[diag] * (1.0 + 1e-10) + np.finfo(float).tiny
    gamma = np.linalg.solve(lhs, np.einsum("ia,i->a", diff, gram[:, -1]))
    weights = -np.einsum("ia,a->i", diff, gamma)
    weights[-1] += 1.0
    return weights


def picard_solve(spec: ModelSpec, noise: NoiseBundle, terminal: Callable[..., np.ndarray], *,
                 xi0: InitialLaw | None = None, init_states: np.ndarray | None = None,
                 frozen_flow: MeasureFlow | None = None, gamma: float = 1.0,
                 inputs: InputPerturbation | None = None, u0: np.ndarray | None = None,
                 first_pass: ParticleEnsemble | None = None, tol: float = 1e-4,
                 max_iter: int = 60) -> SolutionBundle:
    """Solve the coupled system on the noise's grid by accelerated Picard iteration on the control.

    With ``frozen_flow`` (on the noise's grid) the measure argument stays fixed
    (the control problem for a given flow); otherwise each sweep re-simulates
    the conditional particle system so the flow is the live empirical one.
    ``gamma`` and the tables of ``inputs`` realize the coefficient-scaled
    system with exogenous perturbations: ``simulate_forward`` reads ``b``,
    ``sigma`` and ``sigma_tilde``, the backward solve ``f`` and ``g``.
    ``first_pass``, when the caller already holds it, is the ensemble that
    ``simulate_forward`` returns under ``u0`` with these arguments; the first
    sweep takes it instead of simulating again.

    A sweep maps the control u to the pointwise Hamiltonian minimizer along
    the forward and backward solutions under u; f is its residual.  The step
    is Anderson acceleration of depth ``_ANDERSON_DEPTH`` of the damped map
    u + theta f (Walker & Ni, SIAM J. Numer. Anal. 2011): the new control
    mixes the damped images of the current and the last ``_ANDERSON_DEPTH``
    iterates, with the weights, summing to 1, that minimize the same mix of
    their residuals; the weights come from the residuals' dot products.  A
    rise of the residual clears that history, and while the history is empty
    the step is the damped one.  theta starts at 1 (the plain map) and
    halves, to a floor of ``_MIN_DAMPING``, on each rise that follows a
    damped step.  Convergence is measured on the residual, so damping cannot
    fake progress.

    Raises SolverError with the residual history on a non-finite residual
    and on the iteration cap.  On a live flow a divergence guard also runs:
    it raises on three consecutive increases of the measure-flow distance once
    theta is at its floor, which a solve whose damped steps keep raising the
    residual reaches after six such rises.  A sweep takes the distance of its
    flow to the last sweep's only while theta <= 4 * ``_MIN_DAMPING``, where a
    guard can still read it, so ``history["flow_distances"]`` holds those
    sweeps' distances, oldest first, and is empty when theta never got there.
    Its last entry belongs to the last sweep started: a guard raise appends
    that sweep's distance before its residual exists, so there the
    distances run one sweep past ``history["residuals"]``.
    """
    grid = noise.grid
    if init_states is None:
        if xi0 is None:
            raise SolverError("need an initial law or explicit initial states")
        init_states = noise.initial_states(xi0)
    horizon = grid.n_steps * grid.dt
    # the iteration never writes into the caller's start, so a time-major u0 is
    # used without a copy; later iterates are its own buffers, and it reuses them
    u = particle_array(noise.n_paths, noise.n_particles, grid.n_steps, zeros=True) if u0 is None \
        else time_major(u0)
    start = None if u0 is None else u

    history: list[float] = []
    flow_dists: list[float] = []
    theta = 1.0
    # Anderson history of the last iterates, oldest first: residuals f, damped
    # images u + theta f, and the dot products of the residuals
    fs: list[np.ndarray] = []
    gs: list[np.ndarray] = []
    gram = np.empty((0, 0))
    prev_flow = None
    gate_plan: dict = {}
    design = None

    for it in range(max_iter):
        ens, first_pass = first_pass, None
        if ens is None:
            ens = simulate_forward(spec, OpenLoopControl(u), noise, xi0,
                                   init_states=init_states, frozen_flow=frozen_flow,
                                   gamma=gamma, inputs=inputs)
        flow = frozen_flow if frozen_flow is not None else ens.flow
        if frozen_flow is None:
            # theta halves at most once per sweep, so theta_{s-1} <= 2 theta_s: a
            # guard firing at sweep s (theta at the floor) reads the distances of
            # sweeps s-2..s, all taken at theta <= 4 floor, and the one of sweep
            # s-2 compares with the flow of sweep s-3, taken at theta <= 8 floor
            if prev_flow is not None and theta <= 4.0 * _MIN_DAMPING:
                flow_dists.append(prev_flow.node_distance(flow))
                # three rising sweeps clearly above the noise floor, after the
                # damping rescue has already bottomed out
                if (len(flow_dists) >= 3 and flow_dists[-1] > flow_dists[-2] > flow_dists[-3]
                        and flow_dists[-1] > 10.0 * tol and theta <= _MIN_DAMPING):
                    raise SolverError("measure flow diverging over three sweeps",
                                      history={"residuals": history, "flow_distances": flow_dists})
            prev_flow = flow if theta <= 8.0 * _MIN_DAMPING else None

        # gates are decided on the first pass and reused on later sweeps of the
        # same solve, keeping the control-to-control map continuous (flipping
        # gates mid-iteration creates limit cycles); on a frozen flow nothing
        # else in the design moves either, so it is built once
        if design is None or frozen_flow is None:
            design = _cross_path_design(spec, flow, noise, gate_plan)
        back = solve_bsde_given_control(spec, ens, flow, terminal, noise, gamma=gamma,
                                        inputs=inputs, design=design)

        # a full history lends its oldest residual's buffer to the new one:
        # only their dot product is still needed, and it is taken node by node
        # before the write
        oldest = fs[0] if len(fs) == _ANDERSON_DEPTH else None
        f = np.empty_like(u) if oldest is None else oldest
        dot_oldest = 0.0
        for n in range(grid.n_steps):
            f_n = minimize_hamiltonian_values(
                spec, grid.nodes[n], ens.states[:, :, n], back.p[:, :, n],
                back.q[:, :, n], back.q_tilde[:, :, n])
            f_n -= u[:, :, n]
            if oldest is not None:
                dot_oldest += float(np.einsum("jk,jk->", f_n, oldest[:, :, n]))
            f[:, :, n] = f_n
        step_rms = control_rms(f, grid.dt, horizon)
        history.append(step_rms)
        if not np.isfinite(step_rms):
            raise SolverError(f"non-finite control residual at sweep {it + 1}",
                              history={"residuals": history, "flow_distances": flow_dists})
        if step_rms <= tol:
            diag = dict(back.diagnostics)
            diag["iterations"] = it + 1
            diag["damping_final"] = theta
            # a live flow is handed out as a new view of the states, without
            # the sorted atoms kept for the next sweep's distance
            return SolutionBundle(
                states=ens.states, controls=ens.controls, p=back.p, q=back.q,
                q_tilde=back.q_tilde, grid=grid, residual_history=history, diagnostics=diag,
                flow=flow if frozen_flow is not None else ens.flow)
        # the next sweep allocates its own; only a flow that a later distance
        # reads is kept, as ``prev_flow``
        del ens, back, flow

        if len(history) > 1 and step_rms > history[-2]:
            # a rise after a damped step halves the damping; any rise restarts
            if len(fs) < 2:
                theta = max(theta * 0.5, _MIN_DAMPING)
            fs, gs, gram, oldest = [], [], np.empty((0, 0)), None
        row = [dot_oldest if h is oldest else _dot(f, h) for h in fs] + [_dot(f, f)]
        gram = np.block([[gram, np.array(row[:-1])[:, None]], [np.array(row)]])
        # the damped image u + theta f is built in u's buffer, unless u is the
        # caller's start, and the new iterate sum_j c_j g_j in the buffer of the
        # image that leaves the history; node by node, with no full-size temporary
        g = np.copy(u) if u is start else u
        node = np.empty_like(u[:, :, 0])
        for n in range(grid.n_steps):
            g[:, :, n] += np.multiply(f[:, :, n], theta, out=node)
        fs.append(f)
        gs.append(g)
        weights = _anderson_weights(gram)
        u = gs[0] if len(gs) > _ANDERSON_DEPTH else np.empty_like(g)
        for n in range(grid.n_steps):
            u_n = np.multiply(gs[0][:, :, n], weights[0], out=u[:, :, n])
            for c, g_j in zip(weights[1:], gs[1:]):
                u_n += np.multiply(g_j[:, :, n], c, out=node)
        if len(fs) > _ANDERSON_DEPTH:
            fs, gs, gram = fs[1:], gs[1:], gram[1:, 1:]

    raise SolverError(f"control iteration did not converge in {max_iter} sweeps "
                      f"(last residual {history[-1]:.3e})",
                      history={"residuals": history, "flow_distances": flow_dists})
