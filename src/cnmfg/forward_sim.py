"""Time discretization, reproducible noise, and the conditional particle system.

The particle layout is states[j, k, n]: common path j (all particles with the
same j share one realization of the common noise), particle k within the path,
grid node n.  Every (paths x particles x steps) array is stored time-major, as
memory (n, j, k), and the [j, k, n] index order is a transposed view of it:
the solvers read and write one grid node at a time, and every per-node slice
a[:, :, n] is a C-contiguous (paths, particles) block.  Allocate such arrays
with ``particle_array``; ``time_major`` brings arrays from elsewhere into this
layout.  The conditional law of the state given the common noise is
approximated by the empirical law over the K particles of each path, which
makes the conditional McKean-Vlasov fixed point exact at the particle level:
simulating forward with coefficients read off the current per-path empirical
law is self-consistent by construction.

A simulation covers the whole grid of its noise bundle: step n reads node n
of the grid, the increments and any frozen flow, one time index throughout.
A stretch of the horizon is simulated on ``NoiseBundle.window``, views on the
increments of those steps on a grid with the parent's step and nodes.  The
whole horizon on a coarser grid is ``NoiseBundle.coarsened``, whose increments
are sums of runs of the fine ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SimulationError
from .measures import MeasureFlow, PathLaws, particle_array, time_major
from .model import ModelSpec

# Philox counter offsets: one block per (channel, common path); blocks are far
# larger than any draw count so streams never overlap.
_PATH_STRIDE = 1 << 20
_CHANNEL_STRIDE = 1 << 40
_CH_IDIOSYNCRATIC, _CH_COMMON, _CH_INITIAL = 0, 1, 2


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 = t_0 < ... < t_N = t0 + span; top-level grids start at 0.

    A subgrid holds its parent's ``dt`` and a view of its read-only ``nodes``.
    """

    horizon: float
    n_steps: int
    t0: float = 0.0
    dt: float = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.horizon <= 0 or self.n_steps < 1:
            raise SimulationError("grid needs positive horizon and at least one step")
        nodes = self.t0 + np.linspace(0.0, self.horizon, self.n_steps + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "dt", self.horizon / self.n_steps)
        object.__setattr__(self, "nodes", nodes)

    def subgrid(self, n_lo: int, n_hi: int) -> "TimeGrid":
        if not (0 <= n_lo < n_hi <= self.n_steps):
            raise SimulationError(f"invalid subgrid [{n_lo}, {n_hi}] of {self.n_steps} steps")
        span = n_hi - n_lo
        sub = TimeGrid(horizon=span * self.dt, n_steps=span, t0=float(self.nodes[n_lo]))
        object.__setattr__(sub, "dt", self.dt)
        object.__setattr__(sub, "nodes", self.nodes[n_lo:n_hi + 1])
        return sub


@dataclass(frozen=True)
class InitialLaw:
    """Square-integrable initial law: constant, normal(mu, std^2), or an atom list."""

    kind: str
    mu: float = 0.0
    std: float = 1.0
    atoms: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "normal", "empirical"):
            raise SimulationError(f"unknown initial law kind {self.kind!r}")
        if self.kind == "normal" and self.std < 0:
            raise SimulationError("normal initial law needs std >= 0")
        if self.kind == "empirical" and len(self.atoms) == 0:
            raise SimulationError("empirical initial law needs at least one atom")


def _block_rng(seed: int, channel: int, j: int) -> np.random.Generator:
    bits = np.random.Philox(key=seed)
    bits.advance(channel * _CHANNEL_STRIDE + j * _PATH_STRIDE)
    return np.random.Generator(bits)


@dataclass
class NoiseBundle:
    """Brownian increments for M common paths with K particles each.

    Increments are regenerated deterministically from (seed, n_paths,
    n_particles, grid); they are never persisted.  Generation is keyed per
    (channel, path) block of a counter-based stream, so parallel generation by
    path reproduces the serial result bit for bit.  ``dW[j, k, n]`` is stored
    time-major; ``from_arrays`` builds a bundle around given increments.  Both
    are read-only: they are the solvers' common random numbers.  The initial
    states of a law are drawn once per bundle.
    """

    seed: int
    n_paths: int
    n_particles: int
    grid: TimeGrid
    dW: np.ndarray = field(init=False, repr=False)
    dW_common: np.ndarray = field(init=False, repr=False)
    _initial: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        m, k, n = self.n_paths, self.n_particles, self.grid.n_steps
        root = np.sqrt(self.grid.dt)
        dw = particle_array(m, k, n)
        dwc = np.empty((m, n))
        for j in range(m):
            # the draws keep their (k, n) order; writing through the transposes
            # stores whole contiguous rows of the time-major block
            draws = _block_rng(self.seed, _CH_IDIOSYNCRATIC, j).standard_normal((k, n))
            np.multiply(draws.T, root, out=dw[j].T)
            dwc[j] = _block_rng(self.seed, _CH_COMMON, j).standard_normal(n) * root
        dw.flags.writeable = dwc.flags.writeable = False
        self.dW, self.dW_common = dw, dwc

    @classmethod
    def from_arrays(cls, seed: int, grid: TimeGrid, dW: np.ndarray,
                    dW_common: np.ndarray) -> "NoiseBundle":
        """Bundle holding the given increments dW[j, k, n] and dW_common[j, n].

        ``dW`` is stored time-major (copied only if it is not already); ``seed``
        keys the initial-state draws.
        """
        # read-only views: the caller's arrays keep their flags
        dW, dW_common = time_major(dW).view(), np.asarray(dW_common, dtype=float).view()
        dW.flags.writeable = dW_common.flags.writeable = False
        m, k, n = dW.shape
        if dW_common.shape != (m, n) or n != grid.n_steps:
            raise SimulationError(
                f"increments {dW.shape} and {dW_common.shape} do not match a "
                f"{grid.n_steps}-step grid")
        bundle = cls.__new__(cls)
        bundle.seed, bundle.n_paths, bundle.n_particles, bundle.grid = seed, m, k, grid
        bundle.dW, bundle.dW_common = dW, dW_common
        bundle._initial = {}
        return bundle

    def window(self, n_lo: int, n_hi: int) -> "NoiseBundle":
        """The increments of steps n_lo..n_hi - 1 as views, on ``grid.subgrid(n_lo, n_hi)``."""
        return NoiseBundle.from_arrays(self.seed, self.grid.subgrid(n_lo, n_hi),
                                       self.dW[:, :, n_lo:n_hi], self.dW_common[:, n_lo:n_hi])

    def coarsened(self, f: int) -> "NoiseBundle":
        """The increments summed over each run of ``f`` steps, on a grid of n / f steps.

        Brownian increments aggregate exactly, and the seed is kept, so the
        initial-state draws are the same.
        """
        n, m, k = self.grid.n_steps, self.n_paths, self.n_particles
        if f < 1 or n % f:
            raise SimulationError(f"a {n}-step grid has no coarsening by {f}")
        grid = TimeGrid(self.grid.horizon, n // f, t0=self.grid.t0)
        dw = self.dW.transpose(2, 0, 1).reshape(n // f, f, m, k).sum(axis=1).transpose(1, 2, 0)
        dwc = self.dW_common.reshape(m, n // f, f).sum(axis=2)
        return NoiseBundle.from_arrays(self.seed, grid, dw, dwc)

    def initial_states(self, law: InitialLaw) -> np.ndarray:
        """Initial states (paths, particles) drawn from ``law`` once per bundle
        and law; every call returns a copy of its own."""
        drawn = self._initial.get(law)
        if drawn is None:
            drawn = self._initial[law] = self._draw_initial(law)
        return drawn.copy()

    def _draw_initial(self, law: InitialLaw) -> np.ndarray:
        m, k = self.n_paths, self.n_particles
        if law.kind == "constant":
            return np.full((m, k), float(law.mu))
        out = np.empty((m, k))
        for j in range(m):
            rng = _block_rng(self.seed, _CH_INITIAL, j)
            if law.kind == "normal":
                out[j] = law.mu + law.std * rng.standard_normal(k)
            else:
                idx = rng.integers(0, len(law.atoms), size=k)
                out[j] = np.asarray(law.atoms, dtype=float)[idx]
        return out


@dataclass
class InputPerturbation:
    """Exogenous input tables of the coefficient-scaled system.

    ``b``, ``sigma``, ``sigma_tilde`` add to the drift and the volatilities and
    ``f`` to the adjoint's driver, indexed [path, particle, step]; ``g``
    (path, particle) adds to the terminal condition.
    """

    b: np.ndarray
    sigma: np.ndarray
    sigma_tilde: np.ndarray
    f: np.ndarray
    g: np.ndarray


@dataclass
class OpenLoopControl:
    """Control table u[j, k, n] on grid intervals [t_n, t_{n+1}).

    A simulation never writes the table, and its ensemble holds it (time-major)
    as its controls.
    """

    table: np.ndarray


@dataclass
class FeedbackControl:
    """Closed-loop rule u = fn(step, t, states) on the (path, particle) states of one step."""

    fn: Callable[[int, float, np.ndarray], np.ndarray]

    def values(self, step: int, t: float, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.fn(step, t, x), dtype=float), x.shape).copy()


ControlRule = OpenLoopControl | FeedbackControl


@dataclass
class ParticleEnsemble:
    """States and controls of the particle system, with its empirical measure flow."""

    states: np.ndarray       # (n_paths, n_particles, n_nodes)
    controls: np.ndarray     # (n_paths, n_particles, n_nodes - 1)
    grid: TimeGrid

    @property
    def flow(self) -> MeasureFlow:
        return MeasureFlow(atoms=self.states, grid=self.grid)


def simulate_forward(spec: ModelSpec, rule: ControlRule, noise: NoiseBundle,
                     xi0: InitialLaw | None = None, *,
                     init_states: np.ndarray | None = None,
                     frozen_flow: MeasureFlow | None = None,
                     gamma: float = 1.0,
                     inputs: InputPerturbation | None = None) -> ParticleEnsemble:
    """Euler scheme for the conditional particle system on the grid of ``noise``.

    By default the measure argument of every coefficient is the live per-path
    empirical law (the conditional McKean-Vlasov case); passing ``frozen_flow``
    evaluates coefficients on a fixed flow instead, which must lie on the
    noise's grid.  ``gamma`` scales the model coefficients and the tables
    ``inputs.b``, ``inputs.sigma`` and ``inputs.sigma_tilde`` add to them:
    together they realize the coefficient-scaled systems used by the
    continuation solver.  The simulation is deterministic given the noise
    bundle.
    """
    grid = noise.grid
    if frozen_flow is not None and frozen_flow.grid != grid:
        raise SimulationError(f"frozen flow on {frozen_flow.grid} is not on the noise grid {grid}")
    if init_states is None:
        if xi0 is None:
            raise SimulationError("need an initial law or explicit initial states")
        init_states = noise.initial_states(xi0)
    m, k = init_states.shape
    if (m, k) != (noise.n_paths, noise.n_particles):
        raise SimulationError(
            f"initial states {(m, k)} do not match noise layout {(noise.n_paths, noise.n_particles)}")

    nodes = grid.nodes
    dt = grid.dt
    states = particle_array(m, k, grid.n_steps + 1)
    open_loop = isinstance(rule, OpenLoopControl)
    controls = time_major(rule.table) if open_loop else particle_array(m, k, grid.n_steps)
    if controls.shape != (m, k, grid.n_steps):
        raise SimulationError(f"control table {controls.shape} does not match the "
                              f"{(m, k, grid.n_steps)} particle layout")
    states[:, :, 0] = init_states

    for n in range(grid.n_steps):
        t = nodes[n]
        x = states[:, :, n]
        if frozen_flow is None:
            with np.errstate(over="ignore"):
                law = PathLaws(mean=x.mean(axis=1)[:, None], atoms=x)
        else:
            law = frozen_flow.at(n)
        if open_loop:
            u = controls[:, :, n]
        else:
            u = controls[:, :, n] = rule.values(n, t, x)

        with np.errstate(over="ignore", invalid="ignore"):
            drift = gamma * spec.drift.values(t, x, u, law)
            dvol = gamma * spec.vol.values(t, x, u, law)
            dvolc = gamma * spec.vol_common.values(t, x, u, law)
            if inputs is not None:
                drift = drift + inputs.b[:, :, n]
                dvol = dvol + inputs.sigma[:, :, n]
                dvolc = dvolc + inputs.sigma_tilde[:, :, n]
            nxt = x + drift * dt + dvol * noise.dW[:, :, n] + dvolc * noise.dW_common[:, n][:, None]
        if not np.all(np.isfinite(nxt)):
            j_bad, k_bad = np.argwhere(~np.isfinite(nxt))[0]
            raise SimulationError(
                f"non-finite state at step {n + 1} (t = {nodes[n + 1]:.6g}), path {j_bad}, "
                f"particle {k_bad}",
                step=n + 1, path=int(j_bad), particle=int(k_bad))
        states[:, :, n + 1] = nxt

    return ParticleEnsemble(states=states, controls=controls, grid=grid)
