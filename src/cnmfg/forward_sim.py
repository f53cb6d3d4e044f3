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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SimulationError
from .measures import MeasureFlow, particle_array, time_major
from .model import ModelSpec

# Philox counter offsets: one block per (channel, common path); blocks are far
# larger than any draw count so streams never overlap.
_PATH_STRIDE = 1 << 20
_CHANNEL_STRIDE = 1 << 40
_CH_IDIOSYNCRATIC, _CH_COMMON, _CH_INITIAL = 0, 1, 2


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 = t_0 < ... < t_N = t0 + span; top-level grids start at 0."""

    horizon: float
    n_steps: int
    t0: float = 0.0

    def __post_init__(self):
        if self.horizon <= 0 or self.n_steps < 1:
            raise SimulationError("grid needs positive horizon and at least one step")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return self.t0 + np.linspace(0.0, self.horizon, self.n_steps + 1)

    def subgrid(self, n_lo: int, n_hi: int) -> "TimeGrid":
        if not (0 <= n_lo < n_hi <= self.n_steps):
            raise SimulationError(f"invalid subgrid [{n_lo}, {n_hi}] of {self.n_steps} steps")
        span = n_hi - n_lo
        return TimeGrid(horizon=span * self.dt, n_steps=span, t0=self.nodes[n_lo])


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
    time-major; ``from_arrays`` builds a bundle around given increments.
    """

    seed: int
    n_paths: int
    n_particles: int
    grid: TimeGrid
    dW: np.ndarray = field(init=False, repr=False)
    dW_common: np.ndarray = field(init=False, repr=False)
    given: bool = field(init=False, default=False, repr=False)

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
        self.dW = dw
        self.dW_common = dwc

    @classmethod
    def from_arrays(cls, seed: int, grid: TimeGrid, dW: np.ndarray,
                    dW_common: np.ndarray) -> "NoiseBundle":
        """Bundle holding the given increments dW[j, k, n] and dW_common[j, n].

        ``dW`` is stored time-major (copied only if it is not already); ``seed``
        keys the initial-state draws.  ``meta()`` marks the increments as given
        and carries their digest, so it describes the noise the bundle holds.
        """
        dW = time_major(dW)
        dW_common = np.asarray(dW_common, dtype=float)
        m, k, n = dW.shape
        if dW_common.shape != (m, n) or n != grid.n_steps:
            raise SimulationError(
                f"increments {dW.shape} and {dW_common.shape} do not match a "
                f"{grid.n_steps}-step grid")
        bundle = cls.__new__(cls)
        bundle.seed, bundle.n_paths, bundle.n_particles, bundle.grid = seed, m, k, grid
        bundle.dW, bundle.dW_common, bundle.given = dW, dW_common, True
        return bundle

    def initial_states(self, law: InitialLaw) -> np.ndarray:
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

    def meta(self) -> dict:
        meta = {"seed": self.seed, "n_paths": self.n_paths,
                "n_particles": self.n_particles, "n_steps": self.grid.n_steps,
                "horizon": self.grid.horizon}
        if self.given:
            digest = hashlib.sha256(self.dW.transpose(2, 0, 1).tobytes())
            digest.update(np.ascontiguousarray(self.dW_common).tobytes())
            meta.update(increments="given", digest=digest.hexdigest()[:16])
        return meta


@dataclass
class OpenLoopControl:
    """Control table u[j, k, n] on grid intervals [t_n, t_{n+1})."""

    table: np.ndarray

    def values(self, step: int, t: float, x: np.ndarray, means: np.ndarray) -> np.ndarray:
        return self.table[:, :, step]


@dataclass
class FeedbackControl:
    """Closed-loop rule u = fn(step, t, states, conditional means)."""

    fn: Callable[[int, float, np.ndarray, np.ndarray], np.ndarray]

    def values(self, step: int, t: float, x: np.ndarray, means: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.fn(step, t, x, means), dtype=float), x.shape).copy()


ControlRule = OpenLoopControl | FeedbackControl


@dataclass
class ParticleEnsemble:
    """States and controls of the particle system, with its empirical measure flow."""

    states: np.ndarray       # (n_paths, n_particles, n_nodes)
    controls: np.ndarray     # (n_paths, n_particles, n_nodes - 1)
    grid: TimeGrid
    initial_law: InitialLaw | None = None

    @property
    def flow(self) -> MeasureFlow:
        return MeasureFlow(atoms=self.states, grid=self.grid)


@dataclass
class EnsembleStats:
    cond_mean: np.ndarray    # (n_paths, n_nodes)
    cond_var: np.ndarray
    pooled_mean: np.ndarray  # (n_nodes,)
    pooled_var: np.ndarray


def ensemble_statistics(ensemble: ParticleEnsemble) -> EnsembleStats:
    """Per-(path, node) conditional moments and pooled moments across paths."""
    s = ensemble.states
    return EnsembleStats(
        cond_mean=s.mean(axis=1),
        cond_var=s.var(axis=1),
        pooled_mean=s.mean(axis=(0, 1)),
        pooled_var=s.var(axis=(0, 1)),
    )


def _flow_node_stats(flow: MeasureFlow, n: int):
    means = flow.means[:, n][:, None]
    sqms = flow.second_moments[:, n][:, None]
    return means, sqms, flow.atoms[:, :, n]


def simulate_forward(spec: ModelSpec, rule: ControlRule, noise: NoiseBundle,
                     xi0: InitialLaw | None = None, *,
                     init_states: np.ndarray | None = None,
                     frozen_flow: MeasureFlow | None = None,
                     gamma: float = 1.0,
                     inputs: dict | None = None,
                     n_lo: int = 0, n_hi: int | None = None) -> ParticleEnsemble:
    """Euler scheme for the conditional particle system.

    By default the measure argument of every coefficient is the live per-path
    empirical law (the conditional McKean-Vlasov case); passing ``frozen_flow``
    evaluates coefficients on a fixed flow instead.  ``gamma`` scales the model
    coefficients and ``inputs`` adds exogenous tables (keys "b", "sigma",
    "sigma_tilde", arrays indexed [j, k, local step]) - together they realize
    the coefficient-scaled systems used by the continuation solver.  The
    simulation covers grid nodes ``n_lo`` to ``n_hi`` and is deterministic
    given the noise bundle.
    """
    grid = noise.grid
    n_hi = grid.n_steps if n_hi is None else n_hi
    span = n_hi - n_lo
    if span < 1:
        raise SimulationError("empty simulation span")
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
    states = particle_array(m, k, span + 1)
    controls = particle_array(m, k, span)
    states[:, :, 0] = init_states
    inputs = inputs or {}
    in_b = inputs.get("b")
    in_s = inputs.get("sigma")
    in_st = inputs.get("sigma_tilde")

    # frozen flows may cover the full grid (indexed by global node) or just the
    # simulated span (indexed locally)
    flow_is_local = frozen_flow is not None and frozen_flow.atoms.shape[2] == span + 1

    for step in range(span):
        n = n_lo + step
        t = nodes[n]
        x = states[:, :, step]
        if frozen_flow is None:
            with np.errstate(over="ignore"):
                means = x.mean(axis=1)[:, None]
                sqms = np.mean(x * x, axis=1)[:, None]
            atoms = x
        else:
            means, sqms, atoms = _flow_node_stats(frozen_flow, step if flow_is_local else n)
        u = rule.values(step, t, x, means[:, 0])
        controls[:, :, step] = u

        with np.errstate(over="ignore", invalid="ignore"):
            drift = gamma * spec.drift.values(t, x, u, means, sqms, atoms)
            dvol = gamma * spec.vol.values(t, x, u, means, sqms, atoms)
            dvolc = gamma * spec.vol_common.values(t, x, u, means, sqms, atoms)
            if in_b is not None:
                drift = drift + in_b[:, :, step]
            if in_s is not None:
                dvol = dvol + in_s[:, :, step]
            if in_st is not None:
                dvolc = dvolc + in_st[:, :, step]
            nxt = x + drift * dt + dvol * noise.dW[:, :, n] + dvolc * noise.dW_common[:, n][:, None]
        if not np.all(np.isfinite(nxt)):
            j_bad, k_bad = np.argwhere(~np.isfinite(nxt))[0]
            raise SimulationError(
                f"non-finite state at step {n + 1}, path {j_bad}, particle {k_bad}",
                step=n + 1, path=int(j_bad), particle=int(k_bad))
        states[:, :, step + 1] = nxt

    out_grid = grid if (n_lo, n_hi) == (0, grid.n_steps) else grid.subgrid(n_lo, n_hi)
    return ParticleEnsemble(states=states, controls=controls, grid=out_grid, initial_law=xi0)
