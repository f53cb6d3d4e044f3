"""Empirical measures on the real line and exact 1-d quadratic transport distance.

Equal-weight empirical measures are the only measure representation in the
package: particle systems produce them, and in one dimension the quadratic
Wasserstein distance between equal-weight measures is exact via the sorted
(monotone) coupling.  Weighted inputs with a rational common denominator are
refined to equal weights before comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import MeasureError

if TYPE_CHECKING:
    from .forward_sim import ParticleEnsemble, TimeGrid

# Refinement guard: lcm expansion beyond this atom count is rejected.
_MAX_REFINED_ATOMS = 10_000_000


def particle_array(n_paths: int, n_atoms: int, n_nodes: int, *, zeros: bool = False) -> np.ndarray:
    """A (path, atom, node) array stored time-major, as memory (node, path, atom).

    Every per-node slice ``a[:, :, n]`` is then a C-contiguous (path, atom)
    block; indexing stays ``[j, k, n]``.
    """
    alloc = np.zeros if zeros else np.empty
    return alloc((n_nodes, n_paths, n_atoms)).transpose(1, 2, 0)


def time_major(a) -> np.ndarray:
    """``a`` as a float (path, atom, node) array stored time-major; no copy if it already is."""
    a = np.asarray(a, dtype=float)
    if a.transpose(2, 0, 1).flags.c_contiguous:
        return a
    return np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Equal-weight empirical measure (1/n) * sum_i delta_{x_i} on the real line."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        if atoms.size < 1:
            raise MeasureError("empirical measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise MeasureError("empirical measure atoms must be finite")
        object.__setattr__(self, "atoms", atoms)

    @property
    def n_atoms(self) -> int:
        return self.atoms.size

    @property
    def mean(self) -> float:
        return float(np.mean(self.atoms))

    def translated(self, c: float) -> "EmpiricalMeasure":
        return EmpiricalMeasure(self.atoms + c)


def second_moment(m: EmpiricalMeasure) -> float:
    """Mean of squared atoms; finite by construction, so m lies in the quadratic class."""
    return float(np.mean(m.atoms ** 2))


def _refine_to_common_size(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = m1.n_atoms, m2.n_atoms
    if n1 == n2:
        return m1.atoms, m2.atoms
    common = math.lcm(n1, n2)
    if common > _MAX_REFINED_ATOMS:
        raise MeasureError(
            f"incompatible supports: atom counts {n1} and {n2} have no tractable common refinement"
        )
    return np.repeat(m1.atoms, common // n1), np.repeat(m2.atoms, common // n2)


def wasserstein2(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """Exact quadratic Wasserstein distance between equal-weight empirical measures.

    In one dimension the monotone (sorted) coupling is optimal, so the distance
    is the root-mean-square difference of the sorted atom vectors.  Unequal atom
    counts are refined to the least common multiple first.
    """
    a, b = _refine_to_common_size(m1, m2)
    d = np.sort(a, kind="stable") - np.sort(b, kind="stable")
    return float(np.sqrt(np.mean(d ** 2)))


def pathspace_distance(paths1: np.ndarray, paths2: np.ndarray) -> float:
    """Monotone-coupling upper bound on the quadratic path-space distance.

    Inputs are arrays of sampled paths, shape (n_paths, n_nodes), on a common
    grid.  Paths are paired after sorting by (mean, terminal value) and the
    coupling cost uses the sup-over-grid difference per pair.  This is an
    upper-bound diagnostic only: the exact path-space distance would require a
    combinatorial optimal-transport solve and is never used inside solver
    convergence criteria.
    """
    p1 = np.atleast_2d(np.asarray(paths1, dtype=float))
    p2 = np.atleast_2d(np.asarray(paths2, dtype=float))
    if p1.shape != p2.shape:
        raise MeasureError(f"path sample shapes differ: {p1.shape} vs {p2.shape}")

    def _order(p):
        keys = np.lexsort((p[:, -1], p.mean(axis=1)))
        return p[keys]

    sup = np.max(np.abs(_order(p1) - _order(p2)), axis=1)
    return float(np.sqrt(np.mean(sup ** 2)))


def conditional_law(ensemble: "ParticleEnsemble", n: int, j: int) -> EmpiricalMeasure:
    """Empirical law of the particles sharing common path j at grid index n."""
    states = ensemble.states
    n_paths, _, n_nodes = states.shape
    if not (0 <= n < n_nodes) or not (0 <= j < n_paths):
        raise MeasureError(f"index out of range: step {n}, path {j}")
    return EmpiricalMeasure(states[j, :, n].copy())


# ---------------------------------------------------------------------------
# Measure flows: one empirical measure per (grid node, common path)
# ---------------------------------------------------------------------------


@dataclass
class MeasureFlow:
    """Per-node, per-common-path empirical measures backed by one atom array.

    ``atoms[j, :, n]`` holds the atoms of the measure for common path j at grid
    node n; the array is stored time-major (see ``particle_array``).  The atom
    count per measure is uniform but may differ from the particle count of an
    ensemble the flow is compared against.
    """

    atoms: np.ndarray
    grid: "TimeGrid"
    _means: np.ndarray | None = field(default=None, repr=False)
    _sqms: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 3:
            raise MeasureError("measure flow atoms must have shape (n_paths, n_atoms, n_nodes)")
        if atoms.shape[2] != self.grid.n_steps + 1:
            raise MeasureError(
                f"flow has {atoms.shape[2]} nodes but grid has {self.grid.n_steps + 1}"
            )
        self.atoms = time_major(atoms)

    @property
    def n_paths(self) -> int:
        return self.atoms.shape[0]

    def measure(self, n: int, j: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.atoms[j, :, n].copy())

    @property
    def means(self) -> np.ndarray:
        """Conditional means, shape (n_paths, n_nodes)."""
        if self._means is None:
            self._means = self.atoms.mean(axis=1)
        return self._means

    @property
    def second_moments(self) -> np.ndarray:
        if self._sqms is None:
            self._sqms = np.mean(self.atoms ** 2, axis=1)
        return self._sqms

    def node_distance(self, other: "MeasureFlow") -> float:
        """Sup over (node, path) of the per-node Wasserstein distance; solver metric."""
        if self.atoms.shape[0] != other.atoms.shape[0] or self.atoms.shape[2] != other.atoms.shape[2]:
            raise MeasureError("measure flows are not on a common (path, node) layout")
        a = np.sort(self.atoms, axis=1)
        b = np.sort(other.atoms, axis=1)
        if a.shape[1] != b.shape[1]:
            common = math.lcm(a.shape[1], b.shape[1])
            if common > _MAX_REFINED_ATOMS:
                raise MeasureError("incompatible supports between measure flows")
            a = np.repeat(a, common // a.shape[1], axis=1)
            b = np.repeat(b, common // b.shape[1], axis=1)
        w2_sq = np.mean((a - b) ** 2, axis=1)
        return float(np.sqrt(np.max(w2_sq)))


def constant_flow(value: float, grid: "TimeGrid", n_paths: int) -> MeasureFlow:
    """Flow of Dirac measures at a fixed value (one atom per measure)."""
    atoms = np.full((n_paths, 1, grid.n_steps + 1), float(value))
    return MeasureFlow(atoms=atoms, grid=grid)


# ---------------------------------------------------------------------------
# Couplings of two empirical measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coupling:
    """Joint weights over atom pairs of two equal-weight empirical measures."""

    weights: np.ndarray
    m1: EmpiricalMeasure
    m2: EmpiricalMeasure

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.m1.n_atoms, self.m2.n_atoms):
            raise MeasureError("coupling weight shape does not match marginal atom counts")
        if np.any(w < -1e-15):
            raise MeasureError("coupling weights must be nonnegative")
        row = w.sum(axis=1)
        col = w.sum(axis=0)
        if np.max(np.abs(row - 1.0 / self.m1.n_atoms)) > 1e-12 or np.max(np.abs(col - 1.0 / self.m2.n_atoms)) > 1e-12:
            raise MeasureError("coupling marginals do not reproduce the uniform weights")
        object.__setattr__(self, "weights", w)

    def transport_cost(self) -> float:
        """Quadratic transport cost of this coupling (root of the weighted squared gap)."""
        diff = self.m1.atoms[:, None] - self.m2.atoms[None, :]
        return float(np.sqrt(np.sum(self.weights * diff ** 2)))

    def expectation(self, fn) -> float:
        """Weighted expectation of fn(x, y) over the coupling."""
        x = self.m1.atoms[:, None]
        y = self.m2.atoms[None, :]
        return float(np.sum(self.weights * fn(x, y)))


def permutation_coupling(m1: EmpiricalMeasure, m2: EmpiricalMeasure, perm: np.ndarray) -> Coupling:
    n = m1.n_atoms
    if m2.n_atoms != n:
        raise MeasureError("permutation couplings need equal atom counts")
    w = np.zeros((n, n))
    w[np.arange(n), np.asarray(perm)] = 1.0 / n
    return Coupling(w, m1, m2)


def comonotone_coupling(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> Coupling:
    order1 = np.argsort(m1.atoms, kind="stable")
    order2 = np.argsort(m2.atoms, kind="stable")
    perm = np.empty_like(order1)
    perm[order1] = order2
    return permutation_coupling(m1, m2, perm)


def antithetic_coupling(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> Coupling:
    order1 = np.argsort(m1.atoms, kind="stable")
    order2 = np.argsort(m2.atoms, kind="stable")[::-1]
    perm = np.empty_like(order1)
    perm[order1] = order2
    return permutation_coupling(m1, m2, perm)


def independent_coupling(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> Coupling:
    w = np.full((m1.n_atoms, m2.n_atoms), 1.0 / (m1.n_atoms * m2.n_atoms))
    return Coupling(w, m1, m2)
