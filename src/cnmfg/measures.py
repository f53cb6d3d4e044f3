"""Empirical measures on the real line, their flows, and exact 1-d quadratic transport distance.

Equal-weight empirical measures are the only measure representation in the
package: particle systems produce them, one per (grid node, common path) in a
``MeasureFlow``, and in one dimension the quadratic Wasserstein distance
between equal-weight measures is exact via the sorted (monotone) pairing of
their atoms.  Measures are compared only at equal atom counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import MeasureError

if TYPE_CHECKING:
    from .forward_sim import TimeGrid

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


def wasserstein2(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """Exact quadratic Wasserstein distance between equal-weight empirical measures.

    In one dimension the monotone (sorted) coupling is optimal, so the distance
    is the root-mean-square difference of the sorted atom vectors.  Unequal atom
    counts raise MeasureError.
    """
    if m1.n_atoms != m2.n_atoms:
        raise MeasureError(f"atom counts {m1.n_atoms} and {m2.n_atoms} differ")
    d = np.sort(m1.atoms, kind="stable") - np.sort(m2.atoms, kind="stable")
    return float(np.sqrt(np.mean(d ** 2)))


# ---------------------------------------------------------------------------
# Measure flows: one empirical measure per (grid node, common path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathLaws:
    """The conditional laws of all common paths at one grid node.

    ``mean`` has shape (n_paths, 1) and ``atoms`` shape (n_paths, n_atoms):
    the same two attributes an ``EmpiricalMeasure`` has, batched over paths so
    that a measure-dependent callable broadcasts against (path, particle)
    arrays.  Fields are stored as given, without copies or checks.
    """

    mean: np.ndarray
    atoms: np.ndarray


@dataclass
class MeasureFlow:
    """Per-node, per-common-path empirical measures backed by one atom array.

    ``atoms[j, :, n]`` holds the atoms of the measure for common path j at grid
    node n; the array is stored time-major (see ``particle_array``).  The atom
    count per measure is uniform (a Dirac flow has one atom).  Atoms are never
    written after a flow is built, so its means and sorted atoms are computed
    once, on first use, and kept: a solver comparing each sweep's flow with
    the last sorts each flow it compares once.  ``picard_solve`` compares
    flows only near its damping floor, so most solves sort none.
    """

    atoms: np.ndarray
    grid: "TimeGrid"
    _means: np.ndarray | None = field(default=None, repr=False)
    _sorted: np.ndarray | None = field(default=None, repr=False, compare=False)

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

    @property
    def means(self) -> np.ndarray:
        """Conditional means, shape (n_paths, n_nodes)."""
        if self._means is None:
            self._means = self.atoms.mean(axis=1)
        return self._means

    def at(self, n: int) -> PathLaws:
        """The per-path laws at grid node n, as one batched measure argument."""
        if not 0 <= n < self.atoms.shape[2]:
            raise MeasureError(f"node {n} outside 0..{self.atoms.shape[2] - 1}")
        return PathLaws(mean=self.means[:, n, None], atoms=self.atoms[:, :, n])

    def node_distance(self, other: "MeasureFlow") -> float:
        """Sup over (node, path) of the W2 distance between flows of one shape; solver metric."""
        if self.atoms.shape != other.atoms.shape:
            raise MeasureError("measure flows are not on a common (path, atom, node) layout")
        for flow in (self, other):
            if flow._sorted is None:
                flow._sorted = np.sort(flow.atoms, axis=1)
        w2_sq = np.mean((self._sorted - other._sorted) ** 2, axis=1)
        return float(np.sqrt(np.max(w2_sq)))


def constant_flow(value: float, grid: "TimeGrid", n_paths: int) -> MeasureFlow:
    """Flow of Dirac measures at a fixed value (one atom per measure)."""
    atoms = np.full((n_paths, 1, grid.n_steps + 1), float(value))
    return MeasureFlow(atoms=atoms, grid=grid)

