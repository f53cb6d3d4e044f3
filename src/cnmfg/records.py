"""Run configuration and artifact writers.

A solve's arrays go to one ``.npz`` archive, read back bit for bit; series go
to CSV and each run's summary to JSON.  Every artifact carries the
configuration hash, seed and version: a header line in CSV, a ``provenance``
entry in ``.npz``, a ``_provenance`` key in JSON.
Configurations parse strictly: unknown keys are errors, because silently
ignored tolerance typos are the classic failure of numerical harnesses.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .forward_sim import InitialLaw, TimeGrid

_GRID_KEYS = {"horizon", "n_steps"}
_ENSEMBLE_KEYS = {"n_common", "n_particles"}
_LAW_KEYS = {"kind", "mu", "std", "atoms"}
_SOLVER_KEYS = {"method", "tol", "max_iter", "eta0", "interval_fraction", "global_passes"}
_NASH_KEYS = {"player_counts", "seeds", "n_replicas", "n_copies"}
_FLOW_KEYS = {"kind", "value"}
_TOP_KEYS = {"preset", "preset_params", "grid", "ensemble", "initial_law", "solver",
             "seed", "output_dir", "nash", "frozen_flow", "oracle_levels"}

_METHODS = ("continuation", "stitched", "given-m", "direct")


def _require_keys(section: dict, allowed: set, where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}", field=f"{where}.{key}")


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}", field=f"{where}.{key}")
    return section[key]


@dataclass
class RunConfig:
    """Validated run configuration; round-trips through ``to_dict`` losslessly."""

    preset: str
    preset_params: dict = field(default_factory=dict)
    horizon: float = 1.0
    n_steps: int = 100
    n_common: int = 64
    n_particles: int = 256
    initial_law: dict = field(default_factory=lambda: {"kind": "normal", "mu": 1.0, "std": 0.5})
    method: str = "continuation"
    tol: float | None = None
    max_iter: int = 60
    eta0: float = 0.25
    interval_fraction: float = 0.25
    global_passes: int = 2
    seed: int = 42
    output_dir: str = "runs/out"
    nash: dict = field(default_factory=lambda: {"player_counts": [4, 16, 64, 256],
                                                "seeds": [0, 1, 2, 3, 4],
                                                "n_replicas": 24, "n_copies": 128})
    frozen_flow: dict = field(default_factory=lambda: {"kind": "dirac", "value": 0.0})
    oracle_levels: int = 3

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be an object")
        _require_keys(raw, _TOP_KEYS, "config")
        preset = _need(raw, "preset", "config")
        if not isinstance(preset, str):
            raise ConfigError("preset must be a string", field="preset")
        grid = raw.get("grid", {})
        _require_keys(grid, _GRID_KEYS, "grid")
        ensemble = raw.get("ensemble", {})
        _require_keys(ensemble, _ENSEMBLE_KEYS, "ensemble")
        law = dict(raw.get("initial_law", {"kind": "normal", "mu": 1.0, "std": 0.5}))
        _require_keys(law, _LAW_KEYS, "initial_law")
        solver = raw.get("solver", {})
        _require_keys(solver, _SOLVER_KEYS, "solver")
        nash = dict(cls.__dataclass_fields__["nash"].default_factory())
        nash.update(raw.get("nash", {}))
        _require_keys(nash, _NASH_KEYS, "nash")
        flow = dict(raw.get("frozen_flow", {"kind": "dirac", "value": 0.0}))
        _require_keys(flow, _FLOW_KEYS, "frozen_flow")

        cfg = cls(
            preset=preset,
            preset_params=dict(raw.get("preset_params", {})),
            horizon=float(grid.get("horizon", 1.0)),
            n_steps=int(grid.get("n_steps", 100)),
            n_common=int(ensemble.get("n_common", 64)),
            n_particles=int(ensemble.get("n_particles", 256)),
            initial_law=law,
            method=str(solver.get("method", "continuation")),
            tol=None if solver.get("tol") is None else float(solver["tol"]),
            max_iter=int(solver.get("max_iter", 60)),
            eta0=float(solver.get("eta0", 0.25)),
            interval_fraction=float(solver.get("interval_fraction", 0.25)),
            global_passes=int(solver.get("global_passes", 2)),
            seed=int(raw.get("seed", 42)),
            output_dir=str(raw.get("output_dir", "runs/out")),
            nash=nash,
            frozen_flow=flow,
            oracle_levels=int(raw.get("oracle_levels", 3)),
        )
        cfg.validate()
        return cfg

    def validate(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown solver method {self.method!r}; expected one of {_METHODS}",
                              field="solver.method")
        if self.horizon <= 0 or self.n_steps < 1:
            raise ConfigError("grid needs positive horizon and at least one step", field="grid")
        if self.n_common < 1 or self.n_particles < 1:
            raise ConfigError("ensemble sizes must be positive", field="ensemble")
        if self.tol is not None and self.tol <= 0:
            raise ConfigError("tolerance must be positive", field="solver.tol")
        if not 0 < self.eta0 <= 1:
            raise ConfigError("eta0 must lie in (0, 1]", field="solver.eta0")
        if not 0 < self.interval_fraction <= 1:
            raise ConfigError("interval fraction must lie in (0, 1]", field="solver.interval_fraction")
        if self.initial_law.get("kind") not in ("constant", "normal", "empirical"):
            raise ConfigError("initial law kind must be constant, normal, or empirical",
                              field="initial_law.kind")
        if self.frozen_flow.get("kind") not in ("dirac", "zero_control"):
            raise ConfigError("frozen flow kind must be dirac or zero_control",
                              field="frozen_flow.kind")

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "preset_params": dict(self.preset_params),
            "grid": {"horizon": self.horizon, "n_steps": self.n_steps},
            "ensemble": {"n_common": self.n_common, "n_particles": self.n_particles},
            "initial_law": dict(self.initial_law),
            "solver": {"method": self.method, "tol": self.tol, "max_iter": self.max_iter,
                       "eta0": self.eta0, "interval_fraction": self.interval_fraction,
                       "global_passes": self.global_passes},
            "seed": self.seed,
            "output_dir": self.output_dir,
            "nash": dict(self.nash),
            "frozen_flow": dict(self.frozen_flow),
            "oracle_levels": self.oracle_levels,
        }

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}")
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}")
        return cls.from_dict(raw)

    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.n_steps)

    def law(self) -> InitialLaw:
        law = dict(self.initial_law)
        kind = law.pop("kind")
        if kind == "empirical":
            return InitialLaw(kind=kind, atoms=tuple(law.get("atoms", ())))
        return InitialLaw(kind=kind, mu=float(law.get("mu", 0.0)), std=float(law.get("std", 1.0)))

    def config_hash(self) -> str:
        """Hash of what is computed; where the artifacts go is not part of it."""
        payload = self.to_dict()
        del payload["output_dir"]
        canon = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


class RunWriter:
    """Writes run artifacts, each carrying the provenance string of the run."""

    def __init__(self, out_dir: str | Path, config_hash: str, seed: int):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.provenance = f"config_hash={config_hash} seed={seed} version={__version__}"

    def csv(self, name: str, columns: list[str], rows: np.ndarray, fmt: str = "%.10g"):
        path = self.dir / name
        with open(path, "w") as fh:
            fh.write(f"# {self.provenance}\n")
            fh.write(",".join(columns) + "\n")
            np.savetxt(fh, np.atleast_2d(rows), delimiter=",", fmt=fmt)
        return path

    def npz(self, name: str, **arrays: np.ndarray):
        path = self.dir / name
        np.savez(path, provenance=np.array(self.provenance), **arrays)
        return path

    def json(self, name: str, payload: dict):
        path = self.dir / name
        text = json.dumps({"_provenance": self.provenance, **payload},
                          indent=2, sort_keys=True, default=_json_default)
        path.write_text(text + "\n")
        return path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def timer() -> float:
    return time.perf_counter()
