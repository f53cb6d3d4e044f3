"""Run configuration and artifact writers.

A solve's arrays go to one ``.npz`` archive, read back bit for bit; series go
to CSV and each run's summary to JSON.  Every artifact carries the
configuration hash, seed and version: a header line in CSV, a ``provenance``
entry in ``.npz``, a ``_provenance`` key in JSON.

A configuration is one JSON object laid out as the schema table ``_SCHEMA``:
top-level keys and the sections ``grid``, ``ensemble``, ``initial_law``,
``solver`` and ``nash``, every key with one reader that is applied once, at
parse time.  A value its reader cannot take is a ``ConfigError`` naming the
key, and so is an unknown key: silently ignored tolerance typos are the
classic failure of numerical harnesses.  The keys of a section named like no
``RunConfig`` field are fields, so an absent key takes the field's default.
``initial_law`` is a field holding the keys given: a given section replaces
the default whole and names its kind.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, SimulationError
from .forward_sim import InitialLaw, TimeGrid


def _typed(kind, what: str):
    def read(value):
        if not isinstance(value, kind):
            raise TypeError(f"{type(value).__name__} is not {what}")
        return value
    return read


def _choice(*options: str):
    def read(value):
        if value not in options:
            raise ValueError(f"expected one of {options}")
        return value
    return read


_text, _list = _typed(str, "a string"), _typed((list, tuple), "a list")


def _ints(value) -> list:
    return [int(v) for v in _list(value)]


def _real(value) -> float:
    if not math.isfinite(value := float(value)):
        raise ValueError("not a finite number")
    return value


_SCHEMA = {
    "preset": _text,
    # parameter names and values are checked by ``get_preset``
    "preset_params": lambda v: dict(_typed(dict, "an object")(v)),
    "grid": {"horizon": _real, "n_steps": int},
    "ensemble": {"n_common": int, "n_particles": int},
    "initial_law": {"kind": _text, "mu": _real, "std": _real,
                    "atoms": lambda v: tuple(_real(a) for a in _list(v))},
    "solver": {"method": _choice("continuation", "stitched", "direct"),
               "tol": lambda v: None if v is None else _real(v), "max_iter": int,
               "eta0": _real, "interval_fraction": _real},
    "seed": int,
    "output_dir": _text,
    "nash": {"player_counts": _ints, "seeds": _ints, "n_replicas": int, "n_copies": int},
    "oracle_levels": int,
}


def _read(reader, value, where: str):
    if not isinstance(reader, dict):
        try:
            return reader(value)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"cannot read {where} = {value!r}: {err}", field=where) from err
    name = where or "config"
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object", field=name)
    for key in value:
        if key not in reader:
            raise ConfigError(f"unknown key {key!r} in {name}", field=f"{name}.{key}")
    return {key: _read(reader[key], v, f"{where}.{key}".lstrip(".")) for key, v in value.items()}


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
    seed: int = 42
    output_dir: str = "runs/out"
    player_counts: list = field(default_factory=lambda: [4, 16, 64, 256])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    n_replicas: int = 24
    n_copies: int = 128
    oracle_levels: int = 3

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        values = {}
        for name, value in _read(_SCHEMA, raw, "").items():
            if name not in cls.__dataclass_fields__:
                values.update(value)     # a section whose keys are fields
                continue
            if isinstance(_SCHEMA[name], dict) and "kind" not in value:
                raise ConfigError(f"missing required key 'kind' in {name}", field=f"{name}.kind")
            values[name] = value
        if "preset" not in values:
            raise ConfigError("missing required key 'preset' in config", field="config.preset")
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def validate(self):
        for name, build in (("grid", self.grid), ("initial_law", self.law)):
            try:
                build()
            except SimulationError as err:
                raise ConfigError(str(err), field=name) from err
        if self.n_common < 1 or self.n_particles < 1:
            raise ConfigError("ensemble sizes must be positive", field="ensemble")
        if self.tol is not None and self.tol <= 0:
            raise ConfigError("tolerance must be positive", field="solver.tol")
        if not 0 < self.eta0 <= 1:
            raise ConfigError("eta0 must lie in (0, 1]", field="solver.eta0")
        if not 0 < self.interval_fraction <= 1:
            raise ConfigError("interval fraction must lie in (0, 1]", field="solver.interval_fraction")
        # seeds key the noise; Nash standard errors (ddof=1) need two replicas and two seeds
        for key, what, value, least in (
                ("solver.max_iter", "max_iter", self.max_iter, 1),
                ("oracle_levels", "oracle_levels", self.oracle_levels, 1),
                ("seed", "the seed", self.seed, 0),
                ("nash.player_counts", "each player count", min(self.player_counts, default=0), 1),
                ("nash.seeds", "the number of seeds", len(self.seeds), 2),
                ("nash.seeds", "every seed", min(self.seeds, default=0), 0),
                ("nash.n_replicas", "n_replicas", self.n_replicas, 2),
                ("nash.n_copies", "n_copies", self.n_copies, 1)):
            if value < least:
                raise ConfigError(f"{what} must be at least {least}", field=key)

    def to_dict(self) -> dict:
        out = {}
        for name, reader in _SCHEMA.items():
            if name not in self.__dataclass_fields__:
                out[name] = {key: getattr(self, key) for key in reader}
            else:
                value = getattr(self, name)
                out[name] = dict(value) if isinstance(value, dict) else value
        return out

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
        return InitialLaw(**self.initial_law)

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

    def csv(self, name: str, columns: list[str], rows: np.ndarray):
        path = self.dir / name
        with open(path, "w") as fh:
            fh.write(f"# {self.provenance}\n")
            fh.write(",".join(columns) + "\n")
            np.savetxt(fh, np.atleast_2d(rows), delimiter=",", fmt="%.10g")
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
