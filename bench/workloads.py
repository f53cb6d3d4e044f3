"""The benchmark workloads: inputs made from a seed, one timed operation, output checks.

Every call into the package goes through a module attribute
(``mfg_solvers.solve_scaled_fbsde``, ``cli.main``) and never through a name
imported into this file, so the hooks of a traced run see it.

A check never parses the bulk artifacts (ensemble and adjoint CSV): it reads
the returned arrays or the small JSON report, so a change of the artifact
format does not break the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from cnmfg import cli, forward_sim, lq_oracle, mfg_solvers, model, records

HERE = Path(__file__).resolve().parent

# initial law of the shipped configs
INITIAL_LAW = forward_sim.InitialLaw(kind="normal", mu=1.0, std=0.5)

# criterion-1 tolerance of the acceptance suite: relative rms error against the oracle
ORACLE_TOL = 0.03


@dataclass
class Outcome:
    """Result of the checks on one operation."""

    problems: list
    accuracy: dict            # name -> value of the accuracy figures
    fingerprint: str          # equal on every operation of one workload and seed


def _relative_rms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)) / max(float(np.sqrt(np.mean(b ** 2))), 1e-12))


def _numbers(node, key: str | None = None) -> list:
    """Every numeric leaf of a JSON document in key order, without the wall clock."""
    if key == "wall_clock_seconds":
        return []
    if isinstance(node, dict):
        return [x for k in sorted(node) for x in _numbers(node[k], k)]
    if isinstance(node, list):
        return [x for item in node for x in _numbers(item)]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [node]
    return []


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass(frozen=True)
class DirectSolve:
    """``solve_scaled_fbsde`` on a preset: the library call of one direct solve."""

    name: str
    preset: str
    gamma: float              # coupling scale; 1 is the full system
    n_paths: int
    n_particles: int
    n_steps: int
    tol: float
    oracle: bool              # compare with ``oracle_solution`` on the same noise
    foc_bound: float          # bound on the first-order-condition residual

    def setup(self, seed: int) -> SimpleNamespace:
        preset = model.get_preset(self.preset)
        grid = forward_sim.TimeGrid(preset.spec.horizon, self.n_steps)
        noise = forward_sim.NoiseBundle(seed=seed, n_paths=self.n_paths,
                                        n_particles=self.n_particles, grid=grid)
        return SimpleNamespace(preset=preset, noise=noise, oracle=None)

    def operation(self, inputs, out_dir: Path):
        return mfg_solvers.solve_scaled_fbsde(inputs.preset.spec, self.gamma, INITIAL_LAW, None,
                                              inputs.noise, tol=self.tol)

    def check(self, inputs, bundle) -> Outcome:
        problems = []
        residual = bundle.residual_history[-1]
        if not residual <= self.tol:
            problems.append(f"final residual {residual:.3e} above tol {self.tol:g}")
        foc = bundle.diagnostics["first_order_residual"]
        accuracy = {"foc_residual": foc}
        if not foc <= self.foc_bound:
            problems.append(f"foc_residual {foc:.3e} above {self.foc_bound:g}")
        if self.oracle:
            if inputs.oracle is None:
                inputs.oracle = lq_oracle.oracle_solution(inputs.preset.lq_params, inputs.noise,
                                                          INITIAL_LAW)
            accuracy["oracle_err_u"] = _relative_rms(bundle.controls, inputs.oracle.controls)
            accuracy["oracle_err_x"] = _relative_rms(bundle.states, inputs.oracle.states)
            for name in ("oracle_err_u", "oracle_err_x"):
                if not accuracy[name] <= ORACLE_TOL:
                    problems.append(f"{name} {accuracy[name]:.4f} above {ORACLE_TOL}")
        return Outcome(problems, accuracy, _digest(np.ascontiguousarray(bundle.controls).tobytes()))


@dataclass(frozen=True)
class CliRun:
    """``cnmfg.cli.main([command, ...])`` in-process on a config of this directory."""

    name: str
    command: str              # "solve" or "nash"
    config: Path

    def setup(self, seed: int) -> SimpleNamespace:
        # what ``main`` does before it solves: parse, build the preset, draw the noise
        cfg = records.RunConfig.load(self.config)
        cfg.seed = seed
        preset = model.get_preset(cfg.preset, cfg.preset_params)
        noise = forward_sim.NoiseBundle(seed=cfg.seed, n_paths=cfg.n_common,
                                        n_particles=cfg.n_particles, grid=cfg.grid())
        return SimpleNamespace(cfg=cfg, preset=preset, noise=noise, cost_oracle=None)

    def operation(self, inputs, out_dir: Path):
        argv = [self.command, "--config", str(self.config), "--seed", str(inputs.cfg.seed),
                "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return SimpleNamespace(code=code, out_dir=out_dir)

    def check(self, inputs, result) -> Outcome:
        if result.code != 0:
            return Outcome([f"exit code {result.code}"], {}, "")
        report_name = "report.json" if self.command == "solve" else "nash_report.json"
        try:
            report = json.loads((result.out_dir / report_name).read_text())
        except (OSError, json.JSONDecodeError) as err:
            return Outcome([f"{report_name} unreadable: {err}"], {}, "")
        fingerprint = _digest(repr(_numbers(report)).encode())
        check = self._check_solve if self.command == "solve" else self._check_nash
        problems, accuracy = check(inputs, report)
        return Outcome(problems, accuracy, fingerprint)

    def _check_solve(self, inputs, report):
        cfg = inputs.cfg
        tol = cfg.tol if cfg.tol is not None else inputs.preset.default_tol
        problems = []
        residual = report["residual_history"][-1]
        if not residual <= tol:
            problems.append(f"final residual {residual:.3e} above tol {tol:g}")
        accuracy = {"foc_residual": report["first_order_residual"]}
        if inputs.preset.lq_params is not None:
            if inputs.cost_oracle is None:
                inputs.cost_oracle = lq_oracle.lq_cost_oracle(inputs.preset.lq_params, cfg.law(),
                                                              cfg.grid())
            accuracy["cost_rel_err"] = (abs(report["extra"]["cost"] - inputs.cost_oracle)
                                        / abs(inputs.cost_oracle))
        return problems, accuracy

    def _check_nash(self, inputs, report):
        problems = []
        for n, estimates in report["estimates"].items():
            for est in estimates:
                if est["inconclusive"] or not (math.isfinite(est["gap"])
                                               and math.isfinite(est["stderr"])):
                    problems.append(f"N={n}: inconclusive or non-finite gap estimate")
        return problems, {}


WORKLOADS = {
    w.name: w for w in (
        DirectSolve("lq_desk", "lq", gamma=1.0, n_paths=64, n_particles=256, n_steps=25,
                    tol=1e-4, oracle=True, foc_bound=1e-3),
        # at full coupling the quartic solve has a slow phase of seed-dependent
        # length (18 to 60+ sweeps) and misses the 60-sweep cap on some seeds at
        # small sizes; at half coupling it takes 6 sweeps on every seed tried.
        # The desk ensemble per step with few steps: fewer, larger minimizer
        # calls made run-to-run times steadier than 32 x 128 x 50 on a shared host
        DirectSolve("quartic_newton", "quartic_control", gamma=0.5, n_paths=64,
                    n_particles=256, n_steps=12, tol=1e-3, oracle=False, foc_bound=1e-2),
        CliRun("cli_continuation", "solve", HERE / "cli_continuation.json"),
        CliRun("nash_small", "nash", HERE / "nash_small.json"),
    )
}
