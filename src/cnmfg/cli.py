"""Command-line harness: solve, validate, compare-oracle, nash.

Exit codes: 0 success, 1 solver failure, 2 configuration error, 3 assumption
validation failure.  Every run is reproducible bit for bit from (config, seed).
``solve`` writes its solution arrays to ``solution.npz``, which ``--resume``
reads back bit for bit; series are CSV and summaries JSON.  Every artifact
carries the config hash and seed.
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import control_rms, solution_norm
from .errors import CnmfgError, ConfigError, ModelError, SolverError
from .forward_sim import NoiseBundle, TimeGrid
from .lq_oracle import lq_cost_oracle, oracle_solution, solve_riccati
from .model import (cost_functional, get_preset, preset_names, sufficient_condition_report,
                    validate_assumptions)
from .mfg_solvers import solve_continuation, solve_scaled_fbsde, solve_stitched
from .nplayer import FeedbackStrategy, gap_versus_n, population_cost_convergence
from .records import RunConfig, RunWriter, timer


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnmfg",
                                     description="Particle solvers for mean field games with common noise")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("solve", "run a solver and write solution artifacts"),
                      ("validate", "check structural assumptions and smallness conditions"),
                      ("compare-oracle", "benchmark solvers against the LQ closed form"),
                      ("nash", "estimate finite-player deviation gaps")):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        if name == "solve":
            cmd.add_argument("--resume", action="store_true",
                             help="warm-start from the controls in solution.npz of the output directory")
    return parser


def _load(args) -> RunConfig:
    cfg = RunConfig.load(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    cfg.validate()
    return cfg


def _setup(cfg: RunConfig):
    """The preset, the grid and the initial law of a run; the ensemble noise is drawn apart."""
    try:
        preset = get_preset(cfg.preset, cfg.preset_params)
    except ModelError as err:
        field = "preset" if cfg.preset not in preset_names() else "preset_params"
        raise ConfigError(str(err), field=field) from err
    return preset, cfg.grid(), cfg.law()


def _ensemble_noise(cfg: RunConfig, grid: TimeGrid) -> NoiseBundle:
    """The config's (n_common x n_particles) noise, drawn only by commands that simulate it."""
    return NoiseBundle(seed=cfg.seed, n_paths=cfg.n_common, n_particles=cfg.n_particles,
                       grid=grid)


def _load_resume_controls(cfg: RunConfig) -> np.ndarray:
    path = Path(cfg.output_dir) / "solution.npz"
    # np.load's failures: no file, an empty one, a bare .npy array, no zip,
    # no controls entry, an object array
    try:
        with np.load(path) as archive:
            controls = archive["controls"]
    except (OSError, EOFError, TypeError, ValueError, KeyError, zipfile.BadZipFile) as err:
        raise ConfigError(f"cannot read controls from {path}: {err}", field="resume") from err
    expected = (cfg.n_common, cfg.n_particles, cfg.n_steps)
    if (controls.dtype != np.float64 or controls.shape != expected
            or not np.isfinite(controls).all()):
        raise ConfigError(f"controls in {path} are {controls.dtype} {controls.shape}; the "
                          f"run needs finite float64 {expected}", field="resume")
    return controls


def cmd_solve(args) -> int:
    cfg = _load(args)
    preset, grid, xi0 = _setup(cfg)
    tol = cfg.tol if cfg.tol is not None else preset.default_tol
    writer = RunWriter(cfg.output_dir, cfg.config_hash(), cfg.seed)
    u0 = _load_resume_controls(cfg) if getattr(args, "resume", False) else None
    noise = _ensemble_noise(cfg, grid)

    t0 = timer()
    ratios: list = []
    schedule: list = []
    walk_steps = coarse_failure = None
    method = cfg.method
    if u0 is not None:
        # resuming re-solves the fully coupled system warm-started from the
        # stored controls; a converged run needs one more sweep
        method = "resume-direct"
        bundle = solve_scaled_fbsde(preset.spec, 1.0, xi0, None, noise, u0=u0,
                                    tol=tol, max_iter=cfg.max_iter)
    elif cfg.method == "continuation":
        bundle, state = solve_continuation(preset.spec, xi0, noise, eta0=cfg.eta0,
                                           tol=tol, max_iter_inner=cfg.max_iter)
        schedule = state.schedule()
        ratios = [s.ratio for s in state.steps]
        walk_steps, coarse_failure = state.walk_steps, state.coarse_failure
    elif cfg.method == "stitched":
        bundle, rep = solve_stitched(preset.spec, xi0, noise, tol=tol,
                                     interval_fraction=cfg.interval_fraction)
        schedule = [(float(b),) for b in rep.boundaries]
        ratios = rep.interval_ratios
    else:  # direct
        bundle = solve_scaled_fbsde(preset.spec, 1.0, xi0, None, noise, tol=tol,
                                    max_iter=cfg.max_iter)
    elapsed = timer() - t0

    report = {
        "method": method, "config": cfg.to_dict(), "config_hash": cfg.config_hash(),
        "seed": cfg.seed, "residual_history": bundle.residual_history,
        "contraction_ratios": ratios, "schedule": schedule,
        "condition_report": sufficient_condition_report(preset.spec).to_dict(),
        "first_order_residual": bundle.diagnostics.get("first_order_residual"),
        "solution_norm": solution_norm(bundle),
        "warnings": bundle.diagnostics.get("warnings", []),
        "wall_clock_seconds": elapsed, "artifact_version": __version__,
        "extra": {"iterations": bundle.diagnostics.get("iterations"),
                  "walk_steps": walk_steps, "coarse_failure": coarse_failure,
                  "cost": cost_functional(preset.spec, bundle),
                  "regression_r2_min": (float(np.min(bundle.diagnostics["r_squared"]))
                                        if "r_squared" in bundle.diagnostics else None)},
    }
    writer.npz("solution.npz", states=bundle.states, controls=bundle.controls, p=bundle.p,
               q=bundle.q, q_tilde=bundle.q_tilde)
    writer.csv("residuals.csv", ["iteration", "residual"],
               np.column_stack([np.arange(len(bundle.residual_history)), bundle.residual_history]))
    means = bundle.flow.means
    writer.csv("conditional_means.csv", ["path"] + [f"t{n}" for n in range(means.shape[1])],
               np.column_stack([np.arange(means.shape[0]), means]))
    if preset.lq_params is not None:
        writer.csv("riccati.csv", ["t", "a", "b", "c"],
                   solve_riccati(preset.lq_params, grid).export_rows())
    writer.json("report.json", report)
    stage = (f"stages={len(schedule)}" if schedule
             else f"iters={len(bundle.residual_history)}")
    print(f"solve[{method}] preset={cfg.preset} residual={bundle.residual_history[-1]:.3e} "
          f"{stage} wall={elapsed:.1f}s -> {cfg.output_dir}")
    return 0


def cmd_validate(args) -> int:
    cfg = _load(args)
    preset, _, _ = _setup(cfg)
    writer = RunWriter(cfg.output_dir, cfg.config_hash(), cfg.seed)
    report = validate_assumptions(preset.spec)
    conditions = sufficient_condition_report(preset.spec)
    for check in report.checks:
        print(f"assumption {check.name:22s} {'pass' if check.passed else 'FAIL'}")
    for name in ("continuation_ok", "uniqueness_ok", "small_interval_ok", "stitching_ok"):
        print(f"condition  {name:22s} {'satisfied' if getattr(conditions, name) else 'violated'}")
    writer.json("validation.json", {"assumptions": report.to_dict(),
                                    "conditions": conditions.to_dict()})
    return 0 if report.passed else 3


def _relative_rms(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.sqrt(np.mean(b ** 2)))
    return float(np.sqrt(np.mean((a - b) ** 2)) / max(scale, 1e-12))


def _oracle_errors(preset, cfg: RunConfig, n_steps: int, n_particles: int, seed: int,
                   tol: float) -> dict:
    grid = TimeGrid(cfg.horizon, n_steps)
    noise = NoiseBundle(seed=seed, n_paths=cfg.n_common, n_particles=n_particles, grid=grid)
    xi0 = cfg.law()
    oracle = oracle_solution(preset.lq_params, noise, xi0)
    bundle = solve_scaled_fbsde(preset.spec, 1.0, xi0, None, noise, tol=tol)
    return {"n_steps": n_steps, "n_particles": n_particles,
            "err_u": _relative_rms(bundle.controls, oracle.controls),
            "err_x": _relative_rms(bundle.states, oracle.states),
            "err_p": _relative_rms(bundle.p, oracle.p)}


def cmd_compare_oracle(args) -> int:
    cfg = _load(args)
    preset, grid, xi0 = _setup(cfg)
    if preset.lq_params is None:
        raise ConfigError(f"no oracle: preset {cfg.preset!r} is outside the LQ family",
                          field="preset")
    levels = cfg.oracle_levels
    if min(cfg.n_steps, cfg.n_particles) < 2 ** (levels - 1):
        raise ConfigError(f"{levels} refinement levels leave the coarsest without a time step "
                          f"or a particle", field="oracle_levels")
    tol = cfg.tol if cfg.tol is not None else preset.default_tol
    writer = RunWriter(cfg.output_dir, cfg.config_hash(), cfg.seed)
    noise = _ensemble_noise(cfg, grid)
    oracle = oracle_solution(preset.lq_params, noise, xi0)

    t0 = timer()
    cont, _ = solve_continuation(preset.spec, xi0, noise, eta0=cfg.eta0, tol=tol)
    stitch, _ = solve_stitched(preset.spec, xi0, noise, tol=tol,
                               interval_fraction=cfg.interval_fraction)
    rows = []
    for name, bundle in (("continuation", cont), ("stitched", stitch)):
        rows.append({"method": name,
                     "err_u": _relative_rms(bundle.controls, oracle.controls),
                     "err_x": _relative_rms(bundle.states, oracle.states)})
        print(f"{name:13s} err_u={rows[-1]['err_u']:.4f} err_x={rows[-1]['err_x']:.4f}")
    agreement = control_rms(cont.controls - stitch.controls, grid.dt, grid.horizon)
    scale = control_rms(oracle.controls, grid.dt, grid.horizon)

    # refinement studies (direct solves): halving the time step at fixed
    # particles, doubling particles on a finer grid to stay above the bias floor
    dt_rows = [_oracle_errors(preset, cfg, cfg.n_steps // (2 ** (levels - 1 - i)),
                              cfg.n_particles, cfg.seed, tol) for i in range(levels)]
    k_rows = [_oracle_errors(preset, cfg, 2 * cfg.n_steps,
                             cfg.n_particles // (2 ** (levels - 1 - i)), cfg.seed, tol)
              for i in range(levels)]
    elapsed = timer() - t0

    writer.csv("oracle_errors.csv", ["level", "n_steps", "n_particles", "err_u", "err_x"],
               np.array([[i, r["n_steps"], r["n_particles"], r["err_u"], r["err_x"]]
                         for i, r in enumerate(dt_rows + k_rows)]))
    writer.json("oracle_report.json", {
        "methods": rows,
        "method_agreement_rms": agreement,
        "method_agreement_relative": agreement / max(scale, 1e-12),
        "dt_refinement": dt_rows,
        "particle_refinement": k_rows,
        "oracle_cost": lq_cost_oracle(preset.lq_params, xi0, grid),
        "wall_clock_seconds": elapsed,
    })
    print(f"method agreement (relative): {agreement / max(scale, 1e-12):.4f}")
    for label, series in (("dt", dt_rows), ("particles", k_rows)):
        errs = [r["err_u"] for r in series]
        print(f"{label} refinement err_u: " + " -> ".join(f"{e:.4f}" for e in errs))
    return 0


def cmd_nash(args) -> int:
    cfg = _load(args)
    preset, grid, xi0 = _setup(cfg)
    tol = cfg.tol if cfg.tol is not None else preset.default_tol
    writer = RunWriter(cfg.output_dir, cfg.config_hash(), cfg.seed)
    if preset.lq_params is not None:
        strategy = FeedbackStrategy.from_riccati(solve_riccati(preset.lq_params, grid))
        source = "riccati"
    else:
        bundle, _ = solve_continuation(preset.spec, xi0, _ensemble_noise(cfg, grid), tol=tol)
        strategy = FeedbackStrategy.from_bundle(bundle)
        source = "continuation_bundle"

    t0 = timer()
    counts, seeds = cfg.player_counts, [cfg.seed + s for s in cfg.seeds]
    out = gap_versus_n(preset.spec, strategy, counts, grid, xi0, seeds,
                       n_replicas=cfg.n_replicas, n_copies=cfg.n_copies, solver_tol=tol)
    convergence = [population_cost_convergence(preset.spec, strategy, n, grid, xi0, seeds)
                   for n in counts]
    elapsed = timer() - t0

    rows = []
    for n in counts:
        for g in out["estimates"][n]:
            rows.append([n, g.gap, g.stderr, int(g.inconclusive)])
        print(f"N={n:4d} median gap={out['medians'][n]:+.5f}")
    writer.csv("nash_gaps.csv", ["n_players", "gap", "stderr", "inconclusive"], np.array(rows))
    writer.json("nash_report.json", {
        "strategy_source": source,
        "medians": {str(k): v for k, v in out["medians"].items()},
        "estimates": {str(n): [g.to_dict() for g in out["estimates"][n]] for n in counts},
        "population_cost_convergence": convergence,
        "wall_clock_seconds": elapsed,
    })
    return 0


_COMMANDS = {"solve": cmd_solve, "validate": cmd_validate,
             "compare-oracle": cmd_compare_oracle, "nash": cmd_nash}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        field = f" (field: {err.field})" if err.field else ""
        print(f"config error: {err}{field}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    except CnmfgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
