"""Command-line harness: solve, validate, compare-oracle, nash.

Exit codes: 0 success, 1 solver failure, 2 configuration error, 3 assumption
validation failure.  Every run is reproducible bit for bit from (config, seed);
artifacts are CSV time series plus one JSON summary, each carrying the config
hash and seed in a header line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bsde import control_rms, solution_norm, solve_fbsde_frozen_flow, terminal_from_cost
from .errors import CnmfgError, ConfigError, SolverError
from .forward_sim import NoiseBundle, OpenLoopControl, TimeGrid, particle_array, simulate_forward
from .lq_oracle import lq_cost_oracle, oracle_solution, solve_riccati
from .measures import constant_flow, MeasureFlow
from .model import (cost_functional, get_preset, sufficient_condition_report, validate_assumptions)
from .mfg_solvers import solve_continuation, solve_scaled_fbsde, solve_stitched
from .nplayer import FeedbackStrategy, gap_versus_n, population_cost_convergence
from .records import RunConfig, RunWriter, SolverReport, adjoint_rows, ensemble_rows, timer


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
        cmd.add_argument("--threads", type=int, default=1,
                         help="accepted for interface compatibility; computation is vectorized")
        if name == "solve":
            cmd.add_argument("--resume", action="store_true",
                             help="warm-start from the controls of a previous run in the output directory")
    return parser


def _load(args) -> RunConfig:
    cfg = RunConfig.load(args.config)
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if args.out is not None:
        cfg.output_dir = str(args.out)
    return cfg


def _setup(cfg: RunConfig):
    preset = get_preset(cfg.preset, cfg.preset_params)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    noise = NoiseBundle(seed=cfg.seed, n_paths=cfg.n_common, n_particles=cfg.n_particles,
                        grid=grid)
    return preset, grid, noise, cfg.law()


def _load_resume_controls(cfg: RunConfig) -> np.ndarray | None:
    path = Path(cfg.output_dir) / "ensemble.csv"
    if not path.exists():
        return None
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    expected = cfg.n_common * cfg.n_particles * cfg.n_steps
    if data.shape[0] != expected:
        raise ConfigError("resume artifact does not match the configured ensemble layout",
                          field="resume")
    return data[:, 4].reshape(cfg.n_common, cfg.n_particles, cfg.n_steps)


def _frozen_flow(cfg: RunConfig, preset, noise, xi0):
    kind = cfg.frozen_flow["kind"]
    if kind == "dirac":
        return constant_flow(float(cfg.frozen_flow.get("value", 0.0)), noise.grid, cfg.n_common)
    # zero_control: the conditional particle flow under the null control
    m, k, n = cfg.n_common, cfg.n_particles, cfg.n_steps
    ens = simulate_forward(preset.spec, OpenLoopControl(particle_array(m, k, n, zeros=True)),
                           noise, xi0)
    return MeasureFlow(atoms=ens.states, grid=noise.grid)


def cmd_solve(args) -> int:
    cfg = _load(args)
    preset, grid, noise, xi0 = _setup(cfg)
    tol = cfg.tol if cfg.tol is not None else preset.default_tol
    writer = RunWriter(cfg.output_dir, cfg.config_hash(), cfg.seed)
    u0 = _load_resume_controls(cfg) if getattr(args, "resume", False) else None

    t0 = timer()
    ratios: list = []
    schedule: list = []
    method = cfg.method
    if u0 is not None:
        # resuming re-solves the fully coupled system warm-started from the
        # stored controls; a converged run needs at most one more outer sweep
        method = "resume-direct"
        bundle = solve_scaled_fbsde(preset.spec, 1.0, xi0, None, noise, u0=u0,
                                    tol=tol, max_iter=cfg.max_iter)
    elif cfg.method == "continuation":
        bundle, state = solve_continuation(preset.spec, xi0, noise, eta0=cfg.eta0,
                                           tol=tol, max_iter_inner=cfg.max_iter)
        schedule = state.schedule()
        ratios = [s.ratio for s in state.steps]
    elif cfg.method == "stitched":
        bundle, rep = solve_stitched(preset.spec, xi0, noise, tol=tol,
                                     interval_fraction=cfg.interval_fraction,
                                     global_passes=cfg.global_passes)
        schedule = [(float(b),) for b in rep.boundaries]
        ratios = rep.interval_ratios
    elif cfg.method == "given-m":
        flow = _frozen_flow(cfg, preset, noise, xi0)
        bundle = solve_fbsde_frozen_flow(preset.spec, flow, xi0, terminal_from_cost(preset.spec),
                                         noise, tol=tol, max_iter=cfg.max_iter)
    else:  # direct
        bundle = solve_scaled_fbsde(preset.spec, 1.0, xi0, None, noise, tol=tol,
                                    max_iter=cfg.max_iter)
    elapsed = timer() - t0

    report = SolverReport(
        method=method, config=cfg.to_dict(), config_hash=cfg.config_hash(), seed=cfg.seed,
        residual_history=bundle.residual_history, contraction_ratios=ratios, schedule=schedule,
        condition_report=sufficient_condition_report(preset.spec).to_dict(),
        first_order_residual=bundle.diagnostics.get("first_order_residual"),
        solution_norm=solution_norm(bundle),
        warnings=bundle.diagnostics.get("warnings", []),
        wall_clock_seconds=elapsed,
        extra={"iterations": bundle.diagnostics.get("iterations"),
               "cost": cost_functional(preset.spec, bundle),
               "regression_r2_min": (float(np.min(bundle.diagnostics["r_squared"]))
                                     if "r_squared" in bundle.diagnostics else None)},
    )
    writer.csv("ensemble.csv", ["path", "particle", "step", "state", "control"],
               ensemble_rows(bundle))
    writer.csv("adjoint.csv", ["path", "particle", "step", "p", "q", "q_tilde"],
               adjoint_rows(bundle))
    writer.csv("residuals.csv", ["iteration", "residual"],
               np.column_stack([np.arange(len(bundle.residual_history)), bundle.residual_history]))
    means = bundle.flow.means
    writer.csv("conditional_means.csv", ["path"] + [f"t{n}" for n in range(means.shape[1])],
               np.column_stack([np.arange(means.shape[0]), means]))
    if preset.lq_params is not None:
        writer.csv("riccati.csv", ["t", "a", "b", "c"],
                   solve_riccati(preset.lq_params, grid).export_rows())
    writer.json("report.json", report.to_dict())
    stage = (f"stages={len(schedule)}" if schedule
             else f"iters={len(bundle.residual_history)}")
    print(f"solve[{method}] preset={cfg.preset} residual={bundle.residual_history[-1]:.3e} "
          f"{stage} wall={elapsed:.1f}s -> {cfg.output_dir}")
    return 0


def cmd_validate(args) -> int:
    cfg = _load(args)
    preset, grid, noise, xi0 = _setup(cfg)
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
    preset, grid, noise, xi0 = _setup(cfg)
    if preset.lq_params is None:
        raise ConfigError(f"no oracle: preset {cfg.preset!r} is outside the LQ family",
                          field="preset")
    tol = cfg.tol if cfg.tol is not None else preset.default_tol
    writer = RunWriter(cfg.output_dir, cfg.config_hash(), cfg.seed)
    oracle = oracle_solution(preset.lq_params, noise, xi0)

    t0 = timer()
    cont, _ = solve_continuation(preset.spec, xi0, noise, eta0=cfg.eta0, tol=tol)
    stitch, _ = solve_stitched(preset.spec, xi0, noise, tol=tol,
                               interval_fraction=cfg.interval_fraction,
                               global_passes=cfg.global_passes)
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
    levels = max(cfg.oracle_levels, 1)
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
    preset, grid, noise, xi0 = _setup(cfg)
    tol = cfg.tol if cfg.tol is not None else preset.default_tol
    writer = RunWriter(cfg.output_dir, cfg.config_hash(), cfg.seed)
    if preset.lq_params is not None:
        strategy = FeedbackStrategy.from_riccati(solve_riccati(preset.lq_params, grid))
        source = "riccati"
    else:
        bundle, _ = solve_continuation(preset.spec, xi0, noise, tol=tol)
        strategy = FeedbackStrategy.from_bundle(bundle)
        source = "continuation_bundle"

    t0 = timer()
    counts = [int(n) for n in cfg.nash["player_counts"]]
    seeds = [cfg.seed + int(s) for s in cfg.nash["seeds"]]
    out = gap_versus_n(preset.spec, strategy, counts, grid, xi0, seeds,
                       n_replicas=int(cfg.nash["n_replicas"]),
                       n_copies=int(cfg.nash["n_copies"]), solver_tol=tol)
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
