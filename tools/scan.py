"""Robustness scan: seven configurations outside the smallness conditions, per solver.

    python3 tools/scan.py --tree . [--solver direct --solver stitched --solver continuation]

Imports the package from ``TREE/src`` (no bytecode written) and solves each
configuration at 16 x 32 x 40 (the stress case at 16 x 64 x 40), noise seed
3, tol 1e-3, initial law N(1, 0.5^2), with one BLAS thread unless the
environment sets another count.  The solvers are ``direct`` (one solve of
the full system), ``stitched`` and ``continuation``; the default is direct
and stitched, which take seconds, while continuation takes minutes.  Each
cell prints one table row: the outcome, the error class and the head of its
message, seconds, sweeps (backward passes), halvings (stitching's interval
halvings, or whether continuation fell back to its fine walk) and, when the
solve converges, the sha256 (first 16 hex digits) of the controls.  Run it
once per tree and compare every column but the seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# (preset, parameters, particles per path)
CONFIGS = [
    ("lq", {"b1": 3.0}, 32),
    ("lq", {"b2": 4.0, "cu": 0.05}, 32),
    ("quartic_control", {"b2": 2.0, "cu": 0.1}, 32),
    ("lq_drift_coupled", {"kappa": 3.0, "horizon": 3.0}, 32),
    ("lq_drift_coupled", {"kappa": 1.5, "horizon": 2.0}, 32),
    ("tanh_drift", {"kappa": 3.0, "horizon": 3.0}, 32),
    ("lq_drift_coupled", {"b2": 3.0, "cu": 0.2}, 64),
]
SOLVERS = ("direct", "stitched", "continuation")
_PATHS, _STEPS, _SEED, _TOL = 16, 40, 3, 1e-3
_HEAD = 100


def _counter(module, name: str, counts: dict) -> None:
    """Wrap ``module.name`` so that each call adds 1 to ``counts[name]``."""
    real = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    setattr(module, name, counting)


def _cell(name: str, params: dict, particles: int, solver: str, counts: dict) -> dict:
    from cnmfg.forward_sim import InitialLaw, NoiseBundle, TimeGrid
    from cnmfg.mfg_solvers import solve_continuation, solve_scaled_fbsde, solve_stitched
    from cnmfg.model import get_preset
    import numpy as np

    spec = get_preset(name, params).spec
    noise = NoiseBundle(seed=_SEED, n_paths=_PATHS, n_particles=particles,
                        grid=TimeGrid(spec.horizon, _STEPS))
    xi0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
    counts.update(solve_bsde_given_control=0, _run_stitch=0)
    row = {"outcome": "converges", "error": "", "halvings": "-", "controls": "-"}
    start = time.perf_counter()
    try:
        if solver == "direct":
            bundle = solve_scaled_fbsde(spec, 1.0, xi0, None, noise, tol=_TOL)
        elif solver == "stitched":
            bundle, _ = solve_stitched(spec, xi0, noise, tol=_TOL)
        else:
            bundle, state = solve_continuation(spec, xi0, noise, tol=_TOL)
            row["halvings"] = "fallback" if state.coarse_failure is not None else "none"
        row["controls"] = hashlib.sha256(
            np.ascontiguousarray(bundle.controls).tobytes()).hexdigest()[:16]
    except Exception as err:       # a crash in one cell is a result, not the end of the scan
        head = str(err).splitlines()[0] if str(err) else ""
        row.update(outcome="fails", error=f"{type(err).__name__}: {head[:_HEAD]}")
    row["seconds"] = f"{time.perf_counter() - start:.2f}"
    row["sweeps"] = counts["solve_bsde_given_control"]
    if solver == "stitched":
        row["halvings"] = counts["_run_stitch"] - 1
    return row


def scan(tree: Path, solvers: list[str]) -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "src"))
    from cnmfg import bsde, mfg_solvers

    counts: dict = {}
    _counter(bsde, "solve_bsde_given_control", counts)
    _counter(mfg_solvers, "_run_stitch", counts)
    columns = ["configuration", "solver", "outcome", "error", "seconds", "sweeps", "halvings",
               "controls"]
    print("| " + " | ".join(columns) + " |")
    print("|" + " --- |" * len(columns))
    for name, params, particles in CONFIGS:
        label = f"`{name}` " + ", ".join(f"{key}={value:g}" for key, value in params.items())
        if particles != 32:
            label += f" ({_PATHS} x {particles})"
        for solver in solvers:
            row = _cell(name, params, particles, solver, counts)
            row.update(configuration=label, solver=solver)
            print("| " + " | ".join(str(row[c]) for c in columns) + " |", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path("."),
                        help="root of the tree whose src to run (default .)")
    parser.add_argument("--solver", choices=SOLVERS, action="append",
                        help="solver to run, repeatable (default direct and stitched)")
    args = parser.parse_args(argv)
    scan(args.tree.resolve(), args.solver or ["direct", "stitched"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
