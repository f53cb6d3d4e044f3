"""Fingerprints of each benchmark workload's first instance, to compare two trees.

    python3 tools/fingerprints.py --tree . --seed 11 --seed 23

Imports the package from ``TREE/src`` and ``TREE/bench/workloads.py`` (read
only, no bytecode written) and runs each workload's first instance at each
seed through set-up, operation and check, as ``bench/run.py`` does.  It
prints one JSON object: per seed and workload, ``Outcome.fingerprint``, the
check's problems and the sha256 (first 16 hex digits) of the solution
arrays: for the library workloads the returned p, q, q_tilde and
``diagnostics["r_squared"]``, for the CLI ``solve`` workloads every array of
``solution.npz`` but its provenance.  A CLI fingerprint reads ``report.json``
whole, its ``config`` section included, so two trees whose configs differ
differ there even when their solutions are equal; the array hashes tell the
two apart.  Run it once per tree, each in its own process, and compare the
outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

# the BLAS pool as ``bench/run.py`` sizes it, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))


def _load_workloads(tree: Path):
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "src"))
    spec = importlib.util.spec_from_file_location("workloads", tree / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _sha(array) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _npz_shas(path: Path) -> dict:
    import numpy as np
    with np.load(path) as archive:
        return {key: _sha(archive[key]) for key in archive.files if key != "provenance"}


def fingerprints(tree: Path, seeds: list[int]) -> dict:
    workloads = _load_workloads(tree)
    out = {}
    for seed in seeds:
        for name, workload in workloads.WORKLOADS.items():
            inputs = workload.setup(seed)
            with tempfile.TemporaryDirectory() as tmp:
                result = workload.operation(inputs, Path(tmp) / name)
                outcome = workload.check(inputs, result)
                solution = Path(tmp) / name / "solution.npz"
                arrays = _npz_shas(solution) if solution.exists() else None
            entry = {"fingerprint": outcome.fingerprint, "problems": outcome.problems}
            if hasattr(result, "q_tilde"):
                entry.update(p=_sha(result.p), q=_sha(result.q), q_tilde=_sha(result.q_tilde),
                             r_squared=_sha(result.diagnostics["r_squared"]))
            if arrays is not None:
                entry["solution.npz"] = arrays
            out[f"{name}:seed{seed}"] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path("."),
                        help="root of the tree whose src and bench to run (default .)")
    parser.add_argument("--seed", type=int, action="append",
                        help="noise seed, repeatable (default 11)")
    args = parser.parse_args(argv)
    print(json.dumps(fingerprints(args.tree.resolve(), args.seed or [11]), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
