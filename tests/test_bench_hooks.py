"""The benchmark's tracer still finds every package function it times, and its checks pass.

``bench/tracing.py`` hooks public ``cnmfg`` functions by name and binds some
of their arguments by name; a hook whose target is renamed is skipped and its
layer counter reads zero without any error.  ``bench/workloads.py`` checks
each operation's output, the CLI's through its report.  These tests load both
from their files (read-only, no bytecode written) and fail on such a rename
or on an artifact or report change that a workload check rejects.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# arguments the hooks' readers take from the bound call, per bound hook
BOUND_ARGUMENTS = {
    "cnmfg.mfg_solvers:solve_scaled_fbsde": ("gamma", "u0"),
    "cnmfg.model:minimize_hamiltonian_values": ("spec",),
}

# counters that a run with no inconclusive Nash estimate may leave at zero; the
# flow distance is taken only near the damping floor, which the tiny CLI solve
# never reaches (test_flow_distance_counter_moves_on_a_diverging_solve checks it)
MAY_BE_ZERO = {"nplayer.inconclusive", "measures.node_distance_calls"}


def _load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses resolve annotations through it
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    yield module
    del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tracing():
    yield from _load_bench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    yield from _load_bench_module("workloads")


def _resolve(target: str):
    module_name, attr = target.split(":")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_hook_target_resolves(tracing):
    for hook in tracing.HOOKS:
        assert callable(_resolve(hook.target)), hook.target
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


def test_a_renamed_function_is_reported_missing(tracing, monkeypatch):
    # the check above is not vacuous: a hooked name that is gone is reported
    from cnmfg import bsde
    monkeypatch.delattr(bsde, "solve_bsde_given_control")
    monkeypatch.delattr(bsde, "picard_solve")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert sorted(tracer.missing) == ["cnmfg.bsde.picard_solve",
                                      "cnmfg.bsde.solve_bsde_given_control"]


def test_bound_arguments_exist(tracing):
    bound = {hook.target for hook in tracing.HOOKS if hook.bind}
    assert bound == set(BOUND_ARGUMENTS)
    for target, names in BOUND_ARGUMENTS.items():
        parameters = inspect.signature(_resolve(target)).parameters
        for name in names:
            assert name in parameters, f"{target} has no argument {name!r}"


def _tiny_config(tmp_path, command: str) -> Path:
    raw = {"preset": "lq", "grid": {"horizon": 1.0, "n_steps": 6},
           "ensemble": {"n_common": 4, "n_particles": 16},
           "initial_law": {"kind": "normal", "mu": 1.0, "std": 0.5},
           "solver": {"method": "continuation", "tol": 1e-2, "eta0": 0.5}, "seed": 11,
           "nash": {"player_counts": [4], "seeds": [0, 1], "n_replicas": 4, "n_copies": 8}}
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(raw))
    return path


def test_every_layer_counter_moves_on_the_cli(tracing, tmp_path):
    # calls go through the module attribute, which the tracer rebinds
    cli = importlib.import_module("cnmfg.cli")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = [tracer.operation(cli.main, [command, "--config", str(_tiny_config(tmp_path, command)),
                                           "--out", str(tmp_path / command)])
               for command in ("solve", "nash")]
    finally:
        tracer.uninstall()
    assert [code for code, _ in ops] == [0, 0]
    metrics = [tracing.operation_metrics(tracer, root) for _, root in ops]
    zero = [name for name in tracing.COUNT_METRICS
            if name not in MAY_BE_ZERO and max(m[name] for m in metrics) == 0]
    assert zero == []


def test_flow_distance_counter_moves_on_a_diverging_solve(tracing):
    # far outside the smallness conditions the damping reaches its floor, where
    # the divergence guard reads the flow distances
    bsde = importlib.import_module("cnmfg.bsde")
    from cnmfg.errors import SolverError
    from cnmfg.forward_sim import InitialLaw, NoiseBundle, TimeGrid
    from cnmfg.model import get_preset

    spec = get_preset("lq", {"b2": 4.0, "cu": 0.05}).spec
    noise = NoiseBundle(seed=3, n_paths=16, n_particles=32, grid=TimeGrid(1.0, 40))

    def diverging_solve():
        with pytest.raises(SolverError, match="measure flow diverging"):
            bsde.picard_solve(spec, noise, bsde.terminal_from_cost(spec),
                              xi0=InitialLaw(kind="normal", mu=1.0, std=0.5), tol=1e-3)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, root = tracer.operation(diverging_solve)
    finally:
        tracer.uninstall()
    assert tracing.operation_metrics(tracer, root)["measures.node_distance_calls"] > 0


def test_workload_checks_pass_on_tiny_operations(workloads, tmp_path):
    # the three kinds of operation at toy sizes: a CLI solve, a CLI nash and a
    # library direct solve; each check must find no problem
    ops = [workloads.CliRun("tiny_solve", "solve", _tiny_config(tmp_path, "solve")),
           workloads.CliRun("tiny_nash", "nash", _tiny_config(tmp_path, "nash")),
           workloads.DirectSolve("tiny_direct", "lq", gamma=1.0, n_paths=8, n_particles=32,
                                 n_steps=10, tol=2e-3, oracle=False, foc_bound=1e-2)]
    for op in ops:
        inputs = op.setup(11)
        outcome = op.check(inputs, op.operation(inputs, tmp_path / op.name))
        assert outcome.problems == [], op.name
        assert outcome.fingerprint, op.name
