"""Tiny-scale self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from cnmfg import bsde  # noqa: E402

TINY_SOLVE = {"n_paths": 4, "n_particles": 16, "n_steps": 10, "tol": 1e-3}


def _tiny(name: str, tmp_path):
    w = workloads.WORKLOADS[name]
    if isinstance(w, workloads.DirectSolve):
        return dataclasses.replace(w, **TINY_SOLVE, foc_bound=1.0)
    raw = json.loads(w.config.read_text())
    raw["grid"]["n_steps"] = 10
    raw["ensemble"] = {"n_common": 4, "n_particles": 16}
    raw["solver"]["tol"] = 1e-2
    if "nash" in raw:
        raw["nash"] = {"player_counts": [4, 8], "seeds": [0, 1], "n_replicas": 4, "n_copies": 8}
    config = tmp_path / w.config.name
    config.write_text(json.dumps(raw))
    return dataclasses.replace(w, config=config)


def _traced_operation(w, tmp_path, seed=11, hooks=tracing.HOOKS):
    inputs = w.setup(seed)
    tracer = tracing.Tracer(hooks)
    tracer.install()
    try:
        result, root = tracer.operation(w.operation, inputs, tmp_path / "out")
    finally:
        tracer.uninstall()
    return tracer, root, result


def test_command_line_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = run.measure(_tiny(name, tmp_path), 11, 0.0, trace, tmp_path / "ops")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 2
    expected = (set(tracing.LAYER_METRICS) | {"trace.overhead_s", "trace.missing_hooks"}
                if trace else {"wall_s", "setup_s", "peak_rss_mb"})
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    json.dumps(result)


def test_sweep_counts_agree_on_the_direct_solve(tmp_path):
    w = _tiny("lq_desk", tmp_path)
    tracer, root, _ = _traced_operation(w, tmp_path)
    m = tracing.operation_metrics(tracer, root)
    assert m["bsde.sweeps"] > 0
    assert m["forward_sim.calls"] == m["bsde.sweeps"] == m["bsde.backward_calls"]
    assert m["model.minimizer_calls"] == m["bsde.sweeps"] * w.n_steps
    assert m["forward_sim.particle_steps"] == m["bsde.sweeps"] * 4 * 16 * 10


def test_records_count_every_file_written(tmp_path):
    tracer, root, result = _traced_operation(_tiny("cli_continuation", tmp_path), tmp_path)
    assert result.code == 0
    m = tracing.operation_metrics(tracer, root)
    files = list(result.out_dir.iterdir())
    assert m["records.files"] == len(files) > 0
    assert m["records.bytes"] == sum(f.stat().st_size for f in files)
    assert m["mfg_solvers.stages"] > 0
    assert m["mfg_solvers.stage_attempts"] >= m["mfg_solvers.stages"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_self_times_sum_to_the_traced_wall(name, tmp_path):
    tracer, root, _ = _traced_operation(_tiny(name, tmp_path), tmp_path)
    spans = [s for s in tracer.spans if s.op == root.op]
    assert len(spans) > 1
    assert sum(s.self_s for s in spans) == pytest.approx(root.duration, rel=1e-9, abs=1e-9)
    assert all(s.self_s >= -1e-9 for s in spans)


def test_missing_hook_leaves_its_layer_unmeasured(tmp_path):
    hooks = tracing.HOOKS + (tracing.Hook("cnmfg.bsde:no_such_function", "bsde"),)
    original = bsde.picard_solve
    tracer = tracing.Tracer(hooks)
    tracer.install()
    assert bsde.picard_solve is not original
    tracer.uninstall()
    assert tracer.missing == ["cnmfg.bsde.no_such_function"]
    assert bsde.picard_solve is original
    from cnmfg import mfg_solvers
    assert mfg_solvers.picard_solve is original


def test_renamed_argument_leaves_the_operation_untouched(tmp_path):
    w = _tiny("quartic_newton", tmp_path)
    hook = tracing.Hook("cnmfg.model:minimize_hamiltonian_values", "model", bind=True,
                        before=lambda tracer, args: args.arguments["no_such_argument"])
    tracer, root, bundle = _traced_operation(w, tmp_path, hooks=(hook,))
    assert w.check(w.setup(11), bundle).problems == []
    assert tracing.operation_metrics(tracer, root)["model.minimizer_calls"] > 0


def test_repeated_operations_give_one_fingerprint(tmp_path):
    w = _tiny("quartic_newton", tmp_path)
    inputs = w.setup(11)
    first = w.check(inputs, w.operation(inputs, tmp_path))
    second = w.check(inputs, w.operation(inputs, tmp_path))
    assert first.fingerprint == second.fingerprint
    assert first.problems == second.problems == []


def test_traced_run_survives_a_removed_hook(tmp_path, monkeypatch):
    from cnmfg import nplayer
    monkeypatch.delattr(nplayer, "gap_versus_n")
    result = run.measure(_tiny("quartic_newton", tmp_path), 11, 0.0, True, tmp_path / "ops")
    assert result["correct"]
    assert result["metrics"]["trace.missing_hooks"]["value"] == 1
    assert result["metrics"]["model.minimizer_calls"]["value"] > 0
