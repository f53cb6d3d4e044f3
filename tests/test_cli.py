"""CLI harness: config validation, exit codes, artifacts, determinism, resume."""

import json
from pathlib import Path

import numpy as np
import pytest

from cnmfg import cli
from cnmfg.cli import main
from cnmfg.errors import ConfigError
from cnmfg.records import RunConfig


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "preset": "lq",
        "grid": {"horizon": 1.0, "n_steps": 20},
        "ensemble": {"n_common": 8, "n_particles": 32},
        "initial_law": {"kind": "normal", "mu": 1.0, "std": 0.5},
        "solver": {"method": "direct", "tol": 2e-3},
        "seed": 42,
        "output_dir": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=1))
    return path


def test_config_round_trip_and_hash():
    cfg = RunConfig.from_dict({"preset": "lq", "seed": 7})
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert again.config_hash() == cfg.config_hash()
    cfg2 = RunConfig.from_dict({"preset": "lq", "seed": 8})
    assert cfg2.config_hash() != cfg.config_hash()
    # the output directory identifies where results go, not what was computed
    moved = RunConfig.from_dict({"preset": "lq", "seed": 7, "output_dir": "elsewhere"})
    assert moved.config_hash() == cfg.config_hash()


def test_unknown_keys_and_missing_preset_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_dict({"preset": "lq", "solver": {"tolerance": 1e-3}})
    with pytest.raises(ConfigError, match="missing required key 'preset'"):
        RunConfig.from_dict({})
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["solve", "--config", str(path)]) == 2
    path.write_text(json.dumps({"grid": {"horizon": 1.0}}))
    assert main(["solve", "--config", str(path)]) == 2


def test_unknown_preset_is_exit_code_two(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", preset="nonexistent")
    assert main(["solve", "--config", str(path)]) == 2
    assert "(field: preset)" in capsys.readouterr().err
    # a misspelt parameter name is rejected by name, never silently ignored
    path = write_config(tmp_path / "typo.json", preset_params={"kapa": 0.3})
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'kapa'" in err and "(field: preset_params)" in err


LAW = {"kind": "normal", "mu": 1.0, "std": 0.5}


@pytest.mark.parametrize("command, overrides, field", [
    ("solve", {"grid": 5}, "grid"),
    ("solve", {"grid": {"horizon": 1.0, "n_steps": "abc"}}, "grid.n_steps"),
    ("solve", {"seed": None}, "seed"),
    ("solve", {"solver": None}, "solver"),
    ("solve", {"initial_law": 3}, "initial_law"),
    ("solve", {"initial_law": dict(LAW, mu="x")}, "initial_law.mu"),
    ("solve", {"initial_law": dict(LAW, std=-1)}, "initial_law"),
    ("solve", {"initial_law": {"kind": "empirical"}}, "initial_law"),
    ("solve", {"oracle_levels": "x"}, "oracle_levels"),
    ("solve", {"preset_params": [1, 2]}, "preset_params"),
    ("solve", {"preset_params": {"b1": "x"}}, "preset_params"),
    ("solve", {"solver": {"method": "given-m"}, "frozen_flow": {"kind": "dirac", "value": "x"}},
     "frozen_flow.value"),
    ("nash", {"nash": {"n_replicas": "x"}}, "nash.n_replicas"),
    ("nash", {"nash": {"player_counts": 4}}, "nash.player_counts"),
    ("solve", {"solver": {"method": "direct", "max_iter": 0}}, "solver.max_iter"),
    ("solve", {"solver": {"method": "direct", "max_iter": -1}}, "solver.max_iter"),
    ("solve", {"solver": {"method": "stitched", "global_passes": 0}}, "solver.global_passes"),
    # values that leave a Nash estimate empty or its standard errors undefined
    ("nash", {"nash": {"player_counts": []}}, "nash.player_counts"),
    ("nash", {"nash": {"player_counts": [0]}}, "nash.player_counts"),
    ("nash", {"nash": {"player_counts": [-2]}}, "nash.player_counts"),
    ("nash", {"nash": {"n_replicas": 0}}, "nash.n_replicas"),
    ("nash", {"nash": {"n_replicas": 1}}, "nash.n_replicas"),
    ("nash", {"nash": {"n_copies": 0}}, "nash.n_copies"),
    ("nash", {"nash": {"seeds": [0]}}, "nash.seeds"),
    ("nash", {"nash": {"seeds": [0, -50]}}, "nash.seeds"),
    # a negative seed, in the config or as the override, and non-finite numbers
    ("solve", {"seed": -1}, "seed"),
    ("solve --seed -1", {}, "seed"),
    ("solve", {"grid": {"horizon": float("nan"), "n_steps": 20}}, "grid.horizon"),
    ("solve", {"grid": {"horizon": float("inf"), "n_steps": 20}}, "grid.horizon"),
    ("solve", {"solver": {"method": "direct", "tol": float("nan")}}, "solver.tol"),
    ("solve", {"initial_law": dict(LAW, mu=float("-inf"))}, "initial_law.mu"),
    ("solve", {"preset_params": {"b1": float("nan")}}, "preset_params"),
])
def test_malformed_values_are_config_errors(tmp_path, capsys, command, overrides, field):
    path = write_config(tmp_path / "cfg.json", **overrides)
    assert main([*command.split(), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"(field: {field})" in err
    assert "Traceback" not in err


def test_shipped_configs_load_and_round_trip():
    paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
    assert paths
    for path in paths:
        cfg = RunConfig.load(path)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.config_hash() == cfg.config_hash()


def test_dataclass_defaults_are_the_parse_defaults():
    assert RunConfig(preset="lq").to_dict() == RunConfig.from_dict({"preset": "lq"}).to_dict()


SOLUTION_KEYS = ("states", "controls", "p", "q", "q_tilde")


def load_solution(out: Path) -> dict:
    with np.load(out / "solution.npz") as archive:
        return {key: archive[key] for key in archive.files}


def test_solve_artifacts_and_determinism(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path)]) == 0
    files = {p.name for p in out.iterdir()}
    assert files == {"solution.npz", "residuals.csv", "conditional_means.csv", "report.json",
                     "riccati.csv"}
    # provenance on every artifact
    first = (out / "residuals.csv").read_text().splitlines()[0]
    assert first.startswith("# config_hash=") and "seed=42" in first
    sol1 = load_solution(out)
    provenance = str(sol1.pop("provenance"))
    assert provenance.startswith("config_hash=") and "seed=42" in provenance
    # every array at every node, in [j, k, n] order
    assert set(sol1) == set(SOLUTION_KEYS)
    assert sol1["states"].shape == sol1["p"].shape == (8, 32, 21)
    for key in ("controls", "q", "q_tilde"):
        assert sol1[key].shape == (8, 32, 20) and sol1[key].dtype == np.float64

    rep1 = json.loads((out / "report.json").read_text())
    assert set(rep1) == {"_provenance", "method", "config", "config_hash", "seed",
                         "residual_history", "contraction_ratios", "schedule",
                         "condition_report", "first_order_residual", "solution_norm",
                         "warnings", "wall_clock_seconds", "artifact_version", "extra"}
    assert set(rep1["extra"]) == {"iterations", "walk_steps", "coarse_failure", "cost",
                                  "regression_r2_min"}
    # bit-for-bit reproducibility, wall clock aside; the arrays are compared
    # rather than the archive bytes, whose zip members carry timestamps
    assert main(["solve", "--config", str(path)]) == 0
    sol2 = load_solution(out)
    rep2 = json.loads((out / "report.json").read_text())
    assert all(np.array_equal(sol1[key], sol2[key]) for key in SOLUTION_KEYS)
    rep1.pop("wall_clock_seconds"), rep2.pop("wall_clock_seconds")
    assert rep1 == rep2

    # the output directory must not change results
    out2 = tmp_path / "out2"
    assert main(["solve", "--config", str(path), "--out", str(out2)]) == 0
    sol3 = load_solution(out2)
    assert str(sol3["provenance"]) == provenance
    assert all(np.array_equal(sol1[key], sol3[key]) for key in SOLUTION_KEYS)


def test_solve_resume_converges_immediately(tmp_path):
    # a converged run reloads its controls bit for bit, so one sweep reproduces it
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path)]) == 0
    stored = json.loads((out / "report.json").read_text())
    stored_solution = load_solution(out)
    assert main(["solve", "--config", str(path), "--resume"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "resume-direct"
    assert report["extra"]["iterations"] == 1
    assert report["residual_history"] == stored["residual_history"][-1:]
    assert report["solution_norm"] == stored["solution_norm"]
    assert report["extra"]["cost"] == stored["extra"]["cost"]
    resumed = load_solution(out)
    assert all(np.array_equal(resumed[key], stored_solution[key]) for key in SOLUTION_KEYS)


@pytest.mark.parametrize("case", ["missing", "text", "empty", "npy", "truncated", "no_controls",
                                  "object", "integer", "float32", "nan", "shape"])
def test_resume_rejects_a_bad_archive(tmp_path, capsys, case):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    out.mkdir()
    archive = out / "solution.npz"
    good = np.zeros((8, 32, 20))
    if case == "text":
        archive.write_text("path,particle,step,state,control\n0,0,0,1.0,0.5\n")
    elif case == "empty":
        archive.write_bytes(b"")
    elif case == "npy":
        with open(archive, "wb") as fh:
            np.save(fh, good)
    elif case == "truncated":
        np.savez(archive, controls=good)
        archive.write_bytes(archive.read_bytes()[:200])
    elif case == "no_controls":
        np.savez(archive, states=good)
    elif case == "object":
        np.savez(archive, controls=np.array([None, 1.0], dtype=object))
    elif case == "integer":
        np.savez(archive, controls=np.zeros((8, 32, 20), dtype=int))
    elif case == "float32":
        np.savez(archive, controls=good.astype(np.float32))
    elif case == "nan":
        bad = good.copy()
        bad[0, 0, 0] = np.nan
        np.savez(archive, controls=bad)
    elif case == "shape":
        np.savez(archive, controls=np.zeros((8, 32, 19)))
    assert main(["solve", "--config", str(path), "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "solution.npz" in err
    assert "(field: resume)" in err and "Traceback" not in err
    # a failed resume never falls back to a fresh solve
    assert not (out / "report.json").exists()


def test_solver_methods_run(tmp_path):
    for method, extra in (("continuation", {}), ("stitched", {}),
                          ("given-m", {"frozen_flow": {"kind": "dirac", "value": 0.0}})):
        path = write_config(tmp_path / f"{method}.json",
                            solver={"method": method, "tol": 2e-3},
                            output_dir=str(tmp_path / method), **extra)
        assert main(["solve", "--config", str(path)]) == 0
        # continuation walks the 20-step grid on 1 step, and the coarse
        # attempt holds; the report says so
        report = json.loads((tmp_path / method / "report.json").read_text())
        assert report["extra"]["walk_steps"] == (1 if method == "continuation" else None)
        assert report["extra"]["coarse_failure"] is None


def test_validate_exit_codes(tmp_path):
    good = write_config(tmp_path / "good.json", output_dir=str(tmp_path / "v1"))
    assert main(["validate", "--config", str(good)]) == 0
    bad = write_config(tmp_path / "bad.json", preset="concave_g",
                       output_dir=str(tmp_path / "v2"))
    assert main(["validate", "--config", str(bad)]) == 3
    payload = json.loads((tmp_path / "v2" / "validation.json").read_text())
    failed = [c["name"] for c in payload["assumptions"]["checks"] if not c["passed"]]
    assert "convexity" in failed


def _strict_json(path: Path) -> dict:
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_quartic_f1_validates_and_solves_with_an_infinite_gronwall_constant(tmp_path, capsys):
    from cnmfg.model import get_preset, validate_assumptions

    # quartic_f1's structural constant puts exp(3 L^2 T (T + 4)) past float range
    kw = dict(preset="quartic_f1", grid={"horizon": 1.0, "n_steps": 12},
              ensemble={"n_common": 8, "n_particles": 16})
    verdict = validate_assumptions(get_preset("quartic_f1").spec).passed
    path = write_config(tmp_path / "v.json", output_dir=str(tmp_path / "v"), **kw)
    assert main(["validate", "--config", str(path)]) == (0 if verdict else 3)
    conditions = _strict_json(tmp_path / "v" / "validation.json")["conditions"]
    assert conditions["C1"] is None and conditions["delta_continuation"] == 0.0
    path = write_config(tmp_path / "s.json", output_dir=str(tmp_path / "s"), **kw)
    assert main(["solve", "--config", str(path)]) == 0
    assert _strict_json(tmp_path / "s" / "report.json")["condition_report"]["C2"] is None
    assert (tmp_path / "s" / "solution.npz").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_compare_oracle_requires_lq(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", preset="tanh_drift",
                        output_dir=str(tmp_path / "oc"))
    assert main(["compare-oracle", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "no oracle" in err


def test_compare_oracle_small_scale(tmp_path):
    path = write_config(tmp_path / "cfg.json",
                        grid={"horizon": 1.0, "n_steps": 16},
                        ensemble={"n_common": 8, "n_particles": 48},
                        solver={"method": "direct", "tol": 2e-3},
                        oracle_levels=2,
                        output_dir=str(tmp_path / "oc"))
    assert main(["compare-oracle", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "oc" / "oracle_report.json").read_text())
    assert set(payload) >= {"methods", "dt_refinement", "particle_refinement",
                            "method_agreement_rms"}
    assert (tmp_path / "oc" / "oracle_errors.csv").exists()


def test_nash_command_small_scale(tmp_path):
    path = write_config(tmp_path / "cfg.json",
                        grid={"horizon": 1.0, "n_steps": 16},
                        ensemble={"n_common": 8, "n_particles": 32},
                        solver={"method": "direct", "tol": 2e-3},
                        nash={"player_counts": [2, 8], "seeds": [0, 1],
                              "n_replicas": 8, "n_copies": 32},
                        output_dir=str(tmp_path / "nash"))
    assert main(["nash", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "nash" / "nash_report.json").read_text())
    assert set(payload["medians"]) == {"2", "8"}
    assert (tmp_path / "nash" / "nash_gaps.csv").exists()


def test_nash_and_validate_draw_no_ensemble_noise(tmp_path, monkeypatch):
    drawn = []
    real = cli.NoiseBundle

    def recording(*args, **kw):
        bundle = real(*args, **kw)
        drawn.append((bundle.n_paths, bundle.n_particles))
        return bundle

    monkeypatch.setattr(cli, "NoiseBundle", recording)
    ensemble = (6, 40)
    path = write_config(tmp_path / "cfg.json",
                        grid={"horizon": 1.0, "n_steps": 12},
                        ensemble={"n_common": ensemble[0], "n_particles": ensemble[1]},
                        nash={"player_counts": [2, 4], "seeds": [0, 1],
                              "n_replicas": 8, "n_copies": 16})
    # an LQ nash run plays its games under the Riccati feedback
    assert main(["nash", "--config", str(path)]) == 0
    assert main(["validate", "--config", str(path)]) == 0
    assert drawn == []
    # the recorder sees the draw of a command that simulates the ensemble
    assert main(["solve", "--config", str(path)]) == 0
    assert drawn == [ensemble]
    bad = write_config(tmp_path / "bad.json", preset="nonexistent")
    for command in ("nash", "validate"):
        assert main([command, "--config", str(bad)]) == 2
