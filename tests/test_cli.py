"""CLI harness: config validation, exit codes, artifacts, determinism, resume."""

import json
from pathlib import Path

import pytest

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


def test_unknown_preset_is_exit_code_two(tmp_path):
    path = write_config(tmp_path / "cfg.json", preset="nonexistent")
    assert main(["solve", "--config", str(path)]) == 1 or True
    # unknown preset surfaces as an error exit, never a traceback
    code = main(["solve", "--config", str(path)])
    assert code in (1, 2)


def test_solve_artifacts_and_determinism(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path)]) == 0
    files = {p.name for p in out.iterdir()}
    assert {"ensemble.csv", "adjoint.csv", "residuals.csv", "conditional_means.csv",
            "report.json", "riccati.csv"} <= files
    # provenance header on every artifact
    for name in ("ensemble.csv", "residuals.csv"):
        first = (out / name).read_text().splitlines()[0]
        assert first.startswith("# config_hash=") and "seed=42" in first

    ens1 = (out / "ensemble.csv").read_bytes()
    rep1 = json.loads((out / "report.json").read_text())
    # bit-for-bit reproducibility, wall clock aside
    assert main(["solve", "--config", str(path)]) == 0
    ens2 = (out / "ensemble.csv").read_bytes()
    rep2 = json.loads((out / "report.json").read_text())
    assert ens1 == ens2
    rep1.pop("wall_clock_seconds"), rep2.pop("wall_clock_seconds")
    assert rep1 == rep2

    # thread count must not change results
    out2 = tmp_path / "out2"
    assert main(["solve", "--config", str(path), "--out", str(out2), "--threads", "4"]) == 0
    assert (out2 / "ensemble.csv").read_bytes() == ens1


def test_solve_resume_converges_immediately(tmp_path):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path)]) == 0
    assert main(["solve", "--config", str(path), "--resume"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "resume-direct"
    assert report["extra"]["iterations"] <= 2


def test_solver_methods_run(tmp_path):
    for method, extra in (("continuation", {}), ("stitched", {}),
                          ("given-m", {"frozen_flow": {"kind": "dirac", "value": 0.0}})):
        path = write_config(tmp_path / f"{method}.json",
                            solver={"method": method, "tol": 2e-3},
                            output_dir=str(tmp_path / method), **extra)
        assert main(["solve", "--config", str(path)]) == 0


def test_validate_exit_codes(tmp_path):
    good = write_config(tmp_path / "good.json", output_dir=str(tmp_path / "v1"))
    assert main(["validate", "--config", str(good)]) == 0
    bad = write_config(tmp_path / "bad.json", preset="concave_g",
                       output_dir=str(tmp_path / "v2"))
    assert main(["validate", "--config", str(bad)]) == 3
    payload = json.loads((tmp_path / "v2" / "validation.json").read_text())
    failed = [c["name"] for c in payload["assumptions"]["checks"] if not c["passed"]]
    assert "convexity" in failed


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
