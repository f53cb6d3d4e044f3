"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Desk scale throughout: 64 common paths, 256 particles per path, 100 time
steps, horizon 1.  Expensive solves are shared through module-scope fixtures;
each criterion prints a PASS/FAIL line with its headline numbers.
"""

import itertools

import numpy as np
import pytest

from cnmfg.bsde import control_rms, terminal_from_cost, picard_solve
from cnmfg.forward_sim import InitialLaw, NoiseBundle, OpenLoopControl, TimeGrid, simulate_forward
from cnmfg.lq_oracle import oracle_solution, solve_riccati
from cnmfg.measures import EmpiricalMeasure, wasserstein2
from cnmfg.model import (SHIPPED_PRESETS, get_preset, minimize_hamiltonian,
                         minimize_hamiltonian_values, per_sample_costs,
                         sufficient_condition_report, validate_assumptions)
from cnmfg.mfg_solvers import solve_continuation, solve_scaled_fbsde, solve_stitched, uniqueness_check
from cnmfg.nplayer import FeedbackStrategy, gap_versus_n

pytestmark = pytest.mark.acceptance

SEED = 11
GRID = TimeGrid(1.0, 100)
XI0 = InitialLaw(kind="normal", mu=1.0, std=0.5)
ORACLE_RTOL = 0.03          # criterion 1 tolerance, also anchors criterion 9


def _report(num: int, passed: bool, detail: str):
    print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _noise():
    return NoiseBundle(seed=SEED, n_paths=64, n_particles=256, grid=GRID)


def _rel(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(b ** 2)))


@pytest.fixture(scope="module")
def solutions():
    """Both solvers on every shipped preset at desk scale (slimmed records)."""
    out = {}
    for name in SHIPPED_PRESETS:
        preset = get_preset(name)
        tol = preset.default_tol
        noise = _noise()
        cont, state = solve_continuation(preset.spec, XI0, noise, tol=tol)
        stitch, rep = solve_stitched(preset.spec, XI0, noise, tol=tol)
        entry = {
            "tol": tol,
            "preset": preset,
            "continuation_controls": cont.controls,
            "continuation_ratios": [s.ratio for s in state.steps],
            "stitched_controls": stitch.controls,
            "cold_ratios": rep.cold_backward_ratios,
            "all_ratios": rep.interval_ratios,
            "fields": rep.fields,
        }
        if name == "lq":
            entry["continuation_bundle"] = cont
            entry["stitched_bundle"] = stitch
            entry["oracle"] = oracle_solution(preset.lq_params, noise, XI0)
        out[name] = entry
    return out


def test_criterion_1_lq_oracle_equivalence(solutions):
    entry = solutions["lq"]
    oracle = entry["oracle"]
    errs = {}
    for method in ("continuation", "stitched"):
        bundle = entry[f"{method}_bundle"]
        errs[method] = (_rel(bundle.controls, oracle.controls),
                        _rel(bundle.states, oracle.states))
    ok = all(eu <= ORACLE_RTOL and ex <= ORACLE_RTOL for eu, ex in errs.values())

    # refinement: each level halves the time step and doubles the particle
    # count; on shared noise the error is regression-dominated, and the joint
    # path is the standard particle refinement
    preset = entry["preset"]
    trend_u, trend_x = [], []
    for n_steps, n_particles in ((25, 64), (50, 128), (100, 256)):
        grid = TimeGrid(1.0, n_steps)
        noise = NoiseBundle(seed=SEED, n_paths=64, n_particles=n_particles, grid=grid)
        ob = oracle_solution(preset.lq_params, noise, XI0)
        b = solve_scaled_fbsde(preset.spec, 1.0, XI0, None, noise, tol=entry["tol"])
        trend_u.append(_rel(b.controls, ob.controls))
        trend_x.append(_rel(b.states, ob.states))
    decreasing = all(trend_u[i + 1] < trend_u[i] for i in range(2)) \
        and all(trend_x[i + 1] < trend_x[i] for i in range(2))
    detail = (f"continuation eu={errs['continuation'][0]:.4f} ex={errs['continuation'][1]:.4f}, "
              f"stitched eu={errs['stitched'][0]:.4f} ex={errs['stitched'][1]:.4f} (tol 0.03); "
              f"refinement eu {'->'.join(f'{e:.4f}' for e in trend_u)}")
    _report(1, ok and decreasing, detail)


def test_criterion_2_optimality_gap(solutions):
    entry = solutions["lq"]
    preset = entry["preset"]
    bundle = entry["continuation_bundle"]
    noise = _noise()
    flow = bundle.flow          # frozen equilibrium flow
    cf = preset.spec.C_f
    u_hat = bundle.controls
    cost_hat = per_sample_costs(preset.spec, bundle.states, u_hat, flow, GRID)

    rng = np.random.default_rng(99)
    worst = -np.inf
    trials = 0
    for trial in range(20):
        scale = float(rng.uniform(0.05, 0.5))
        u = u_hat + scale * rng.standard_normal(u_hat.shape)
        ens = simulate_forward(preset.spec, OpenLoopControl(u), noise, XI0, frozen_flow=flow)
        cost_u = per_sample_costs(preset.spec, ens.states, ens.controls, flow, GRID)
        gap_sq = np.sum((u - u_hat) ** 2, axis=2) * GRID.dt
        margin = cost_u - cost_hat - cf * gap_sq        # must be >= 0 up to MC error
        per_path = margin.mean(axis=1)
        se = per_path.std(ddof=1) / np.sqrt(per_path.size)
        worst = max(worst, float(-per_path.mean() / se)) if se > 0 else worst
        trials += int(per_path.mean() >= -3.0 * se)
    _report(2, trials == 20,
            f"{trials}/20 perturbations satisfy the quadratic optimality gap "
            f"within 3 standard errors (worst deficit {worst:.2f} se)")


def test_criterion_3_interval_contraction(solutions):
    details = []
    ok = True
    for name, entry in solutions.items():
        cond = sufficient_condition_report(entry["preset"].spec)
        if not cond.small_interval_ok:
            continue
        worst = max(entry["cold_ratios"]) if entry["cold_ratios"] else 0.0
        details.append(f"{name}:{worst:.3f}")
        ok = ok and worst <= 0.9
    _report(3, ok, "max cold-start interval ratio per preset " + ", ".join(details) + " (bound 0.9)")


def test_criterion_4_uniqueness(solutions):
    details = []
    ok = True
    checked = 0
    for name, entry in solutions.items():
        cond = sufficient_condition_report(entry["preset"].spec)
        if cond.ratio_measure_coupling > cond.delta_uniqueness:
            continue
        checked += 1
        rep = uniqueness_check(entry["preset"].spec, XI0, _noise(), n_starts=3,
                               tol=entry["tol"], solver="direct", seed=5)
        details.append(f"{name}:{rep.max_distance:.2e}<=5*{entry['tol']:.0e}")
        ok = ok and rep.passed
    _report(4, ok and checked >= 2,
            f"{checked} presets under the uniqueness condition; " + ", ".join(details))


def test_criterion_5_monotone_fields(solutions):
    details = []
    ok = True
    for name, entry in solutions.items():
        slopes = [f.slope_x for f in entry["fields"]]
        details.append(f"{name}: min slope {min(slopes):+.4f}")
        ok = ok and all(s >= -1e-6 for s in slopes)
    _report(5, ok, "; ".join(details) + " (bound -1e-6)")


def test_criterion_6_hamiltonian_minimizer():
    rng = np.random.default_rng(3)
    preset = get_preset("quartic_control")
    spec = preset.spec
    grid_u = np.arange(-10.0, 10.0, 1e-4)
    worst = 0.0
    b2, s2, st2 = (spec.drift.phi2(0.0), spec.vol.phi2(0.0), spec.vol_common.phi2(0.0))
    pts = rng.uniform(-5, 5, size=(1000, 4))
    u_hat = minimize_hamiltonian_values(spec, 0.0, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    for i in range(1000):
        x, p, q, qt = pts[i]
        h_vals = grid_u * (b2 * p + s2 * q + st2 * qt) + np.asarray(spec.cost.f0(0.0, x, grid_u))
        u_star = grid_u[np.argmin(h_vals)]
        worst = max(worst, abs(float(u_hat[i]) - u_star))
    grid_ok = worst <= 1e-3

    lip_ok = True
    for spec2 in (get_preset("lq").spec, spec):
        lim_xp = spec2.L / (2 * spec2.C_f) * 1.01
        lim_q = spec2.B_u / (2 * spec2.C_f) * 1.01
        for _ in range(300):
            x, p, q, qt = rng.uniform(-5, 5, size=4)
            d = float(rng.uniform(1e-3, 1.5))
            base = minimize_hamiltonian(spec2, 0.3, x, p, q, qt)
            lip_ok &= abs(minimize_hamiltonian(spec2, 0.3, x + d, p, q, qt) - base) <= lim_xp * d + 1e-12
            lip_ok &= abs(minimize_hamiltonian(spec2, 0.3, x, p + d, q, qt) - base) <= lim_xp * d + 1e-12
            lip_ok &= abs(minimize_hamiltonian(spec2, 0.3, x, p, q + d, qt) - base) <= lim_q * d + 1e-12
            lip_ok &= abs(minimize_hamiltonian(spec2, 0.3, x, p, q, qt + d) - base) <= lim_q * d + 1e-12
        bound = spec2.control_bound() + 1e-9
        lip_ok &= all(abs(minimize_hamiltonian(spec2, t, 0, 0, 0, 0)) <= bound
                      for t in np.linspace(0, spec2.horizon, 9))
    _report(6, grid_ok and lip_ok,
            f"grid-search agreement worst {worst:.2e} (tol 1e-3); Lipschitz and origin bounds hold")


def test_criterion_7_w2_exactness():
    rng = np.random.default_rng(17)
    exact = True
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = np.sort(rng.uniform(-5, 5, n), kind="stable")
        b = np.sort(rng.uniform(-5, 5, n), kind="stable")
        best = min(np.sqrt(np.mean((a - b[list(perm)]) ** 2))
                   for perm in itertools.permutations(range(n)))
        exact &= wasserstein2(EmpiricalMeasure(a), EmpiricalMeasure(b)) == best
    _report(7, exact, "sorted coupling equals permutation minimum exactly on 200 instances (n <= 6)")


def test_criterion_8_nash_trend():
    preset = get_preset("lq")
    strategy = FeedbackStrategy.from_riccati(solve_riccati(preset.lq_params, GRID))
    out = gap_versus_n(preset.spec, strategy, [4, 16, 64, 256], GRID, XI0,
                       seeds=[100, 101, 102, 103, 104], n_replicas=24, n_copies=128,
                       solver_tol=1e-4)
    meds = [out["medians"][n] for n in (4, 16, 64, 256)]
    mono = all(meds[i + 1] <= meds[i] + 1e-12 for i in range(3))
    nonneg = all(g.gap >= -3 * g.stderr for gaps in out["estimates"].values() for g in gaps)
    _report(8, mono and nonneg,
            "median gap over 5 seeds: " + " -> ".join(f"{m:.5f}" for m in meds)
            + " (non-increasing; all estimates >= -3 se)")


def test_criterion_9_method_agreement(solutions):
    details = []
    ok = True
    for name, entry in solutions.items():
        d = control_rms(entry["continuation_controls"] - entry["stitched_controls"],
                        GRID.dt, GRID.horizon)
        scale = control_rms(entry["continuation_controls"], GRID.dt, GRID.horizon)
        rel = d / max(scale, 1e-12)
        details.append(f"{name}:{rel:.4f}")
        ok = ok and rel <= 2 * ORACLE_RTOL
    _report(9, ok, "relative control distance " + ", ".join(details) + f" (bound {2 * ORACLE_RTOL})")


def test_criterion_10_determinism():
    preset = get_preset("lq")
    n1, n2 = _noise(), _noise()
    noise_ok = np.array_equal(n1.dW, n2.dW) and np.array_equal(n1.dW_common, n2.dW_common)

    b1 = picard_solve(preset.spec, n1, terminal_from_cost(preset.spec), xi0=XI0, tol=1e-4)
    b2 = picard_solve(preset.spec, n2, terminal_from_cost(preset.spec), xi0=XI0, tol=1e-4)
    solve_ok = (np.array_equal(b1.controls, b2.controls) and np.array_equal(b1.states, b2.states)
                and np.array_equal(b1.p, b2.p) and b1.residual_history == b2.residual_history)

    v1 = validate_assumptions(preset.spec).to_dict()
    v2 = validate_assumptions(preset.spec).to_dict()
    rng = np.random.default_rng(0)
    atoms = rng.normal(size=6)
    w_ok = wasserstein2(EmpiricalMeasure(atoms), EmpiricalMeasure(atoms + 1.0)) \
        == wasserstein2(EmpiricalMeasure(atoms), EmpiricalMeasure(atoms + 1.0))
    _report(10, noise_ok and solve_ok and v1 == v2 and w_ok,
            "noise bundles, a desk-scale solve, validators, and transport distances "
            "reproduce bit-for-bit from the seed")
