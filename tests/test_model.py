"""Hamiltonian machinery, minimizer, validators, smallness conditions."""

import dataclasses
import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from cnmfg.errors import ModelError
from cnmfg.measures import EmpiricalMeasure
from cnmfg.model import (SamplerConfig, get_preset, gronwall_constants, hamiltonian,
                         hamiltonian_dx, minimize_hamiltonian, minimize_hamiltonian_values,
                         preset_names, sufficient_condition_report, validate_assumptions)

from helpers import count_f0u_calls, quadratic_cost, simple_spec

M0 = EmpiricalMeasure([0.0])


def test_hamiltonian_constant_cost():
    spec = simple_spec()
    spec.cost.f0 = lambda t, x, u: 4.2 + 0.0 * np.asarray(u)
    assert hamiltonian(spec, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, M0) == pytest.approx(4.2)


def test_hamiltonian_direct_substitution():
    # b = x + u, no volatilities, f = u^2: H = (x+u) p + u^2
    spec = simple_spec(b1=1.0, b2=1.0)
    val = hamiltonian(spec, 0.0, 1.0, 3.0, 0.0, 0.0, 2.0, M0)
    assert val == pytest.approx(3.0 * 3.0 + 4.0)


def test_hamiltonian_lq_preset_matches_symbolic():
    preset = get_preset("lq")
    p = preset.spec.params
    m = EmpiricalMeasure([0.5, 1.5])
    t, x, pp, q, qt, u = 0.3, 1.2, -0.7, 0.4, 0.2, 0.9
    mbar = 1.0
    expected = ((p["b0"] + p["b1"] * x + p["b2"] * u) * pp
                + (p["sigma0"] + p["sigma1"] * x + p["sigma2"] * u) * q
                + (p["sigma_tilde0"] + p["sigma_tilde1"] * x + p["sigma_tilde2"] * u) * qt
                + p["cu"] * u ** 2 + p["cx"] * x ** 2 + p["c1"] * (x - p["lam"] * mbar) ** 2)
    assert hamiltonian(preset.spec, t, x, pp, q, qt, u, m) == pytest.approx(expected, rel=1e-12)


def test_minimizer_linear_first_order_condition():
    # f0u = 2 u, b2 = 1, p = 2  ->  u = -1
    spec = simple_spec(b2=1.0, cu=1.0)
    assert minimize_hamiltonian(spec, 0.0, 0.0, 2.0, 0.0, 0.0) == pytest.approx(-1.0)
    # zero adjoint and f0u(t, x, 0) = 0  ->  u = 0
    assert minimize_hamiltonian(spec, 0.0, 1.7, 0.0, 0.0, 0.0) == 0.0


def test_minimizer_quartic_against_grid_search():
    spec = simple_spec(b1=0.5, b2=1.0)
    spec.cost = quadratic_cost(cu=1.0, cx=0.2, quartic_u=0.3)
    rng = np.random.default_rng(17)
    grid_u = np.arange(-10.0, 10.0, 1e-4)
    for _ in range(25):
        x, p, q, qt = rng.uniform(-3, 3, size=4)
        # independent oracle: brute-force grid minimization of H over u
        h_vals = ((0.5 * x + grid_u) * p + spec.cost.f0(0.0, x, grid_u))
        u_star = grid_u[np.argmin(h_vals)]
        u_hat = minimize_hamiltonian(spec, 0.0, x, p, q, qt)
        assert abs(u_hat - u_star) < 1e-3


def test_minimizer_vectorized_matches_scalar():
    spec = simple_spec(b2=1.0)
    spec.cost = quadratic_cost(cu=0.8, quartic_u=0.1)
    rng = np.random.default_rng(3)
    xs, ps, qs, qts = rng.uniform(-4, 4, size=(4, 30))
    vec = minimize_hamiltonian_values(spec, 0.1, xs, ps, qs, qts)
    for i in range(30):
        assert vec[i] == pytest.approx(minimize_hamiltonian(spec, 0.1, xs[i], ps[i], qs[i], qts[i]), abs=1e-9)


def test_minimizer_lipschitz_and_origin_bound():
    for name in ("lq", "lq_small_bu", "quartic_control"):
        spec = get_preset(name).spec
        lim_xp = spec.L / (2 * spec.C_f) * 1.01
        lim_q = spec.B_u / (2 * spec.C_f) * 1.01
        rng = np.random.default_rng(5)
        for _ in range(200):
            x, p, q, qt = rng.uniform(-5, 5, size=4)
            d = float(rng.uniform(1e-3, 1.0))
            base = minimize_hamiltonian(spec, 0.2, x, p, q, qt)
            assert abs(minimize_hamiltonian(spec, 0.2, x + d, p, q, qt) - base) <= lim_xp * d + 1e-12
            assert abs(minimize_hamiltonian(spec, 0.2, x, p + d, q, qt) - base) <= lim_xp * d + 1e-12
            assert abs(minimize_hamiltonian(spec, 0.2, x, p, q + d, qt) - base) <= lim_q * d + 1e-12
            assert abs(minimize_hamiltonian(spec, 0.2, x, p, q, qt + d) - base) <= lim_q * d + 1e-12
        # bound at the origin
        for t in np.linspace(0, spec.horizon, 7):
            assert abs(minimize_hamiltonian(spec, t, 0.0, 0.0, 0.0, 0.0)) <= spec.control_bound() + 1e-9


def test_minimizer_strict_convexity_gap():
    spec = get_preset("quartic_control").spec
    rng = np.random.default_rng(23)
    m = EmpiricalMeasure([0.3, -0.4])
    for _ in range(100):
        t = float(rng.uniform(0, 1))
        x, p, q, qt = rng.uniform(-3, 3, size=4)
        u_hat = minimize_hamiltonian(spec, t, x, p, q, qt)
        u = u_hat + float(rng.uniform(-2, 2))
        h_hat = hamiltonian(spec, t, x, p, q, qt, u_hat, m)
        h = hamiltonian(spec, t, x, p, q, qt, u, m)
        assert h_hat + spec.C_f * (u - u_hat) ** 2 <= h + 1e-9


def test_hamiltonian_dx_examples_and_finite_difference():
    spec = simple_spec()
    assert hamiltonian_dx(spec, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, M0) == 0.0
    spec2 = simple_spec(b1=2.0)
    assert hamiltonian_dx(spec2, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, M0) == pytest.approx(6.0)

    spec3 = get_preset("quartic_f1").spec
    rng = np.random.default_rng(31)
    h = 1e-5
    for _ in range(40):
        t = float(rng.uniform(0, 1))
        x, p, q, qt, u = rng.uniform(-2, 2, size=5)
        m = EmpiricalMeasure(rng.uniform(-2, 2, size=5))
        fd = (hamiltonian(spec3, t, x + h, p, q, qt, u, m)
              - hamiltonian(spec3, t, x - h, p, q, qt, u, m)) / (2 * h)
        assert hamiltonian_dx(spec3, t, x, p, q, qt, u, m) == pytest.approx(fd, abs=1e-6)


def test_cost_derivative_finite_differences():
    h = 1e-5
    rng = np.random.default_rng(41)
    for name in ("lq", "tanh_drift", "quartic_f1", "quartic_control"):
        cost = get_preset(name).spec.cost
        for _ in range(25):
            t = float(rng.uniform(0, 1))
            x, u = rng.uniform(-2, 2, size=2)
            m = EmpiricalMeasure(rng.uniform(-2, 2, size=4))
            assert float(cost.f0x(t, x, u)) == pytest.approx(
                (float(cost.f0(t, x + h, u)) - float(cost.f0(t, x - h, u))) / (2 * h), abs=1e-6)
            assert float(cost.f0u(t, x, u)) == pytest.approx(
                (float(cost.f0(t, x, u + h)) - float(cost.f0(t, x, u - h))) / (2 * h), abs=1e-6)
            assert float(cost.f1x(t, x, m)) == pytest.approx(
                (float(cost.f1(t, x + h, m)) - float(cost.f1(t, x - h, m))) / (2 * h), abs=1e-6)
            assert float(cost.gx(x, m)) == pytest.approx(
                (float(cost.g(x + h, m)) - float(cost.g(x - h, m))) / (2 * h), abs=1e-6)


def test_hamiltonian_affine_in_adjoint():
    spec = get_preset("lq").spec
    m = EmpiricalMeasure([0.2, 1.1])
    args = (0.4, 0.9)  # t, x
    u = 0.3
    base = hamiltonian(spec, *args, 0.0, 0.0, 0.0, u, m)
    for lam in (0.5, 2.0, -3.0):
        h1 = hamiltonian(spec, *args, lam * 1.0, lam * 2.0, lam * 3.0, u, m)
        hu = hamiltonian(spec, *args, 1.0, 2.0, 3.0, u, m)
        assert h1 - base == pytest.approx(lam * (hu - base), abs=1e-12)


def test_validate_assumptions_presets():
    cfg = SamplerConfig(n_points=200, n_measure_pairs=300)
    report = validate_assumptions(get_preset("lq").spec, cfg)
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    report = validate_assumptions(get_preset("tanh_drift").spec, cfg)
    assert report.passed
    # a stronger mean attraction in the running cost breaks weak monotonicity alone
    mono = validate_assumptions(get_preset("tanh_drift", {"lam": 1.5}).spec, cfg)
    assert [c.name for c in mono.checks if not c.passed] == ["weak_monotonicity"]
    assert mono.check("weak_monotonicity").estimates["coupled_monotonicity_min"] == pytest.approx(
        -4.497, abs=1e-3)

    bad = validate_assumptions(get_preset("concave_g").spec, cfg)
    assert not bad.passed
    assert not bad.check("convexity").passed


def test_measure_lipschitz_estimate_brackets_drift_coupling():
    # |mean(m) - mean(m')| <= W2(m, m'), with equality for translated pairs,
    # so the sampled modulus for a kappa*mean drift lands in [0.9 kappa, kappa]
    spec = get_preset("lq_drift_coupled").spec
    kappa = spec.params["kappa"]
    report = validate_assumptions(spec, SamplerConfig(n_measure_pairs=1200))
    est = report.check("measure_lipschitz").estimates["intercept_measure_lipschitz"]
    assert 0.9 * kappa <= est <= kappa * (1 + 1e-9)


def test_sufficient_condition_report_values():
    spec = get_preset("lq").spec
    rep = sufficient_condition_report(spec)
    # measure-free dynamics: every measure-coupling condition holds
    assert spec.L_m == 0.0
    assert rep.continuation_ok and rep.uniqueness_ok and rep.stitching_ok
    assert rep.small_interval_ok  # B_u = 0

    # hand-recomputed ratios for modified constants
    spec2 = get_preset("lq").spec
    spec2.L_m = 0.01
    spec2.cost.convexity_u = 10.0
    rep2 = sufficient_condition_report(spec2)
    L, T = spec2.L, spec2.horizon
    c1 = 3 * (1 + T) * (1 + L * L * T) * math.exp(3 * L * L * T * (T + 4))
    c2 = 8 * (1 + L * L) * (1 + T) * math.exp(8 * L * L * T * (T + 1))
    assert rep2.C1 == pytest.approx(c1, rel=1e-12)
    assert rep2.C2 == pytest.approx(c2, rel=1e-12)
    assert rep2.ratio_measure_coupling == pytest.approx(0.001, rel=1e-12)
    assert rep2.delta_continuation == pytest.approx(
        2 / (3 * T * c1 + max(1.0, T) * (c1 + 1) * c2), rel=1e-12)
    assert rep2.delta_uniqueness == pytest.approx(
        2 / (c2 * (1 + c1) * (T + 1) + 3 * T * c1), rel=1e-12)
    assert rep2.delta_stitching == pytest.approx(
        2 / (T * c1 + 3 * (T + 1) * (c1 + 1) * c2), rel=1e-12)
    assert rep2.small_interval_threshold == pytest.approx(
        1 / (24 * L * spec2.terminal_lipschitz), rel=1e-12)
    assert rep2.ratio_stitching == pytest.approx(max(0.0 * (1 + 0.1) ** 4, 0.001), rel=1e-12)

    c1g, c2g = gronwall_constants(L, T)
    assert (c1g, c2g) == (pytest.approx(c1), pytest.approx(c2))


def test_preset_registry():
    names = preset_names()
    for required in ("lq", "mean_reverting", "tanh_drift", "quartic_f1"):
        assert required in names
    with pytest.raises(ModelError, match="unknown preset"):
        get_preset("not_a_preset")
    # parameter overrides flow through
    preset = get_preset("lq", {"cu": 2.5})
    assert preset.spec.C_f == 2.5
    assert preset.lq_params.cu == 2.5
    assert get_preset("tanh_drift").lq_params is None
    assert get_preset("concave_g").lq_params is None


def _quartic_inputs(n=200, seed=13):
    spec = get_preset("quartic_control").spec
    x, p, q, qt = np.random.default_rng(seed).uniform(-4, 4, size=(4, n))
    return spec, (0.3, x, p, q, qt)


def _decimal_root(slope, cubic, c):
    """Root of slope u + cubic u^3 + c = 0 by Newton's method at 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        s, k, c = Decimal(slope), Decimal(cubic), Decimal(c)
        if c == 0:
            return 0.0
        # both bounds hold for |root|; from one on the root's side Newton's
        # steps on this cubic fall monotonically onto the root
        size = min(abs(c) / s, (abs(c) / k) ** (Decimal(1) / 3))
        u = -size if c > 0 else size
        for _ in range(500):
            step = (s * u + k * u ** 3 + c) / (s + 3 * k * u * u)
            u -= step
            if abs(step) <= abs(u) * Decimal("1e-55"):
                break
        return float(u)


@pytest.mark.parametrize("cu, quartic_u", [(1.0, 0.3), (0.05, 2.0), (4.0, 1e-3)])
def test_minimizer_cubic_root_matches_a_60_digit_reference(cu, quartic_u):
    # b2 = 1, no volatility loading and f0u(t, x, 0) = 0 at x = 0: the
    # first-order condition's constant is p itself
    spec = simple_spec(b2=1.0)
    spec.cost = quadratic_cost(cu=cu, quartic_u=quartic_u)
    sweep = 10.0 ** np.linspace(-12.0, 12.0, 49)
    c = np.concatenate([[0.0, 1e-300, -1e-300, 1e300, -1e300], sweep, -sweep])
    zero = np.zeros_like(c)
    u = minimize_hamiltonian_values(spec, 0.0, zero, c, zero, zero)
    for ci, ui in zip(c, u):
        ref = _decimal_root(spec.cost.f0u_slope, spec.cost.f0u_cubic, ci)
        assert abs(ui - ref) <= 1e-15 * abs(ref), (ci, ui, ref)


def test_minimizer_linear_branch_is_the_plain_quotient():
    for name in ("lq", "lq_small_bu", "mean_reverting"):
        spec = get_preset(name).spec
        t, x, p, q, qt = 0.3, *np.random.default_rng(29).uniform(-4, 4, size=(4, 8, 16))
        const = spec.drift.phi2(t) * p + spec.vol.phi2(t) * q + spec.vol_common.phi2(t) * qt
        expected = -(const + spec.cost.f0u(t, x, np.zeros_like(x))) / spec.cost.f0u_slope
        assert np.array_equal(minimize_hamiltonian_values(spec, t, x, p, q, qt), expected), name


def test_cost_that_misdeclares_its_polynomial_raises_when_built():
    cost = quadratic_cost(cu=1.0, quartic_u=0.1)    # f0u = 2u + 0.4u^3
    for change, field in (({"convexity_u": 5.0}, "f0u_slope"), ({"f0u_slope": 0.0}, "f0u_slope"),
                          ({"f0u_slope": math.nan}, "f0u_slope"), ({"f0u_cubic": -0.4}, "f0u_cubic"),
                          ({"f0u_cubic": 0.0}, "f0u_cubic"), ({"f0u_slope": 3.0}, "f0u_slope")):
        with pytest.raises(ModelError, match=field):
            dataclasses.replace(cost, **change)
    # the offset f0u(t, x, 0) lies outside the declared polynomial: here it is
    # 1 + x, which p = -3 cancels at x = 2
    spec = simple_spec(b2=1.0)
    spec.cost = dataclasses.replace(cost, f0u=lambda t, x, u: cost.f0u(t, x, u) + 1.0 + np.asarray(x))
    assert minimize_hamiltonian(spec, 0.0, 2.0, -3.0, 0.0, 0.0) == 0.0


def test_minimizer_hands_on_nan_without_iterating():
    spec, (t, x, p, q, qt) = _quartic_inputs(n=50)
    calls = count_f0u_calls(spec.cost)
    for bad in (np.nan, np.inf, -np.inf):
        # an infinite b makes the root inf / inf, which numpy warns of
        with np.errstate(invalid="ignore"):
            out = minimize_hamiltonian_values(spec, t, x, np.full_like(p, bad), q, qt)
        assert np.isnan(out).all(), bad
    assert calls[0] == 3
    # one NaN element is NaN in the result, and the others are untouched
    clean = minimize_hamiltonian_values(spec, t, x, p, q, qt)
    p[7] = np.nan
    out = minimize_hamiltonian_values(spec, t, x, p, q, qt)
    assert np.isnan(out[7]) and np.array_equal(np.delete(out, 7), np.delete(clean, 7))
