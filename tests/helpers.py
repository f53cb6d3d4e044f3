"""Shared builders for tiny hand-specified models used across the test suite."""

from __future__ import annotations

import numpy as np

from cnmfg.model import CostSpec, LinearCoefficient, ModelSpec


def const_coef(c0=0.0, c1=0.0, c2=0.0) -> LinearCoefficient:
    return LinearCoefficient(phi0=lambda t, m: c0, phi1=lambda t: c1, phi2=lambda t: c2)


def quadratic_cost(cu=1.0, cx=0.0, quartic_u=0.0) -> CostSpec:
    def f0(t, x, u):
        return cu * np.asarray(u) ** 2 + cx * np.asarray(x) ** 2 + quartic_u * np.asarray(u) ** 4

    return CostSpec(
        f0=f0,
        f0x=lambda t, x, u: 2 * cx * np.asarray(x) + 0.0 * np.asarray(u),
        f0u=lambda t, x, u: 2 * cu * np.asarray(u) + 4 * quartic_u * np.asarray(u) ** 3 + 0.0 * np.asarray(x),
        f1=lambda t, x, m: 0.0 * np.asarray(x),
        f1x=lambda t, x, m: 0.0 * np.asarray(x),
        g=lambda x, m: 0.0 * np.asarray(x),
        gx=lambda x, m: 0.0 * np.asarray(x),
        convexity_u=cu,
        f0u_slope=2 * cu,
        f0u_cubic=4 * quartic_u,
    )


def simple_spec(*, b0=0.0, b1=0.0, b2=0.0, s0=0.0, st0=0.0, cu=1.0, cx=0.0,
                horizon=1.0, L=2.0) -> ModelSpec:
    """Measure-free model with constant coefficients and quadratic control cost."""
    return ModelSpec(
        drift=const_coef(b0, b1, b2),
        vol=const_coef(s0, 0.0, 0.0),
        vol_common=const_coef(st0, 0.0, 0.0),
        cost=quadratic_cost(cu=cu, cx=cx),
        horizon=horizon,
        name="test",
        L=L,
        B_u=0.0,
        L_m=0.0,
        terminal_lipschitz=1.0,
    )


def assert_steps_contiguous(*arrays):
    """Every per-step slice a[:, :, n] of each (path, particle, step) array is C-contiguous."""
    for a in arrays:
        assert a.ndim == 3
        for n in range(a.shape[2]):
            assert a[:, :, n].flags.c_contiguous, f"step {n} of a {a.shape} array is strided"


def count_f0u_calls(cost: CostSpec) -> list:
    """Wrap ``cost.f0u`` so that its calls are counted in the returned one-item list."""
    calls = [0]
    f0u = cost.f0u

    def counted(t, x, u):
        calls[0] += 1
        return f0u(t, x, u)

    cost.f0u = counted
    return calls
