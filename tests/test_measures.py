"""Measure layer: exact 1-d transport distance and measure flows."""

import itertools

import numpy as np
import pytest

from cnmfg.errors import MeasureError
from cnmfg.forward_sim import InitialLaw, NoiseBundle, OpenLoopControl, TimeGrid, simulate_forward
from cnmfg.measures import EmpiricalMeasure, MeasureFlow, second_moment, wasserstein2

from helpers import simple_spec


def brute_force_w2(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """Independent oracle: minimum transport cost over all permutation couplings.

    Atoms are pre-sorted so the identity permutation reproduces the monotone
    coupling with the same summation order (exact float comparability).
    """
    a = np.sort(m1.atoms, kind="stable")
    b = np.sort(m2.atoms, kind="stable")
    best = np.inf
    for perm in itertools.permutations(range(a.size)):
        cost = np.sqrt(np.mean((a - b[list(perm)]) ** 2))
        best = min(best, cost)
    return best


def test_w2_two_atom_example_matches_brute_force():
    m1 = EmpiricalMeasure([0.0, 2.0])
    m2 = EmpiricalMeasure([1.0, 3.0])
    # brute-force minimum over the two couplings of 2 atoms is 1.0
    assert brute_force_w2(m1, m2) == pytest.approx(1.0, abs=1e-15)
    assert wasserstein2(m1, m2) == pytest.approx(1.0, abs=1e-15)


def test_w2_identical_and_dirac():
    m = EmpiricalMeasure([5.0, 5.0, 5.0])
    assert wasserstein2(m, m) == 0.0
    assert wasserstein2(EmpiricalMeasure([0.0]), EmpiricalMeasure([3.0])) == 3.0


def test_w2_equals_brute_force_small_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m1 = EmpiricalMeasure(rng.uniform(-4, 4, n))
        m2 = EmpiricalMeasure(rng.uniform(-4, 4, n))
        # sorted coupling is one of the enumerated permutations: exact equality
        assert wasserstein2(m1, m2) == brute_force_w2(m1, m2)


def test_w2_metric_properties():
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(1, 9))
        a = EmpiricalMeasure(rng.normal(size=n))
        b = EmpiricalMeasure(rng.normal(size=n))
        c = EmpiricalMeasure(rng.normal(size=n))
        assert wasserstein2(a, b) == pytest.approx(wasserstein2(b, a), abs=1e-14)
        assert wasserstein2(a, a) == 0.0
        assert wasserstein2(a, c) <= wasserstein2(a, b) + wasserstein2(b, c) + 1e-10


def test_w2_translation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        a = EmpiricalMeasure(rng.normal(size=n))
        b = EmpiricalMeasure(rng.normal(size=n))
        shift = float(rng.uniform(-5, 5))
        assert abs(wasserstein2(a.translated(shift), b.translated(shift)) - wasserstein2(a, b)) < 1e-12


def test_w2_rejects_unequal_atom_counts():
    with pytest.raises(MeasureError, match="atom counts 2 and 1 differ"):
        wasserstein2(EmpiricalMeasure([0.0, 2.0]), EmpiricalMeasure([1.0]))


def test_measure_invariants():
    with pytest.raises(MeasureError):
        EmpiricalMeasure([])
    with pytest.raises(MeasureError):
        EmpiricalMeasure([np.inf])
    assert second_moment(EmpiricalMeasure([0.0])) == 0.0
    assert second_moment(EmpiricalMeasure([1.0, -1.0])) == 1.0
    assert second_moment(EmpiricalMeasure([1.0, 2.0, 3.0])) == pytest.approx(14.0 / 3.0, rel=1e-15)


def test_conditional_law_examples():
    grid = TimeGrid(1.0, 4)
    noise = NoiseBundle(seed=5, n_paths=2, n_particles=2, grid=grid)
    spec = simple_spec()
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((2, 2, 4))), noise,
                           InitialLaw(kind="constant", mu=0.0))
    m = EmpiricalMeasure(ens.flow.at(2).atoms[1])
    assert np.all(m.atoms == 0.0)

    ens.states[0, :, 3] = [1.0, 3.0]
    m = EmpiricalMeasure(ens.flow.at(3).atoms[0])
    assert m.mean == 2.0
    assert second_moment(m) == 5.0


def test_flow_rejects_nodes_out_of_range():
    grid = TimeGrid(1.0, 3)
    atoms = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
    flow = MeasureFlow(atoms=atoms, grid=grid)
    assert np.array_equal(flow.at(3).atoms, atoms[:, :, 3])
    assert np.array_equal(flow.at(0).atoms, atoms[:, :, 0])
    # a negative node must not wrap to the last one, a node past the end must
    # not surface as a raw IndexError
    for n in (-1, 4, 9):
        with pytest.raises(MeasureError, match="node"):
            flow.at(n)


def test_node_distance_is_the_largest_per_measure_w2():
    grid = TimeGrid(1.0, 3)
    rng = np.random.default_rng(4)
    fa = MeasureFlow(atoms=rng.normal(size=(3, 5, 4)), grid=grid)
    fb = MeasureFlow(atoms=rng.normal(size=(3, 5, 4)), grid=grid)
    expected = max(wasserstein2(EmpiricalMeasure(fa.at(n).atoms[j]),
                                EmpiricalMeasure(fb.at(n).atoms[j]))
                   for n in range(4) for j in range(3))
    assert fa.node_distance(fb) == pytest.approx(expected, rel=1e-12)
    assert fb.node_distance(fa) == pytest.approx(expected, rel=1e-12)
    assert fa.node_distance(fa) == 0.0
    with pytest.raises(MeasureError, match="common"):
        fa.node_distance(MeasureFlow(atoms=rng.normal(size=(3, 10, 4)), grid=grid))


def test_conditional_law_dirac_with_zero_idiosyncratic_noise():
    # no individual noise, identical starts: the per-path law is a Dirac at the
    # single-path solution driven by the common increments
    grid = TimeGrid(1.0, 20)
    spec = simple_spec(b0=0.3, b1=0.5, st0=0.4)
    noise = NoiseBundle(seed=9, n_paths=3, n_particles=8, grid=grid)
    ens = simulate_forward(spec, OpenLoopControl(np.zeros((3, 8, 20))), noise,
                           InitialLaw(kind="constant", mu=1.0))
    for j in range(3):
        x = 1.0
        for n in range(20):
            assert np.max(np.abs(ens.flow.at(n).atoms[j] - x)) < 1e-12
            x = x + (0.3 + 0.5 * x) * grid.dt + 0.4 * noise.dW_common[j, n]
        assert np.max(np.abs(ens.flow.at(20).atoms[j] - x)) < 1e-12


def test_mean_square_gap_dominates_w2():
    # ensemble version of the estimate used throughout the stability proofs:
    # per-node mean of W2(m1, m2)^2 over paths is at most the mean squared state gap
    rng = np.random.default_rng(21)
    grid = TimeGrid(1.0, 5)
    a = rng.normal(size=(6, 32, 6))
    b = a + rng.normal(scale=0.5, size=(6, 32, 6))
    fa = MeasureFlow(atoms=a, grid=grid)
    fb = MeasureFlow(atoms=b, grid=grid)
    for n in range(6):
        w2_sq = [wasserstein2(EmpiricalMeasure(fa.at(n).atoms[j]),
                              EmpiricalMeasure(fb.at(n).atoms[j])) ** 2 for j in range(6)]
        assert np.mean(w2_sq) <= np.mean((a[:, :, n] - b[:, :, n]) ** 2) + 1e-12
