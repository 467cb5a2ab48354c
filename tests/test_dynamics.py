"""Tests for exact propagation and the first-order picture."""

import numpy as np
import pytest
from scipy.linalg import expm

from gausep.dynamics import (
    ParallelConditionError,
    RegimeError,
    check_perturbative_window,
    cross_integral,
    evolve,
    perturbative_v,
    shape_functions,
    transition_blocks,
)
from gausep.generators import (
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
    build_generator,
    local_drift_blocks,
)
from gausep.symplectic import CovarianceMatrix, ModeLayout


def rank1_model(k, s_a, s_b, s_ab=0.0, h_a=None, h_b=None, vec_a=None, vec_b=None):
    zero = np.zeros((2, 2))
    return SystemModel(
        layout=ModeLayout(1, 1),
        h_a=zero if h_a is None else h_a,
        h_b=zero if h_b is None else h_b,
        coupling=Rank1Coupling(
            strength=k,
            vec_a=np.array([1.0, 0.0]) if vec_a is None else vec_a,
            vec_b=np.array([1.0, 0.0]) if vec_b is None else vec_b,
        ),
        noise=ScalarWhiteNoise(s_a=s_a, s_b=s_b, s_ab=s_ab),
    )


def test_transition_blocks_against_quadrature():
    """Phi is the matrix exponential, acc the noise integral."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    r = rng.standard_normal((4, 4))
    d = r @ r.T
    t = 0.7
    phi, acc = transition_blocks(a, d, t)
    np.testing.assert_allclose(phi, expm(a * t), atol=1e-12)
    s_grid = np.linspace(0.0, t, 4001)
    samples = np.array([expm(a * s) @ d @ expm(a * s).T for s in s_grid])
    from scipy.integrate import simpson

    ref = simpson(samples, x=s_grid, axis=0)
    np.testing.assert_allclose(acc, ref, atol=1e-9)


def test_cross_integral_against_quadrature():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((5, 5))
    q = rng.standard_normal((3, 5))
    t = 0.4
    s_grid = np.linspace(0.0, t, 4001)
    samples = np.array([expm(a * s) @ q @ expm(b * s) for s in s_grid])
    from scipy.integrate import simpson

    ref = simpson(samples, x=s_grid, axis=0)
    np.testing.assert_allclose(cross_integral(a, q, b, t), ref, atol=1e-10)


def test_evolve_semigroup_property():
    model = rank1_model(0.8, 1.5, 2.5, s_ab=0.3, h_a=np.eye(2))
    gen = build_generator(model)
    v0 = CovarianceMatrix.vacuum(model.layout)
    once = evolve(gen, v0, 0.9)
    split = evolve(gen, evolve(gen, v0, 0.5), 0.4)
    np.testing.assert_allclose(once.matrix, split.matrix, atol=1e-12)


def test_evolve_t_zero_is_identity():
    model = rank1_model(1.0, 2.0, 2.0)
    gen = build_generator(model)
    v0 = CovarianceMatrix.vacuum(model.layout)
    np.testing.assert_array_equal(evolve(gen, v0, 0.0).matrix, v0.matrix)


def test_perturbative_window_guard():
    model = rank1_model(1.0, 2.0, 2.0)
    check_perturbative_window(model, 0.05)
    with pytest.raises(RegimeError):
        check_perturbative_window(model, 0.2)


def test_first_order_error_is_second_order_in_the_products():
    """Halving the horizon cuts the defect against the exact flow fourfold."""
    h = np.eye(2)
    model = rank1_model(0.02, 0.02, 0.02, h_a=h, h_b=h)
    gen = build_generator(model)
    v0 = CovarianceMatrix.vacuum(model.layout)
    errors = []
    for t in (0.5, 0.25):
        exact = evolve(gen, v0, t).matrix
        approx = perturbative_v(model, t).to_lab().matrix
        errors.append(np.abs(approx - exact).max())
    assert errors[0] < 5e-4
    assert errors[0] / errors[1] > 3.0


def test_shape_functions_free_mass_is_flat():
    """A free mass keeps the measured quadrature fixed, overlap exactly one."""
    model = rank1_model(1.0, 2.0, 2.0)
    shapes = shape_functions(model, 0.05)
    np.testing.assert_allclose(shapes.f_a, np.ones_like(shapes.f_a), atol=1e-12)
    np.testing.assert_allclose(shapes.rho_sq, 1.0, atol=1e-12)


def test_shape_functions_scaling_dynamics():
    """Hyperbolic local dynamics stretches the measured ray exponentially."""
    b = 0.8
    h = np.array([[0.0, b], [b, 0.0]])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h, h_b=h)
    shapes = shape_functions(model, 0.5)
    np.testing.assert_allclose(shapes.f_a, np.exp(b * shapes.times), rtol=1e-8)
    np.testing.assert_allclose(shapes.rho_sq, 1.0, atol=1e-10)


def test_shape_functions_match_one_exponential_per_sample():
    h_a = np.array([[0.0, 0.6], [0.6, 0.0]])
    h_b = np.array([[0.0, -0.9], [-0.9, 0.0]])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h_a, h_b=h_b, vec_b=np.array([0.0, 1.5]))
    shapes = shape_functions(model, 2.0, samples=101)
    vecs = (model.coupling.vec_a, model.coupling.vec_b)
    for f, drift, w in zip((shapes.f_a, shapes.f_b), local_drift_blocks(model), vecs):
        expected = [expm(drift.T * s) @ w @ w / (w @ w) for s in shapes.times]
        np.testing.assert_allclose(f, expected, rtol=1e-13)


def test_shape_functions_mismatched_scalings_reduce_the_overlap():
    h_a = np.array([[0.0, 0.6], [0.6, 0.0]])
    h_b = np.array([[0.0, -0.6], [-0.6, 0.0]])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h_a, h_b=h_b)
    shapes = shape_functions(model, 1.0)
    assert shapes.rho_sq < 1.0 - 1e-3
    # Cauchy-Schwarz ceiling
    assert shapes.rho_sq <= 1.0 + 1e-12


def test_shape_functions_reject_rotating_rays():
    model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
    with pytest.raises(ParallelConditionError):
        shape_functions(model, 0.5)
