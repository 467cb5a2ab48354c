"""Tests for exact propagation and the first-order picture."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from gausep.dynamics import (
    GaussianMap,
    RAY_TOL,
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


SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([2, 4, 6])


def random_psd(rng, dim, scale=1.0):
    r = rng.standard_normal((dim, dim))
    return scale * (r @ r.T) / dim


def random_map(rng, dim):
    """A map with ``||S||_2 <= 1``, so its powers stay bounded."""
    s = rng.standard_normal((dim, dim))
    return GaussianMap(s / np.linalg.norm(s, 2), random_psd(rng, dim, 0.1))


@given(SEEDS, DIMS)
def test_then_is_application_in_turn(seed, dim):
    rng = np.random.default_rng(seed)
    m1, m2 = random_map(rng, dim), random_map(rng, dim)
    v = random_psd(rng, dim)
    expected = m2.apply(m1.apply(v))
    tol = 8 * dim * np.finfo(float).eps * np.abs(expected).max()
    assert np.abs(m1.then(m2).apply(v) - expected).max() <= tol


@given(SEEDS, DIMS, st.integers(0, 64))
def test_apply_power_is_repeated_application(seed, dim, k):
    rng = np.random.default_rng(seed)
    step = random_map(rng, dim)
    v = random_psd(rng, dim)
    expected, largest = v, np.abs(v).max()
    for _ in range(k):
        expected = step.apply(expected)
        largest = max(largest, np.abs(expected).max())
    tol = k * np.finfo(float).eps * largest
    assert np.abs(step.apply_power(v, k) - expected).max() <= tol


@given(SEEDS, st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_transition_maps_compose_over_time(seed, t1, t2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    d = random_psd(rng, 4)
    joined = transition_blocks(a, d, t1).then(transition_blocks(a, d, t2))
    whole = transition_blocks(a, d, t1 + t2)
    for part, ref in zip(joined, whole):
        # below the smallest normal double only underflow is left to compare
        tol = 4e-12 * np.abs(ref).max() + np.finfo(float).tiny
        np.testing.assert_allclose(part, ref, rtol=0, atol=tol)


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
    assert shapes.rate_a == 0.0
    assert shapes.rho_sq == 1.0


def test_shape_functions_scaling_dynamics():
    """Hyperbolic local dynamics stretches the measured ray exponentially."""
    b = 0.8
    h = np.array([[0.0, b], [b, 0.0]])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h, h_b=h)
    shapes = shape_functions(model, 0.5)
    np.testing.assert_allclose(shapes.rate_a, b, rtol=1e-12)
    assert shapes.rho_sq == 1.0


def test_shape_functions_match_one_exponential_per_sample():
    h_a = np.array([[0.0, 0.6], [0.6, 0.0]])
    h_b = np.array([[0.0, -0.9], [-0.9, 0.0]])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h_a, h_b=h_b, vec_b=np.array([0.0, 1.5]))
    shapes = shape_functions(model, 2.0)
    vecs = (model.coupling.vec_a, model.coupling.vec_b)
    times = np.linspace(0.0, 2.0, 101)
    rates = (shapes.rate_a, shapes.rate_b)
    for rate, drift, w in zip(rates, local_drift_blocks(model), vecs):
        expected = [expm(drift.T * s) @ w @ w / (w @ w) for s in times]
        np.testing.assert_allclose(np.exp(rate * times), expected, rtol=1e-13)


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


def _rho_sq_by_quadrature(model, t):
    """40-digit quadrature of the expm-defined shapes ``(exp(M^T s) w) . w / |w|^2``."""
    import functools

    import mpmath

    vecs = (model.coupling.vec_a, model.coupling.vec_b)
    with mpmath.workdps(40):
        sides = [
            (mpmath.matrix(drift.T.tolist()), mpmath.matrix(w.tolist()))
            for drift, w in zip(local_drift_blocks(model), vecs)
        ]

        @functools.lru_cache(maxsize=None)
        def shapes(s):
            return [(w.T * mpmath.expm(m * s) * w)[0] / (w.T * w)[0] for m, w in sides]

        i_aa, i_bb, i_ab = (
            mpmath.quad(
                lambda s, i=i, j=j: shapes(s)[i] * shapes(s)[j], [0, t], method="gauss-legendre"
            )
            for i, j in ((0, 0), (1, 1), (0, 1))
        )
        return i_ab**2 / (i_aa * i_bb)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "rate_a, rate_b, t",
    [(0.9, -0.7, 1.4), (0.3, 0.25, 7.0), (1.0, -0.5, 400.0)],
)
def test_rho_sq_matches_the_expm_defined_overlap(rate_a, rate_b, t):
    """The closed form against a 40-digit quadrature, up to horizons whose
    shapes overflow double precision."""
    model = rank1_model(1.0, 0.9, 0.9, h_a=rate_a * SIGMA_X, h_b=rate_b * SIGMA_X)
    shapes = shape_functions(model, t)
    reference = _rho_sq_by_quadrature(model, t)
    assert abs(shapes.rho_sq - float(reference)) <= 1e-12 * float(reference)


@pytest.mark.parametrize(
    "h, theta, t, kept",
    [
        (SIGMA_X, 1e-10, 1.0, True),
        (SIGMA_X, 1e-6, 1.0, False),
        # a decaying ray: the off-ray part grows like exp(t) against it
        (-0.5 * SIGMA_X, 1e-10, 1.0, True),
        (-0.5 * SIGMA_X, 1e-10, 40.0, False),
        # a growing ray: the off-ray part dies out, so the horizon hardly matters
        (0.5 * SIGMA_X, 1e-10, 40.0, True),
    ],
)
def test_ray_tolerance_boundary(h, theta, t, kept):
    """A coupling direction turned by theta off the sigma_x eigenvector."""
    vec = np.array([np.cos(theta), np.sin(theta)])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h, h_b=h, vec_b=vec)
    if kept:
        shape_functions(model, t)
    else:
        with pytest.raises(ParallelConditionError) as info:
            shape_functions(model, t)
        assert info.value.side == "B"


@pytest.mark.parametrize("factor, kept", [(0.5, True), (2.0, False)])
def test_ray_test_follows_the_real_departure(factor, kept):
    """On a decaying ray the refusal tracks the expm-defined departure
    ``|exp(-rate t) exp(M^T t) u - u|`` at the horizon, whatever ``t``."""
    t = 20.0
    h = -0.5 * SIGMA_X
    drift = local_drift_blocks(rank1_model(1.0, 1.0, 1.0, h_a=h, h_b=h))[0]

    def departure(theta):
        u = np.array([np.cos(theta), np.sin(theta)])
        rate = u @ drift.T @ u
        return np.linalg.norm(np.exp(-rate * t) * expm(drift.T * t) @ u - u)

    # the departure is linear in theta this close to the ray
    theta = factor * RAY_TOL * 1e-10 / departure(1e-10)
    vec = np.array([np.cos(theta), np.sin(theta)])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h, h_b=h, vec_a=vec)
    if kept:
        shape_functions(model, t)
    else:
        with pytest.raises(ParallelConditionError):
            shape_functions(model, t)
