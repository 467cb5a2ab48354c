"""Tests for exact propagation and the first-order picture."""

import json
from pathlib import Path

import mpmath
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
    _expm,
    _van_loan,
    check_perturbative_window,
    cross_integral,
    evolve,
    first_order_terms,
    shape_functions,
    transition_blocks,
)
from gausep.gravity import TwoMassScenario, to_model
from gausep.generators import (
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
    build_generator,
    local_drift_blocks,
    model_from_dict,
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
        approx = first_order_terms(model, t).to_lab().matrix
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


# -- the matrix exponential -------------------------------------------------

# Bound on |_expm(A) - scipy.linalg.expm(A)| / max|e^A| over the matrices
# below.  The largest difference seen, 1.5e-12 at n = 3, |A|_1 = 20, is
# scipy's own error: _expm is within 3e-16 of a 40-digit exponential there.
SCIPY_AGREEMENT = 5e-12
# 1-norms in every degree's band (thresholds 0.015, 0.25, 0.95, 2.1, 5.4)
# and past them, where the input is scaled and the result squared
NORMS = (1e-8, 1e-4, 1e-2, 0.2, 0.9, 2.0, 2.3, 5.0, 20.0, 100.0)
CONFIGS = Path(__file__).parents[1] / "configs"


def relative_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def van_loan_block(name):
    model = model_from_dict(json.loads((CONFIGS / f"{name}.json").read_text())["model"])
    gen = build_generator(model)
    n = gen.drift.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n], aug[:n, n:], aug[n:, n:] = gen.drift, gen.diffusion, -gen.drift.T
    return aug


@pytest.mark.parametrize("n", range(1, 25))
def test_expm_agrees_with_scipy_on_random_matrices(n):
    for norm in NORMS:
        a = np.random.default_rng([n, int(norm * 1e8)]).standard_normal((n, n))
        a *= norm / np.abs(a).sum(axis=0).max()
        assert relative_gap(_expm(a), expm(a)) <= SCIPY_AGREEMENT, norm


@pytest.mark.parametrize("name", ["entangling", "locc_harmonic", "sweep_onset", "two_mass_free"])
@pytest.mark.parametrize("t", [1e-3, 0.1, 0.5, 5.0])
def test_expm_agrees_with_scipy_on_the_van_loan_block_of_each_config(name, t):
    aug = van_loan_block(name)
    assert relative_gap(_expm(aug, t), expm(aug * t)) <= SCIPY_AGREEMENT


@pytest.mark.parametrize("name, t", [("entangling", 0.5), ("locc_harmonic", 5.0)])
def test_expm_matches_a_30_digit_exponential(name, t):
    """Degree 13 unscaled, and scaled by 2^-2 then squared twice."""
    aug = van_loan_block(name) * t
    with mpmath.workdps(30):
        exact = np.array(mpmath.expm(mpmath.matrix(aug.tolist())).tolist(), dtype=float)
    assert relative_gap(_expm(aug), exact) <= 1e-15


@pytest.mark.parametrize("temperature", [1e-3, 1.0, 300.0])
@pytest.mark.parametrize("gamma", [1e-6, 1e-3, 1.0])
@pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
def test_van_loan_blocks_of_lab_models_match_a_50_digit_exponential(temperature, gamma, t):
    """A thermal drive up to 8e13 against a unit drift costs no squarings.

    Each block is within ``eps max(8, |A t|_1)`` relative of the exponential
    to 50 digits: 1.8e-15 up to ``|A t|_1 = 8``, and beyond that as much as
    the squarings the drift's own norm needs leave of the rotation
    ``exp(A t)`` (7.0e-16 seen at ``t = 10``, 6.7e-15 at 100).  Choosing the
    squarings from the whole block read up to 8.3e-9 at ``t = 1`` and
    6.3e-7 at 100.
    """
    scenario = TwoMassScenario(1e-14, 1e-14, 1e-6, gamma, gamma, temperature)
    gen = build_generator(to_model(scenario, 1.0)[0])
    a, q, n = gen.drift, gen.diffusion, len(gen.drift)
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n], aug[:n, n:], aug[n:, n:] = a, q, -a.T
    with mpmath.workdps(50):
        exact = mpmath.expm(mpmath.matrix(aug.tolist()) * mpmath.mpf(t))
        exact = np.array(exact.tolist(), dtype=float)
    bound = np.finfo(float).eps * max(8.0, np.abs(a).sum(axis=0).max() * t)
    phi, f12 = _van_loan(a, q, a.T, t)
    assert relative_gap(phi, exact[:n, :n]) <= bound
    assert relative_gap(f12, exact[:n, n:]) <= bound
    # a zero drift (a free mass) leaves q t, scaled or not
    zero = np.zeros_like(a)
    phi, f12 = _van_loan(zero, q, zero, t)
    assert np.array_equal(phi, np.eye(n))
    assert relative_gap(f12, q * t) <= np.finfo(float).eps


@pytest.mark.parametrize("theta", [1.495585217958292e-2, 2.539398330063230e-1,
                                   9.504178996162932e-1, 2.097847961257068e0])
@pytest.mark.parametrize("factor", [-1.2, -0.99, 0.99, 1.2])
def test_expm_is_accurate_on_both_sides_of_each_degree_threshold(theta, factor):
    """``exp(c I + d E_14) = e^c (I + d E_14)`` exactly, ``E_14^2 = 0``; with
    ``|c|`` just under a threshold (Higham 2005, table 2.3) its degree serves
    it at its largest norm, just over it the next degree does.  Within 4.0 eps at every point;
    degree 9 kept up to |c| = 2.6 reads 31 eps at |c| = 1.2 theta_9."""
    c = factor * theta
    a = c * np.eye(4)
    a[0, 3] = 1e-3
    exact = np.exp(c) * (np.eye(4) + np.eye(4, k=3) * 1e-3)
    assert np.abs(_expm(a) - exact).max() <= 8 * np.finfo(float).eps * np.exp(c)


def test_expm_is_exact_on_diagonal_input():
    assert _expm(np.array([[0.7]]))[0, 0] == np.exp(0.7)
    assert _expm(np.array([[-2.0]]), 0.25)[0, 0] == np.exp(-0.5)
    assert np.array_equal(_expm(np.zeros((5, 5))), np.eye(5))
    d = np.array([-3.0, 0.0, 1e-9, 2.5, 40.0])
    assert np.array_equal(_expm(np.diag(d)), np.diag(np.exp(d)))
    assert np.array_equal(_expm(np.diag(d), 0.5), np.diag(np.exp(0.5 * d)))
    assert np.array_equal(_expm(np.ones((3, 3)), 0.0), np.eye(3))


def test_expm_overflows_to_non_finite_values_without_raising():
    cases = [
        (np.array([[0.0, 2.0], [1.0, 0.0]]), 1e300),  # |a t| finite, e^(a t) not
        (np.array([[0.0, 2.0], [1.0, 0.0]]), 1.7e308),  # |a t|_1 overflows
        (np.full((3, 3), 1e308), 1.0),  # the column sums overflow
        (np.diag([1.0, 800.0]), 1.0),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for a, t in cases:
            assert not np.isfinite(_expm(a, t)).all()


def test_expm_of_a_huge_nilpotent_matrix_is_exact():
    """exp(A) = I + A when A^2 = 0, however far the scaling takes it."""
    column = np.array([[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]])
    for a in (np.array([[0.0, 1e308], [0.0, 0.0]]), column):  # column sums overflow
        assert np.array_equal(_expm(a), np.eye(len(a)) + a)


@pytest.mark.parametrize(
    "a, t",
    [
        (np.array([[0.0, np.nan], [0.0, 0.0]]), 1.0),
        (np.array([[np.inf, 0.0], [0.0, 0.0]]), 1.0),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.inf),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.nan),
    ],
)
def test_expm_refuses_non_finite_input(a, t):
    with pytest.raises(ValueError, match="non-finite"):
        _expm(a, t)
