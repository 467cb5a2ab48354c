"""Tests for model assembly and the moment-level generator."""

import numpy as np
import pytest

from gausep.generators import (
    GeneralCoupling,
    MatrixWhiteNoise,
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
    build_generator,
    coupling_form,
    hamiltonian_form,
    local_drift_blocks,
    model_from_dict,
    model_to_dict,
    moment_equations,
    noise_form,
)
from gausep.symplectic import CovarianceMatrix, ModeLayout, build_form


def rank1_model(k=1.0, s_a=2.0, s_b=2.0, s_ab=0.0, h_a=None, h_b=None):
    layout = ModeLayout(1, 1)
    zero = np.zeros((2, 2))
    return SystemModel(
        layout=layout,
        h_a=zero if h_a is None else h_a,
        h_b=zero if h_b is None else h_b,
        coupling=Rank1Coupling(strength=k, vec_a=np.array([1.0, 0.0]), vec_b=np.array([1.0, 0.0])),
        noise=ScalarWhiteNoise(s_a=s_a, s_b=s_b, s_ab=s_ab),
    )


def random_general_model(rng, n_a=2, n_b=1):
    layout = ModeLayout(n_a, n_b)
    h_a = rng.standard_normal((layout.dim_a, layout.dim_a))
    h_b = rng.standard_normal((layout.dim_b, layout.dim_b))
    r_a = rng.standard_normal((layout.dim_a, layout.dim_a))
    r_b = rng.standard_normal((layout.dim_b, layout.dim_b))
    return SystemModel(
        layout=layout,
        h_a=0.5 * (h_a + h_a.T),
        h_b=0.5 * (h_b + h_b.T),
        coupling=GeneralCoupling(matrix=rng.standard_normal((layout.dim_a, layout.dim_b))),
        noise=MatrixWhiteNoise(q_a=r_a @ r_a.T, q_b=r_b @ r_b.T),
    )


def test_hamiltonian_form_blocks():
    """Local blocks on the diagonal, the rank-1 cross term off-diagonal."""
    h_a = np.array([[1.0, 0.2], [0.2, 0.5]])
    model = rank1_model(k=0.7, h_a=h_a)
    g = hamiltonian_form(model)
    np.testing.assert_array_equal(g[:2, :2], h_a)
    np.testing.assert_allclose(g[:2, 2:], 0.7 * np.outer([1.0, 0.0], [1.0, 0.0]))
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_array_equal(g[:2, 2:], coupling_form(model)[:2, 2:])


def test_noise_form_rank1():
    """Scalar spectra sit on the measured quadratures, cross term symmetrized."""
    model = rank1_model(s_a=3.0, s_b=5.0, s_ab=2.0)
    q = noise_form(model)
    expected = np.zeros((4, 4))
    expected[0, 0] = 3.0
    expected[2, 2] = 5.0
    expected[0, 2] = expected[2, 0] = 2.0
    np.testing.assert_array_equal(q, expected)


def test_drift_is_omega_times_form():
    rng = np.random.default_rng(0)
    model = random_general_model(rng)
    gen = build_generator(model)
    omega = build_form(model.layout)
    np.testing.assert_allclose(gen.drift, omega @ gen.hamiltonian, atol=1e-14)
    np.testing.assert_allclose(gen.diffusion, omega @ gen.noise_quadratic @ omega.T, atol=1e-14)


def test_moment_equations_match_finite_difference():
    """The quoted derivative agrees with a numerical derivative of the flow."""
    from gausep.dynamics import evolve

    rng = np.random.default_rng(1)
    model = random_general_model(rng, n_a=1, n_b=1)
    gen = build_generator(model)
    v = CovarianceMatrix.vacuum(model.layout)
    dt = 1e-6
    forward = evolve(gen, v, dt).matrix
    backward = evolve(gen, v, 2 * dt).matrix
    deriv = (4 * forward - backward - 3 * v.matrix) / (2 * dt)
    np.testing.assert_allclose(moment_equations(gen, v), deriv, atol=1e-7)


def test_local_drift_blocks_drop_the_coupling():
    model = rank1_model(k=2.0, h_a=np.eye(2), h_b=0.5 * np.eye(2))
    drift_a, drift_b = local_drift_blocks(model)
    gen_free = build_generator(rank1_model(k=0.0, h_a=np.eye(2), h_b=0.5 * np.eye(2)))
    np.testing.assert_allclose(drift_a, gen_free.drift[:2, :2], atol=1e-14)
    np.testing.assert_allclose(drift_b, gen_free.drift[2:, 2:], atol=1e-14)


def test_model_roundtrip_rank1():
    model = rank1_model(k=1.3, s_a=2.0, s_b=1.0, s_ab=0.5, h_a=np.eye(2))
    back = model_from_dict(model_to_dict(model))
    np.testing.assert_array_equal(back.h_a, model.h_a)
    assert back.coupling.strength == model.coupling.strength
    assert back.noise.s_ab == model.noise.s_ab


def test_model_roundtrip_general():
    rng = np.random.default_rng(2)
    model = random_general_model(rng)
    back = model_from_dict(model_to_dict(model))
    np.testing.assert_array_equal(back.coupling.matrix, model.coupling.matrix)
    np.testing.assert_array_equal(back.noise.q_a, model.noise.q_a)
    assert back.layout == model.layout


def test_validation_rejects_mismatched_pairings():
    layout = ModeLayout(1, 1)
    zero = np.zeros((2, 2))
    with pytest.raises(ValueError):
        SystemModel(
            layout=layout,
            h_a=zero,
            h_b=zero,
            coupling=Rank1Coupling(1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0])),
            noise=MatrixWhiteNoise(q_a=np.eye(2), q_b=np.eye(2)),
        )


def test_validation_rejects_oversized_cross_spectrum():
    with pytest.raises(ValueError):
        rank1_model(s_a=1.0, s_b=1.0, s_ab=1.5)


def test_validation_rejects_negative_noise():
    with pytest.raises(ValueError):
        rank1_model(s_a=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validation_rejects_non_finite_entries(bad):
    vec = np.array([1.0, bad])
    mat = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="finite"):
        rank1_model(k=bad)
    with pytest.raises(ValueError, match="finite"):
        rank1_model(s_b=bad)
    with pytest.raises(ValueError, match="finite"):
        rank1_model(h_a=mat)
    with pytest.raises(ValueError, match="finite"):
        SystemModel(
            layout=ModeLayout(1, 1),
            h_a=np.zeros((2, 2)),
            h_b=np.zeros((2, 2)),
            coupling=Rank1Coupling(strength=1.0, vec_a=vec, vec_b=np.array([1.0, 0.0])),
            noise=ScalarWhiteNoise(s_a=2.0, s_b=2.0),
        )
    for coupling, q_b in ((mat, np.eye(2)), (np.eye(2), mat)):
        with pytest.raises(ValueError, match="finite"):
            SystemModel(
                layout=ModeLayout(1, 1),
                h_a=np.zeros((2, 2)),
                h_b=np.zeros((2, 2)),
                coupling=GeneralCoupling(matrix=coupling),
                noise=MatrixWhiteNoise(q_a=np.eye(2), q_b=q_b),
            )


def test_validation_judges_lab_scale_forms_by_their_own_size():
    def general(q_a):
        return SystemModel(
            layout=ModeLayout(1, 1),
            h_a=np.zeros((2, 2)),
            h_b=np.zeros((2, 2)),
            coupling=GeneralCoupling(matrix=np.zeros((2, 2))),
            noise=MatrixWhiteNoise(q_a=q_a, q_b=1e-12 * np.eye(2)),
        )

    with pytest.raises(ValueError, match="positive semidefinite"):
        general(np.diag([1e-12, -1e-11]))
    with pytest.raises(ValueError, match="symmetric"):
        general(np.array([[1e-12, 5e-12], [0.0, 1e-12]]))
    general(1e-12 * np.eye(2))
