"""Tests for protocol synthesis, channel algebra, and the damped bound."""

import numpy as np
import pytest

from gausep.dynamics import evolve
from gausep.generators import (
    GeneralCoupling,
    MatrixWhiteNoise,
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
    build_generator,
)
from gausep.locc import (
    InfeasibleProtocolError,
    LoccProtocol,
    MemoryCoefficients,
    Rank1Channel,
    build_rank1_protocol,
    channel_step,
    damped_bound,
    effective_generator,
    ohmic_d_coefficients,
    protocol_from_dict,
    protocol_to_dict,
    run_protocol,
    solve_correlated,
    solve_symmetric,
    synthesize_general,
)
from gausep.separability import BoundKind, threshold
from gausep.symplectic import CovarianceMatrix, ModeLayout, is_physical


def rank1_model(k, s_a, s_b, s_ab=0.0, h_a=None, h_b=None):
    zero = np.zeros((2, 2))
    return SystemModel(
        layout=ModeLayout(1, 1),
        h_a=zero if h_a is None else h_a,
        h_b=zero if h_b is None else h_b,
        coupling=Rank1Coupling(1.0 * k, np.array([1.0, 0.0]), np.array([1.0, 0.0])),
        noise=ScalarWhiteNoise(s_a=s_a, s_b=s_b, s_ab=s_ab),
    )


def general_model(rng, n_a, n_b, sigma_scale):
    """Matrix-noise model whose whitened coupling has top singular value sigma_scale."""
    layout = ModeLayout(n_a, n_b)
    r_a = rng.standard_normal((layout.dim_a, layout.dim_a))
    r_b = rng.standard_normal((layout.dim_b, layout.dim_b))
    q_a = r_a @ r_a.T + 0.1 * np.eye(layout.dim_a)
    q_b = r_b @ r_b.T + 0.1 * np.eye(layout.dim_b)
    x = rng.standard_normal((layout.dim_a, layout.dim_b))
    x *= sigma_scale / np.linalg.svd(x, compute_uv=False)[0]
    wa, ea = np.linalg.eigh(q_a)
    wb, eb = np.linalg.eigh(q_b)
    root_a = (ea * np.sqrt(wa)) @ ea.T
    root_b = (eb * np.sqrt(wb)) @ eb.T
    h_a = rng.standard_normal((layout.dim_a, layout.dim_a))
    h_b = rng.standard_normal((layout.dim_b, layout.dim_b))
    return SystemModel(
        layout=layout,
        h_a=0.5 * (h_a + h_a.T),
        h_b=0.5 * (h_b + h_b.T),
        coupling=GeneralCoupling(matrix=root_a @ x @ root_b),
        noise=MatrixWhiteNoise(q_a=q_a, q_b=q_b),
    )


def test_solve_symmetric_worked_example():
    sol = solve_symmetric(4.0, 1.0, np.sqrt(3.0))
    np.testing.assert_allclose([sol.gamma_a, sol.gamma_b], [3.0, 0.75], rtol=1e-12)
    minus = solve_symmetric(4.0, 1.0, np.sqrt(3.0), branch="minus")
    np.testing.assert_allclose([minus.gamma_a, minus.gamma_b], [1.0, 0.25], rtol=1e-12)


def test_solve_symmetric_budget_identity():
    """gamma_a plus the fed-noise term reproduces the local spectrum exactly."""
    rng = np.random.default_rng(4)
    for _ in range(100):
        s_a, s_b = rng.uniform(0.1, 4.0, 2)
        k = np.sqrt(s_a * s_b * rng.uniform(0.0, 1.0))
        sol = solve_symmetric(s_a, s_b, k)
        np.testing.assert_allclose(sol.gamma_a + k**2 / (4 * sol.gamma_b), s_a, rtol=1e-10)
        np.testing.assert_allclose(sol.gamma_b + k**2 / (4 * sol.gamma_a), s_b, rtol=1e-10)


def test_solve_symmetric_branches_coincide_at_saturation():
    plus = solve_symmetric(2.0, 2.0, 2.0)
    minus = solve_symmetric(2.0, 2.0, 2.0, branch="minus")
    np.testing.assert_allclose(plus.gamma_a, minus.gamma_a, rtol=1e-12)
    np.testing.assert_allclose(plus.gamma_a, 1.0, rtol=1e-12)


def test_solve_symmetric_infeasible_records_margin():
    with pytest.raises(InfeasibleProtocolError) as err:
        solve_symmetric(1.0, 1.0, 2.0)
    np.testing.assert_allclose(err.value.margin, -3.0)


def test_solve_correlated_worked_example():
    sol = solve_correlated(np.sqrt(2.0), np.sqrt(2.0), 1.0, 1.0)
    np.testing.assert_allclose(sol.gamma_a, np.sqrt(2.0) / 4, rtol=1e-12)
    np.testing.assert_allclose(sol.kappa_a, 2 * sol.gamma_a, rtol=1e-12)
    np.testing.assert_allclose(sol.kappa_b, 2 * sol.gamma_b, rtol=1e-12)


def test_solve_correlated_budget_identities():
    """Both local budgets and the shared-record cross spectrum come out exact."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        s_a, s_b = rng.uniform(0.1, 4.0, 2)
        tau_sq = s_a * s_b * rng.uniform(0.05, 0.95)
        k = np.sqrt(tau_sq * rng.uniform(0.2, 0.99))
        s_ab = np.sqrt(tau_sq - k**2)
        sol = solve_correlated(s_a, s_b, k, s_ab)
        eff_a = sol.gamma_a + k**2 / (4 * sol.gamma_b) + sol.kappa_a**2 / (4 * sol.gamma_a)
        eff_b = sol.gamma_b + k**2 / (4 * sol.gamma_a) + sol.kappa_b**2 / (4 * sol.gamma_b)
        cross = k * sol.kappa_a / (4 * sol.gamma_a) + k * sol.kappa_b / (4 * sol.gamma_b)
        np.testing.assert_allclose([eff_a, eff_b, cross], [s_a, s_b, s_ab], rtol=1e-9)


def test_solve_correlated_needs_a_carrier():
    with pytest.raises(InfeasibleProtocolError):
        solve_correlated(2.0, 2.0, 0.0, 1.0)


def test_effective_generator_matches_target():
    """Protocol average reproduces drift and diffusion entrywise."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        s_a, s_b = rng.uniform(0.2, 4.0, 2)
        tau_sq = s_a * s_b * rng.uniform(0.05, 0.95)
        k = np.sqrt(tau_sq * rng.uniform(0.3, 1.0))
        s_ab = rng.choice([0.0, 1.0]) * np.sqrt(tau_sq - k**2)
        h = rng.standard_normal((2, 2))
        model = rank1_model(k, s_a, s_b, s_ab, h_a=0.5 * (h + h.T))
        protocol = build_rank1_protocol(model, branch=rng.choice(["plus", "minus"]))
        eff = effective_generator(protocol)
        target = build_generator(model)
        np.testing.assert_allclose(eff.drift, target.drift, atol=1e-12)
        np.testing.assert_allclose(eff.diffusion, target.diffusion, atol=1e-12)


def test_one_way_feed_forward_is_rejected():
    """A single unbalanced channel has a non-Hamiltonian averaged drift."""
    layout = ModeLayout(1, 1)
    ch = Rank1Channel(
        side="A", gamma=1.0, vec=np.array([1.0, 0.0]),
        lam=1.0, feed_vec=np.array([1.0, 0.0]),
    )
    protocol = LoccProtocol(layout=layout, channels=(ch,),
                            local_hamiltonian=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        effective_generator(protocol)


def test_one_way_feed_forward_is_rejected_at_lab_scale():
    ch = Rank1Channel(
        side="A", gamma=1e-12, vec=np.array([1.0, 0.0]),
        lam=1e-12, feed_vec=np.array([1.0, 0.0]),
    )
    protocol = LoccProtocol(layout=ModeLayout(1, 1), channels=(ch,),
                            local_hamiltonian=np.zeros((4, 4)))
    with pytest.raises(ValueError, match="unbalanced"):
        effective_generator(protocol)


def test_channel_step_preserves_physicality():
    ch = Rank1Channel(side="A", gamma=0.7, vec=np.array([1.0, 0.0]))
    v = CovarianceMatrix.vacuum(ModeLayout(1, 1))
    for _ in range(20):
        v = channel_step(v, ch, 0.05)
    assert is_physical(v)


def test_protocol_trotter_converges_at_first_order():
    model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
    protocol = build_rank1_protocol(model)
    target = build_generator(model)
    v0 = CovarianceMatrix.vacuum(model.layout)
    exact = evolve(target, v0, 0.1).matrix
    errs = [
        np.abs(run_protocol(v0, protocol, 0.1, n).matrix - exact).max()
        for n in (100, 200)
    ]
    assert 1.7 < errs[0] / errs[1] < 2.3


def test_synthesize_general_matches_target():
    rng = np.random.default_rng(7)
    for _ in range(25):
        model = general_model(rng, 2, 2, sigma_scale=rng.uniform(0.2, 0.9))
        protocol = synthesize_general(model)
        eff = effective_generator(protocol)
        target = build_generator(model)
        scale = max(1.0, np.abs(target.drift).max(), np.abs(target.diffusion).max())
        assert np.abs(eff.drift - target.drift).max() < 1e-10 * scale
        assert np.abs(eff.diffusion - target.diffusion).max() < 1e-10 * scale


def test_synthesize_general_infeasible_above_unit_singular_value():
    rng = np.random.default_rng(8)
    model = general_model(rng, 2, 1, sigma_scale=1.3)
    with pytest.raises(InfeasibleProtocolError):
        synthesize_general(model)


def test_synthesize_general_range_condition():
    """Coupling outside a rank-deficient noise range is infeasible outright."""
    layout = ModeLayout(1, 1)
    model = SystemModel(
        layout=layout,
        h_a=np.zeros((2, 2)),
        h_b=np.zeros((2, 2)),
        coupling=GeneralCoupling(matrix=np.array([[0.0, 0.0], [0.3, 0.0]])),
        noise=MatrixWhiteNoise(q_a=np.diag([1.0, 0.0]), q_b=np.eye(2)),
    )
    with pytest.raises(InfeasibleProtocolError):
        synthesize_general(model)


def test_protocol_roundtrip():
    model = rank1_model(1.0, 2.0, 3.0, s_ab=0.5)
    protocol = build_rank1_protocol(model)
    back = protocol_from_dict(protocol_to_dict(protocol))
    assert len(back.channels) == len(protocol.channels)
    np.testing.assert_array_equal(back.local_hamiltonian, protocol.local_hamiltonian)
    for ours, theirs in zip(protocol.channels, back.channels):
        assert ours.side == theirs.side
        np.testing.assert_array_equal(ours.vec, theirs.vec)
        assert ours.gamma == theirs.gamma
        assert ours.kappa == theirs.kappa


def test_ohmic_coefficients_vanish_for_a_free_mass():
    coeffs = ohmic_d_coefficients(rank1_model(1.0, 2.0, 2.0), c2=0.3)
    assert coeffs.d_aa == coeffs.d_bb == coeffs.d_ab == coeffs.d_ba == 0.0


def test_ohmic_coefficients_scaling_dynamics():
    b = 0.7
    h = np.array([[0.0, b], [b, 0.0]])
    coeffs = ohmic_d_coefficients(rank1_model(1.0, 2.0, 2.0, h_a=h, h_b=h), c2=0.2)
    np.testing.assert_allclose(coeffs.d_aa, 0.2 * b, rtol=1e-12)
    np.testing.assert_allclose(coeffs.d_bb, 0.2 * b, rtol=1e-12)
    assert coeffs.d_ab == coeffs.d_ba == 0.0


def test_ohmic_coefficients_reject_rotating_rays():
    with pytest.raises(ValueError):
        ohmic_d_coefficients(rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2)), c2=0.1)


def test_damped_bound_reduces_to_plain_threshold():
    model = rank1_model(1.2, 2.0, 3.0)
    plain = threshold(model)
    damped = damped_bound(model, MemoryCoefficients(0.0, 0.0, 0.0, 0.0))
    assert damped.bound_kind is BoundKind.DAMPED
    assert damped.satisfied == plain.satisfied
    np.testing.assert_allclose(damped.margin, plain.margin, rtol=1e-14)


def test_damped_bound_hand_example_is_tight():
    model = rank1_model(1.0, 4.0, 4.0)
    verdict = damped_bound(model, MemoryCoefficients(1.0, 0.5, 0.5, 1.0))
    np.testing.assert_allclose(verdict.margin, 0.0, atol=1e-15)
    assert verdict.satisfied


def test_damped_bound_exhausted_budget():
    verdict = damped_bound(rank1_model(0.1, 1.0, 1.0), MemoryCoefficients(0.6, 0.0, 0.0, 0.0))
    assert not verdict.satisfied
    assert "budget" in verdict.reason
