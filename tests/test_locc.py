"""Tests for protocol synthesis, channel algebra, and the damped bound."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from gausep import locc
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
    protocol_step,
    run_protocol,
    solve_correlated,
    solve_symmetric,
    synthesize_general,
)
from gausep.separability import BoundKind, threshold
from gausep.symplectic import CovarianceMatrix, ModeLayout, build_form, is_physical


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


def channel_by_channel(v, protocol, t, steps):
    """Every step as each channel's own map, then the local unitary."""
    dt = t / steps
    s_loc = expm(build_form(protocol.layout) @ protocol.local_hamiltonian * dt)
    for _ in range(steps):
        for ch in protocol.channels:
            v = channel_step(v, ch, dt, protocol.layout)
        v = CovarianceMatrix(s_loc @ v.matrix @ s_loc.T, protocol.layout)
    return v


def test_composed_step_matches_channel_by_channel_application():
    rng = np.random.default_rng(11)
    correlated = SystemModel(
        layout=ModeLayout(1, 1),
        h_a=np.array([[1.0, 0.2], [0.2, 0.6]]),
        h_b=np.eye(2),
        coupling=Rank1Coupling(0.8, np.array([0.6, 0.8]), np.array([0.28, 0.96])),
        noise=ScalarWhiteNoise(s_a=2.0, s_b=1.5, s_ab=0.4),
    )
    protocols = [
        build_rank1_protocol(correlated),
        synthesize_general(general_model(rng, 2, 2, sigma_scale=0.7)),
    ]
    assert protocols[0].channels[0].kappa != 0.0  # record-sharing kicks on both sides
    for protocol in protocols:
        v0 = CovarianceMatrix.vacuum(protocol.layout)
        for t, steps in ((0.05, 1), (0.1, 100), (0.3, 7)):
            expected = channel_by_channel(v0, protocol, t, steps).matrix
            assert np.abs(run_protocol(v0, protocol, t, steps).matrix - expected).max() < 1e-13
        one = protocol_step(v0, protocol, 0.05).matrix
        assert np.abs(one - channel_by_channel(v0, protocol, 0.05, 1).matrix).max() < 1e-13


def rank1_and_general_protocols():
    """The rank-1 (record sharing on both sides) and 2+2 general protocols above."""
    correlated = SystemModel(
        layout=ModeLayout(1, 1),
        h_a=np.array([[1.0, 0.2], [0.2, 0.6]]),
        h_b=np.eye(2),
        coupling=Rank1Coupling(0.8, np.array([0.6, 0.8]), np.array([0.28, 0.96])),
        noise=ScalarWhiteNoise(s_a=2.0, s_b=1.5, s_ab=0.4),
    )
    general = general_model(np.random.default_rng(11), 2, 2, sigma_scale=0.7)
    return [build_rank1_protocol(correlated), synthesize_general(general)]


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 8, 100, 1000])
def test_run_protocol_equals_repeated_protocol_steps(steps):
    eps = np.finfo(float).eps
    for protocol in rank1_and_general_protocols():
        v0 = CovarianceMatrix.vacuum(protocol.layout)
        for t in (0.05, 0.3):
            v = v0
            for _ in range(steps):
                v = protocol_step(v, protocol, t / steps)
            powered = run_protocol(v0, protocol, t, steps).matrix
            # the explicit loop rounds once per step, up to an ulp of max|V| each
            tol = 1e-13 + 2 * steps * eps * np.abs(v.matrix).max()
            assert np.abs(powered - v.matrix).max() < tol


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 8, 100, 1000, 2**20 - 1, 10**9])
def test_run_protocol_composes_logarithmically_often(monkeypatch, steps):
    protocol = rank1_and_general_protocols()[0]
    step = locc._affine_step(protocol, 0.1 / steps)
    calls = []

    def counted(second, first):
        calls.append(1)
        return compose(second, first)

    compose = locc._compose
    monkeypatch.setattr(locc, "_affine_step", lambda *args: step)
    monkeypatch.setattr(locc, "_compose", counted)
    run_protocol(CovarianceMatrix.vacuum(protocol.layout), protocol, 0.1, steps)
    assert len(calls) <= 2 * math.ceil(math.log2(steps)) + 1


def test_billion_steps_match_the_effective_semigroup():
    """At dt = t / 1e9 the splitting error is far below roundoff.

    The step map is rounded once and used 1e9 times, so the result may
    differ from the semigroup by about an ulp of max|V| per step; the bound
    is the CLI's allowance of four.
    """
    steps = 10**9
    for protocol in rank1_and_general_protocols():
        v0 = CovarianceMatrix.vacuum(protocol.layout)
        exact = evolve(effective_generator(protocol), v0, 0.3).matrix
        powered = run_protocol(v0, protocol, 0.3, steps).matrix
        tol = 4 * steps * np.finfo(float).eps * np.abs(exact).max()
        assert np.abs(powered - exact).max() < tol


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


def test_damped_bound_and_synthesis_refuse_underflowing_products():
    """s_a s_b = 1e-341 < k^2 = 1e-340: violated, but both sides underflow."""
    model = rank1_model(1e-170, 1e-170, 1e-171)
    with pytest.raises(ValueError, match="unresolved"):
        damped_bound(model, MemoryCoefficients(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="unresolved"):
        solve_symmetric(1e-170, 1e-171, 1e-170)
