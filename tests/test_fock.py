"""Tests for the dense truncated-space oracle."""

import contextlib
import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import expm

from gausep import fock
from gausep.dynamics import evolve
from gausep.fock import (
    _join_sectors,
    _matmul_add,
    _rhs_work,
    _sector_views,
    _split_sectors,
    _taylor_schedule,
    FockSpace,
    build_fock_generator,
    extract_covariance,
    fock_generator_from_model,
    kraus_average_step,
    lindblad_integrate,
    lindblad_rhs,
    log_negativity_dense,
    protocol_kraus_step,
    squeezed_vacuum,
)
from gausep.generators import (
    GeneralCoupling,
    MatrixWhiteNoise,
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
    build_generator,
    hamiltonian_form,
    noise_form,
)
from gausep.gravity import GRAVITATIONAL_CONSTANT, MediatorScenario, to_model
from gausep.locc import (
    LoccProtocol,
    Rank1Channel,
    build_rank1_protocol,
    channel_step,
    effective_generator,
    protocol_step,
    synthesize_general,
)
from gausep.separability import log_negativity, ppt_multimode
from gausep.symplectic import CovarianceMatrix, ModeLayout


def rank1_model(k, s_a, s_b, s_ab=0.0, h_a=None, h_b=None):
    zero = np.zeros((2, 2))
    return SystemModel(
        layout=ModeLayout(1, 1),
        h_a=zero if h_a is None else h_a,
        h_b=zero if h_b is None else h_b,
        coupling=Rank1Coupling(1.0 * k, np.array([1.0, 0.0]), np.array([1.0, 0.0])),
        noise=ScalarWhiteNoise(s_a=s_a, s_b=s_b, s_ab=s_ab),
    )


def test_quadrature_commutator():
    """[x, p] = i holds away from the truncation edge."""
    space = FockSpace(8, ModeLayout(1, 0))
    x, p = space.position(), space.momentum()
    comm = x @ p - p @ x
    np.testing.assert_allclose(comm[:7, :7], 1j * np.eye(8)[:7, :7], atol=1e-12)


def test_vacuum_covariance_is_half_identity():
    space = FockSpace(6, ModeLayout(1, 1))
    cov = extract_covariance(space, space.vacuum())
    np.testing.assert_allclose(cov.matrix, 0.5 * np.eye(4), atol=1e-12)


def test_squeezed_vacuum_variances():
    space = FockSpace(24, ModeLayout(1, 0))
    rho = squeezed_vacuum(space, 0.4)
    x, p = space.position(), space.momentum()
    var_x = float(np.real(np.trace(rho @ x @ x)))
    var_p = float(np.real(np.trace(rho @ p @ p)))
    np.testing.assert_allclose(var_x, np.exp(-0.8) / 2, rtol=1e-8)
    np.testing.assert_allclose(var_p, np.exp(0.8) / 2, rtol=1e-8)


def test_product_state_composes_covariances():
    space_1 = FockSpace(20, ModeLayout(1, 0))
    rho = np.kron(squeezed_vacuum(space_1, 0.2), squeezed_vacuum(space_1, -0.3))
    cov = extract_covariance(FockSpace(20, ModeLayout(1, 1)), rho)
    expected = np.diag(
        [np.exp(-0.4) / 2, np.exp(0.4) / 2, np.exp(0.6) / 2, np.exp(-0.6) / 2]
    )
    np.testing.assert_allclose(cov.matrix, expected, atol=1e-8)


def test_dense_evolution_matches_moment_flow():
    """Second moments of the dense solver track the exact covariance flow."""
    model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
    gen = build_generator(model)
    fgen = fock_generator_from_model(model, cutoff=12)
    t = 0.02
    rho = lindblad_integrate(fgen, fgen.space.vacuum(), t)
    dense_cov = extract_covariance(fgen.space, rho)
    exact_cov = evolve(gen, CovarianceMatrix.vacuum(model.layout), t)
    np.testing.assert_allclose(dense_cov.matrix, exact_cov.matrix, atol=1e-7)
    assert float(np.real(np.trace(rho))) == pytest.approx(1.0, abs=1e-9)


def test_kraus_step_matches_gaussian_channel_map():
    """The record-averaged step reproduces the exact finite-dt channel map."""
    space = FockSpace(12, ModeLayout(1, 1))
    for vec in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
        ch = Rank1Channel(
            side="A", gamma=0.9, vec=vec, lam=0.8,
            feed_vec=np.array([1.0, 0.0]), kappa=0.3,
        )
        rho, defect = kraus_average_step(space, space.vacuum(), ch, 1e-3)
        dense_cov = extract_covariance(space, rho)
        gauss = channel_step(CovarianceMatrix.vacuum(ModeLayout(1, 1)), ch, 1e-3)
        np.testing.assert_allclose(dense_cov.matrix, gauss.matrix, atol=1e-9)
        assert defect < 1e-9


def test_kraus_step_on_measured_eigenbasis_is_trace_exact():
    """With no feed-forward the multiplier is diagonal-exact, defect roundoff."""
    space = FockSpace(10, ModeLayout(1, 1))
    ch = Rank1Channel(side="B", gamma=1.2, vec=np.array([1.0, 0.0]))
    _, defect = kraus_average_step(space, space.vacuum(), ch, 5e-3)
    assert defect < 1e-12


def test_protocol_kraus_step_tracks_the_semigroup():
    model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
    protocol = build_rank1_protocol(model)
    eff = effective_generator(protocol)
    space = FockSpace(12, ModeLayout(1, 1))
    fgen = build_fock_generator(space, eff.hamiltonian, eff.noise_quadratic)
    dt = 2e-3
    stepped, defect = protocol_kraus_step(space, space.vacuum(), protocol, dt)
    semigroup = lindblad_integrate(fgen, space.vacuum(), dt)
    assert np.abs(stepped - semigroup).max() < 1e-5
    assert defect < 1e-9


def eigenbasis(cutoff, vec):
    """Eigenvalues and eigenvectors of ``vec . (x, p)`` on one mode."""
    one = FockSpace(cutoff, ModeLayout(1, 0))
    return np.linalg.eigh(vec[0] * one.position() + vec[1] * one.momentum())


def elementwise_kraus_average(space, rho, channel, dt, tol=1e-12, orders=(20, 40, 60)):
    """Record average with the multiplier built entry by entry on the full space."""
    c = space.cutoff
    m_vals, m_basis = eigenbasis(c, channel.vec)
    if channel.feed_vec is None:
        f_vals, f_basis = np.zeros(c), np.eye(c)
    else:
        f_vals, f_basis = eigenbasis(c, channel.feed_vec)
    ones = np.ones(c)
    if channel.side == "A":
        basis = np.kron(m_basis, f_basis)
        x_m, x_f = np.kron(m_vals, ones), np.kron(ones, f_vals)
    else:
        basis = np.kron(f_basis, m_basis)
        x_m, x_f = np.kron(ones, m_vals), np.kron(f_vals, ones)
    delta_m = x_m[:, None] - x_m[None, :]
    mean_m = 0.5 * (x_m[:, None] + x_m[None, :])
    phi = channel.lam * (x_f[:, None] - x_f[None, :]) + channel.kappa * delta_m
    prefactor = np.exp(-0.5 * channel.gamma * dt * delta_m**2 - 1j * dt * mean_m * phi)
    c_arg = phi * np.sqrt(dt / (2.0 * channel.gamma))
    w_prev, change = None, np.inf
    for order in orders:
        nodes, weights = hermgauss(order)
        w = np.zeros_like(prefactor)
        for x, weight in zip(nodes, weights):
            w += weight * np.exp(-1j * c_arg * x)
        w *= prefactor / np.sqrt(np.pi)
        if w_prev is not None:
            change = float(np.abs(w - w_prev).max())
        w_prev = w
        if change <= tol:
            break
    out = basis @ ((basis.conj().T @ rho @ basis) * w_prev) @ basis.conj().T
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real, order


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("feed", [True, False])
@pytest.mark.parametrize("vacuum", [True, False])
def test_factored_kraus_average_matches_the_elementwise_multiplier(side, feed, vacuum):
    cutoff = 7
    space = FockSpace(cutoff, ModeLayout(1, 1))
    rho = space.vacuum() if vacuum else random_state(space.dim, 3)
    ch = Rank1Channel(
        side=side,
        gamma=1.3,
        vec=np.array([0.6, 0.8]),
        lam=0.7 if feed else 0.0,
        feed_vec=np.array([0.28, -0.96]) if feed else None,
        kappa=0.4,
    )
    for dt in (1e-3, 0.2):
        out, _ = kraus_average_step(space, rho, ch, dt)
        expected, _ = elementwise_kraus_average(space, rho, ch, dt)
        assert np.abs(out - expected).max() < 1e-13


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("vacuum", [True, False])
def test_position_kraus_average_matches_the_elementwise_multiplier(side, vacuum):
    """Position directions have real eigenbases: the basis changes run on float pairs."""
    space = FockSpace(7, ModeLayout(1, 1))
    rho = space.vacuum() if vacuum else random_state(space.dim, 3)
    ch = Rank1Channel(
        side=side, gamma=1.3, vec=np.array([1.0, 0.0]), lam=0.7,
        feed_vec=np.array([-1.0, 0.0]), kappa=0.4,
    )
    for dt in (1e-3, 0.2):
        out, _ = kraus_average_step(space, rho, ch, dt)
        expected, _ = elementwise_kraus_average(space, rho, ch, dt)
        assert np.abs(out - expected).max() < 1e-13


def mirrored_pair(lam_b):
    """The two channels of a rank-1 protocol, channel B's gain set to ``lam_b``."""
    ch_a = Rank1Channel(
        side="A", gamma=1.3, vec=np.array([1.0, 0.0]), lam=0.7,
        feed_vec=np.array([1.0, 0.0]), kappa=0.4,
    )
    return ch_a, dataclasses.replace(ch_a, side="B", gamma=0.9, lam=lam_b, kappa=-0.3)


@pytest.mark.parametrize("cutoff", [8, 12, 16])
def test_protocol_unitary_matches_the_dense_exponential(cutoff):
    """The grouped step equals the channels one by one, then the dense exponential.

    U_A (x) U_B comes from one-mode exponentials; the reference is expm of
    the two-mode Hamiltonian.  The mirrored pair of a rank-1 protocol takes
    one multiplier with a rank-one phase, and a pair in the same bases
    whose cross terms do not cancel (unequal gains) its channels' own phases.
    """
    h_a = np.array([[1.0, 0.3], [0.3, 0.5]])
    h_b = np.array([[0.7, -0.2], [-0.2, 1.1]])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h_a, h_b=h_b)
    space = FockSpace(cutoff, ModeLayout(1, 1))
    dt = 0.05
    h_loc = build_rank1_protocol(model).local_hamiltonian
    h, _, _ = dense_generator(space, h_loc, np.zeros_like(h_loc))
    u = expm(-1j * h.toarray() * dt)
    for protocol in (
        build_rank1_protocol(model),
        LoccProtocol(model.layout, (), h_loc),
        LoccProtocol(model.layout, mirrored_pair(lam_b=0.5), h_loc),
    ):
        for rho in (space.vacuum(), random_state(space.dim, 5)):
            expected = rho
            for ch in protocol.channels:
                expected, _ = kraus_average_step(space, expected, ch, dt)
            expected = u @ expected @ u.conj().T
            stepped, _ = protocol_kraus_step(space, rho, protocol, dt)
            assert np.abs(stepped - expected).max() < 1e-14


def test_kraus_average_is_the_exact_record_integral():
    """Multiplier entries equal the record integral by mpmath quadrature.

    At this long step the record phase reaches ``k ~ 25``, where Gauss-Hermite
    sums of order 60 do not converge; the entry with equal measured and
    extreme fed eigenvalues is ``~e^-150`` exactly.
    """
    c, dt = 12, 10.0
    space = FockSpace(c, ModeLayout(1, 1))
    ch = Rank1Channel(
        side="A", gamma=0.5, vec=np.array([1.0, 0.0]), lam=1.0,
        feed_vec=np.array([0.0, 1.0]), kappa=1.0,
    )
    m_vals, m_basis = eigenbasis(c, ch.vec)
    f_vals, f_basis = eigenbasis(c, ch.feed_vec)
    basis = np.kron(m_basis, f_basis)  # joint eigenvectors |a, b>, A measured

    def record_integral(u, v):
        (a, b), (a2, b2) = u, v
        delta_m, mean_m = m_vals[a] - m_vals[a2], 0.5 * (m_vals[a] + m_vals[a2])
        phi = ch.kappa * delta_m + ch.lam * (f_vals[b] - f_vals[b2])
        k = phi * math.sqrt(dt / (2.0 * ch.gamma))
        with mpmath.workdps(30):
            integral = mpmath.quad(
                lambda y: mpmath.exp(-y * y - 1j * k * y), mpmath.linspace(-12, 12, 49)
            ) / mpmath.sqrt(mpmath.pi)
        prefactor = np.exp(-0.5 * ch.gamma * dt * delta_m**2 - 1j * dt * mean_m * phi)
        return prefactor * complex(integral)

    for u, v in (((5, 0), (5, 11)), ((5, 5), (6, 6)), ((4, 3), (6, 7))):
        pair = basis[:, [np.ravel_multi_index(w, (c, c)) for w in (u, v)]]
        # populations 1/2 and coherence 1/4 on |u>, |v>, so <u|out|v> = W_uv / 4
        rho = pair @ np.array([[0.5, 0.25], [0.25, 0.5]]) @ pair.conj().T
        out, _ = kraus_average_step(space, rho, ch, dt)
        entry = pair[:, 0].conj() @ out @ pair[:, 1]
        assert abs(entry - 0.25 * record_integral(u, v)) < 1e-13


def test_protocol_step_changes_basis_once_per_distinct_basis_plus_once(monkeypatch):
    calls = []
    conjugate = fock._conjugate

    def counted(*args):
        calls.append(1)
        return conjugate(*args)

    monkeypatch.setattr(fock, "_conjugate", counted)
    harmonic = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))  # locc_harmonic
    protocol = build_rank1_protocol(harmonic)
    ch_a, ch_b = protocol.channels
    momentum_feed = dataclasses.replace(ch_a, feed_vec=np.array([0.0, 1.0]))
    space = FockSpace(6, ModeLayout(1, 1))
    for stepped, count in (
        (protocol, 2),  # both channels in the bases (x_A, x_B): one group
        (LoccProtocol(protocol.layout, (), protocol.local_hamiltonian), 1),
        # (x_A, p_B), then (x_A, x_B)
        (LoccProtocol(protocol.layout, (momentum_feed, ch_b), protocol.local_hamiltonian), 3),
    ):
        calls.clear()
        protocol_kraus_step(space, space.vacuum(), stepped, 1e-3)
        assert len(calls) == count


def direct_exponent(channel, cutoff, dt):
    """A multiplier's complex exponent, entry by entry on ``(a, b, a', b')``."""
    m_vals, _ = fock._eigenbasis(cutoff, 1, tuple(channel.vec))
    f_vals, _ = fock._eigenbasis(cutoff, 1, tuple(channel.feed_vec))
    measured, fed = (0, 1) if channel.side == "A" else (1, 0)
    idx = np.indices((cutoff,) * 4)
    m, m2 = m_vals[idx[measured]], m_vals[idx[measured + 2]]
    f, f2 = f_vals[idx[fed]], f_vals[idx[fed + 2]]
    phi = channel.kappa * (m - m2) + channel.lam * (f - f2)
    real = -dt * (0.5 * channel.gamma * (m - m2) ** 2 + phi**2 / (8.0 * channel.gamma))
    phase = -0.5 * dt * (m + m2) * phi
    # the largest angle of any one factor a channel's own phases multiply
    pieces = 0.5 * dt * (
        abs(channel.kappa * (m - m2) * (m + m2))
        + abs(channel.lam) * (abs(m) + abs(m2)) * (abs(f) + abs(f2))
    )
    return real, phase, pieces


@pytest.mark.parametrize("side", ["A", "B", "mirrored"])
def test_multiplier_factors_match_the_complex_exponent_at_a_long_step(side):
    """At cutoff 20 and dt = 10 the exponent reaches thousands; the factors stay bounded.

    Each factor carries a relative error of a few eps per unit of its
    exponent, so an entry ``W = e^R e^{i Phi}`` may differ from the direct
    formula by ``16 eps e^R (1 + |R| + angles)``, ``angles`` the magnitudes
    of the phases multiplied (summed over the channels), plus the spacing of
    the subnormals where ``e^R`` underflows.  A mirrored pair (equal
    ``lam``) is one multiplier: the exponential of the summed ``R`` times
    ``u(a, b) u(a', b')^*``, with ``u = exp(-i dt (kappa_A alpha^2 / 2 +
    kappa_B beta^2 / 2 + lam alpha beta))`` over the eigenvalues ``alpha``
    and ``beta`` of the two modes.
    """
    c, dt = 20, 10.0
    measure, feed = np.array([1.0, 0.0]), np.array([0.6, 0.8])
    ch = Rank1Channel(
        side="B" if side == "B" else "A", gamma=0.5, vec=measure, lam=2.5,
        feed_vec=feed, kappa=2.0,
    )
    assert ch.kappa * ch.lam / ch.gamma >= 10
    channels = (ch,)
    if side == "mirrored":
        channels += (
            Rank1Channel(side="B", gamma=0.8, vec=feed, lam=2.5, feed_vec=measure, kappa=-1.5),
        )
    scratch = np.empty((2,) + (c,) * 4)
    factors = fock._group_factors(FockSpace(c, ModeLayout(1, 1)), channels, dt, scratch)
    w = np.ones((c,) * 4, dtype=complex)
    for factor in factors:
        w *= factor
    exponents = [direct_exponent(channel, c, dt) for channel in channels]
    real, phase, pieces = (sum(parts) for parts in zip(*exponents))
    expected = np.exp(real + 1j * phase)
    if side == "mirrored":
        # the real exponential and one phase on the rows, its conjugate on the columns
        assert [f.shape for f in factors[1:]] == [(c, c, 1, 1), (1, 1, c, c)]
    eps = np.finfo(float).eps
    assert np.isfinite(w).all()
    assert np.abs(w).max() <= 1.0 + 4 * eps
    bound = 16 * eps * np.exp(real) * (1 + abs(real) + pieces) + np.finfo(float).tiny
    assert (np.abs(w - expected) <= bound).all()
    diagonal = np.diagonal(w.reshape(c * c, c * c))
    assert np.abs(diagonal - 1.0).max() <= 4 * eps
    assert real.min() < -1e3 and pieces.max() > 1e2  # the long step is long


def test_real_and_complex_basis_changes_agree():
    """Real one-mode factors act on float pairs; the complex path gives the same."""
    c = 7
    rho = random_state(c * c, 11)
    rng = np.random.default_rng(12)
    u_a, u_b = (np.linalg.qr(rng.normal(size=(c, c)))[0] for _ in range(2))
    real, complex_ = (
        fock._conjugate(rho.copy(), a, b, np.empty_like(rho))
        for a, b in ((u_a, u_b), (u_a.astype(complex), u_b.astype(complex)))
    )
    assert np.abs(real - complex_).max() <= 1e-14
    m = np.kron(u_a, u_b)
    assert np.abs(real - m @ rho @ m.T).max() <= 1e-14


def test_position_eigenbases_are_real():
    for vec in ((1.0, 0.0), (-0.5, 0.0), None):
        assert not np.iscomplexobj(fock._eigenbasis(8, 1, vec)[1])
    assert np.iscomplexobj(fock._eigenbasis(8, 1, (0.6, 0.8))[1])
    for vec in ((0.6, 0.0, 0.8, 0.0), None):
        assert not np.iscomplexobj(fock._eigenbasis(5, 2, vec)[1])
    assert np.iscomplexobj(fock._eigenbasis(5, 2, (0.6, 0.0, 0.0, 0.8))[1])


@pytest.mark.parametrize("vec", [(0.6, 0.0, 0.8, 0.0), (0.6, 0.3, 0.0, -0.74)])
def test_side_eigenbasis_diagonalizes_the_two_mode_quadrature(vec):
    """A two-mode side's basis is ``eigh`` of ``vec . R`` on its own product grid."""
    c = 5
    values, basis = fock._eigenbasis(c, 2, vec)
    side = FockSpace(c, ModeLayout(2, 0))
    op = sum(v * q.toarray() for v, q in zip(vec, side._quadratures))
    assert basis.shape == (c * c, c * c)
    assert np.abs(op @ basis - basis * values).max() <= 1e-13


def wide_channel(part):
    """A channel with a 4-component measured (``vec``) or fed (``feed_vec``) direction."""
    wide, narrow = np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 0.0])
    return Rank1Channel(
        side="A", gamma=1.0, lam=0.5, kappa=0.2,
        vec=wide if part == "vec" else narrow,
        feed_vec=wide if part == "feed_vec" else narrow,
    )


@pytest.mark.parametrize("part", ["vec", "feed_vec"])
def test_channel_step_refuses_a_direction_of_another_side_size(part):
    """A channel is checked against the space's layout by the protocol's own rule."""
    space = FockSpace(6, ModeLayout(1, 1))
    with pytest.raises(ValueError, match="does not match"):
        kraus_average_step(space, space.vacuum(), wide_channel(part), 1e-3)


@pytest.mark.parametrize("layout", [(1, 0), (1, 2), (2, 1)])
def test_kraus_steps_refuse_a_space_of_another_layout(layout):
    """One-mode channels and a 1+1 protocol need the 1+1 space."""
    model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
    protocol = build_rank1_protocol(model)
    space = FockSpace(4, ModeLayout(*layout))
    with pytest.raises(ValueError, match="does not match"):
        kraus_average_step(space, space.vacuum(), protocol.channels[0], 1e-3)
    with pytest.raises(ValueError, match="protocol.s layout does not match the space.s"):
        protocol_kraus_step(space, space.vacuum(), protocol, 1e-3)


def test_generic_direction_keeps_one_lindblad_per_noise_direction():
    """Roundoff-sized eigenvalues of the noise form do not become operators."""
    model = SystemModel(
        layout=ModeLayout(1, 1),
        h_a=np.eye(2),
        h_b=np.eye(2),
        coupling=Rank1Coupling(1.0, np.array([0.6, 0.8]), np.array([0.28, 0.96])),
        noise=ScalarWhiteNoise(s_a=2.0, s_b=2.0),
    )
    q = noise_form(model)
    fgen = fock_generator_from_model(model, cutoff=4)
    assert len(fgen.split_lindblads) == np.linalg.matrix_rank(q) == 2


def test_dense_log_negativity_matches_gaussian():
    """A dense two-mode squeezed state reproduces the closed-form E_N."""
    r = 0.3
    space = FockSpace(14, ModeLayout(1, 1))
    a = np.diag(np.sqrt(np.arange(1, 14)), 1)
    eye = np.eye(14)
    ab = np.kron(a, a)
    u = expm(r * (ab - ab.conj().T))
    rho = u @ space.vacuum() @ u.conj().T
    c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    z = np.diag([1.0, -1.0])
    v = CovarianceMatrix(
        np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]]), ModeLayout(1, 1)
    )
    np.testing.assert_allclose(
        log_negativity_dense(space, rho), log_negativity(v), atol=1e-8
    )
    assert ppt_multimode(v).npt


def test_leakage_guard_trips_on_a_tight_cutoff():
    model = rank1_model(2.0, 3.0, 3.0)
    fgen = fock_generator_from_model(model, cutoff=3)
    with pytest.raises(RuntimeError):
        lindblad_integrate(fgen, fgen.space.vacuum(), 0.5)


def test_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1, ModeLayout(1, 0))
    with pytest.raises(ValueError, match="from 2 to 10 on 3 modes"):
        FockSpace(11, ModeLayout(1, 2))
    assert FockSpace(10, ModeLayout(2, 1)).dim == 1000
    assert FockSpace(1024, ModeLayout(1, 0)).dim == 1024


def test_cutoff_is_capped_before_any_operator_is_built():
    with pytest.raises(ValueError, match="cutoff must be from 2 to 32"):
        FockSpace(10**9)
    assert FockSpace(32).dim == 32**2


def dense_liouvillian(operators):
    """Column-stacked superoperator: vec(A X B) = (B^T kron A) vec(X)."""
    _, half, lindblads = operators
    half = half.toarray()
    eye = np.eye(half.shape[0])
    sup = np.kron(eye, half) + np.kron(half.conj(), eye)
    for rate, op in lindblads:
        dense = op.toarray()
        sup += rate * np.kron(dense.T, dense)
    return sup


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


def correlated_model():
    """Generic coupling direction, correlated baths, unequal local frequencies."""
    coupling = Rank1Coupling(0.7, np.array([0.6, 0.8]), np.array([1.0, 0.0]))
    return SystemModel(
        layout=ModeLayout(1, 1),
        h_a=np.diag([1.0, 0.5]),
        h_b=np.array([[0.8, 0.1], [0.1, 0.6]]),
        coupling=coupling,
        noise=ScalarWhiteNoise(s_a=0.9, s_b=0.7, s_ab=0.3),
    )


@pytest.mark.parametrize("cutoff, t", [(4, 0.05), (4, 1.5), (5, 0.4)])
def test_integrator_matches_the_liouvillian_exponential(cutoff, t):
    """Exact to roundoff, over one substep and over several."""
    model = correlated_model()
    fgen = fock_generator_from_model(model, cutoff)
    rho0 = random_state(fgen.space.dim, cutoff)
    operators = dense_generator(fgen.space, hamiltonian_form(model), noise_form(model))
    exact = expm(t * dense_liouvillian(operators)) @ rho0.reshape(-1, order="F")
    rho = lindblad_integrate(fgen, rho0, t, leakage_limit=1.0)
    assert np.abs(rho - exact.reshape(rho0.shape, order="F")).max() <= 1e-13


def test_integrator_composes_exactly():
    """One call to t equals five calls to t/5."""
    fgen = fock_generator_from_model(correlated_model(), cutoff=12)
    t = 0.05
    once = lindblad_integrate(fgen, fgen.space.vacuum(), t)
    chunked = fgen.space.vacuum()
    for _ in range(5):
        chunked = lindblad_integrate(fgen, chunked, t / 5)
    assert np.abs(once - chunked).max() <= 1e-13


def test_rhs_matches_the_dense_master_equation():
    model = correlated_model()
    fgen = fock_generator_from_model(model, cutoff=6)
    rho = random_state(fgen.space.dim, 3)
    h, _, lindblads = dense_generator(fgen.space, hamiltonian_form(model), noise_form(model))
    h = h.toarray()
    expected = -1j * (h @ rho - rho @ h)
    for rate, op in lindblads:
        dense = op.toarray()
        sq = dense @ dense
        expected += rate * (dense @ rho @ dense - 0.5 * (sq @ rho + rho @ sq))
    blocks = lindblad_rhs(fgen, _split_sectors(fgen.space, rho))
    np.testing.assert_allclose(
        _join_sectors(fgen.space, blocks), expected, rtol=0, atol=1e-13
    )


def test_dense_entanglement_matches_gaussian_at_cutoff_twenty():
    """A strongly coupled model below threshold, checked at a cutoff of 20."""
    model = rank1_model(1.5, 0.5, 0.6, h_a=np.eye(2), h_b=np.eye(2))
    gen = build_generator(model)
    fgen = fock_generator_from_model(model, cutoff=20)
    t = 0.01
    rho = lindblad_integrate(fgen, fgen.space.vacuum(), t)
    exact_cov = evolve(gen, CovarianceMatrix.vacuum(model.layout), t)
    np.testing.assert_allclose(
        extract_covariance(fgen.space, rho).matrix, exact_cov.matrix, atol=1e-12
    )
    dense_ln = log_negativity_dense(fgen.space, rho)
    assert dense_ln > 1e-2
    assert abs(dense_ln - log_negativity(exact_cov)) <= 1e-12


def test_in_place_accumulate_equals_the_public_product():
    """Pins the private scipy kernel behind ``csr_array @ ndarray``."""
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(40, 30)) + 1j * rng.normal(size=(40, 30))
    a = sp.csr_array(np.where(rng.random((40, 30)) < 0.2, dense, 0.0))
    x = rng.normal(size=(30, 7)) + 1j * rng.normal(size=(30, 7))
    out = np.zeros((40, 7), dtype=complex)
    _matmul_add(a, x, out)
    np.testing.assert_array_equal(out, a @ x)
    start = rng.normal(size=(40, 7)) + 1j * rng.normal(size=(40, 7))
    out = start.copy()
    _matmul_add(a, x, out)
    np.testing.assert_allclose(out, start + a @ x, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        _matmul_add(a, x, np.zeros((7, 40), dtype=complex).T)
    with pytest.raises(ValueError):
        _matmul_add(a, x.real.copy(), np.zeros((40, 7), dtype=complex))
    with pytest.raises(ValueError):
        _matmul_add(a, x, np.zeros((30, 7), dtype=complex))


def six_product_rhs(operators, rho):
    """Right-hand side on any ``rho``: ``half rho + rho half^dagger + sum r L rho L``,
    for ``operators`` from :func:`dense_generator`."""
    _, half, lindblads = operators
    rho_h = rho.conj().T
    out = half @ rho + (half @ rho_h).conj().T
    for rate, op in lindblads:
        out += rate * (op @ (op @ rho_h).conj().T)
    return out


def reference_integrate(fgen, operators, rho, t, degree=30):
    """Taylor series of ``six_product_rhs`` on substeps of norm at most one."""
    steps = max(1, math.ceil(t * fgen.norm_bound))
    rho = rho.astype(complex)
    for _ in range(steps):
        term = rho
        for k in range(1, degree + 1):
            term = six_product_rhs(operators, term) * (t / (steps * k))
            rho = rho + term
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def test_integrator_matches_the_six_product_reference():
    model = correlated_model()
    fgen = fock_generator_from_model(model, cutoff=8)
    operators = dense_generator(fgen.space, hamiltonian_form(model), noise_form(model))
    rho0 = random_state(fgen.space.dim, 8)
    for t in (0.01, 0.3):
        rho = lindblad_integrate(fgen, rho0, t, leakage_limit=1.0)
        assert np.abs(rho - reference_integrate(fgen, operators, rho0, t)).max() <= 1e-14


def high_occupation_state(cutoff, seed):
    """Random state whose populations grow towards the highest retained level."""
    n = np.arange(cutoff)
    weight = np.sqrt(1.0 + np.add.outer(n, n).ravel()) ** 3
    rho = random_state(cutoff**2, seed) * np.outer(weight, weight)
    return rho / np.trace(rho)


@pytest.mark.parametrize("t", [0.01, 0.05, 0.3])
def test_high_occupation_state_matches_the_full_degree_reference(t):
    model = correlated_model()
    fgen = fock_generator_from_model(model, cutoff=8)
    operators = dense_generator(fgen.space, hamiltonian_form(model), noise_form(model))
    rho0 = high_occupation_state(8, 12)
    reference = reference_integrate(fgen, operators, rho0, t)
    rho = lindblad_integrate(fgen, rho0, t, leakage_limit=1.0)
    assert np.abs(rho - reference).max() <= 1e-15 * np.abs(reference).max()


def tail_bound_stop(fgen, operators, rho, t):
    """First term of a one-substep series after which the tail is negligible.

    With ``x = t norm_bound`` and ``k + 1 > x``, every term after ``T_k`` is
    bounded by ``||T_k||_s x / (k + 1 - x)`` in the entrywise 1-norm; the
    series may stop once that is at most ``2^-54 tr rho``.
    """
    degree, steps = _taylor_schedule(fgen, t)
    assert steps == 1
    x = t * fgen.norm_bound
    floor = 2.0**-54 * np.trace(rho).real
    term = rho
    for k in range(1, degree + 1):
        term = six_product_rhs(operators, term) * (t / k)
        if k + 1 > x and np.abs(term).sum() * x / (k + 1 - x) <= floor:
            return k
    return degree


def test_a_vacuum_chunk_stops_at_the_tail_bound_whatever_the_cutoff(monkeypatch):
    """Terms decay with the occupied levels, not with the cutoff."""
    model = rank1_model(0.9, 0.8, 0.95, h_a=0.5 * np.eye(2), h_b=0.5 * np.eye(2))
    calls = []
    rhs = fock.lindblad_rhs

    def counting_rhs(*args, **kwargs):
        calls.append(None)
        return rhs(*args, **kwargs)

    monkeypatch.setattr(fock, "lindblad_rhs", counting_rhs)
    used = {}
    for cutoff in (12, 16, 24):
        fgen = fock_generator_from_model(model, cutoff)
        vacuum = fgen.space.vacuum()
        calls.clear()
        lindblad_integrate(fgen, vacuum, 0.01)
        used[cutoff] = len(calls)
        operators = dense_generator(fgen.space, hamiltonian_form(model), noise_form(model))
        assert used[cutoff] == tail_bound_stop(fgen, operators, vacuum, 0.01)
        assert used[cutoff] < _taylor_schedule(fgen, 0.01)[0]
    assert len(set(used.values())) == 1


def test_rhs_buffers_are_filled_and_returned():
    model = correlated_model()
    fgen = fock_generator_from_model(model, cutoff=6)
    space = fgen.space
    rho = random_state(fgen.space.dim, 4)
    rho = 0.5 * (rho + rho.conj().T)
    blocks = _split_sectors(space, rho)
    out = {g: tuple(np.full_like(b, np.nan) for b in pair) for g, pair in blocks.items()}
    work = _rhs_work(space)
    for buffer in work:
        buffer.fill(np.nan)
    assert lindblad_rhs(fgen, blocks, out=out, work=work) is out
    joined = _join_sectors(space, out)
    fresh = _join_sectors(space, lindblad_rhs(fgen, blocks))
    np.testing.assert_array_equal(joined, fresh)
    np.testing.assert_array_equal(joined, joined.conj().T)
    operators = dense_generator(space, hamiltonian_form(model), noise_form(model))
    np.testing.assert_allclose(joined, six_product_rhs(operators, rho), rtol=0, atol=1e-14)


def test_integrated_state_is_exactly_hermitian_and_the_input_is_kept():
    fgen = fock_generator_from_model(correlated_model(), cutoff=8)
    rng = np.random.default_rng(5)
    rho0 = random_state(fgen.space.dim, 9)
    rho0 = rho0 + 1e-12 * rng.normal(size=rho0.shape)  # not quite Hermitian
    kept = rho0.copy()
    rho = lindblad_integrate(fgen, rho0, 0.2, leakage_limit=1.0)
    np.testing.assert_array_equal(rho0, kept)
    np.testing.assert_array_equal(rho, rho.conj().T)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), -0.1])
def test_integrator_rejects_a_non_finite_or_negative_time(t):
    fgen = fock_generator_from_model(correlated_model(), cutoff=4)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        lindblad_integrate(fgen, fgen.space.vacuum(), t)


def test_integrator_rejects_a_time_whose_substep_count_overflows():
    fgen = fock_generator_from_model(correlated_model(), cutoff=4)
    with pytest.raises(ValueError, match="substeps"):
        lindblad_integrate(fgen, fgen.space.vacuum(), 1e300)


def sector_block(a, space, r, c):
    """Rows of total parity ``r`` and columns of parity ``c``, dense."""
    even_odd = space.sectors
    dense = a.toarray() if sp.issparse(a) else a
    return dense[np.ix_(even_odd[r], even_odd[c])]


def test_space_sectors_split_the_basis_by_total_parity():
    for layout, cutoff in (((1, 0), 5), ((1, 1), 4), ((1, 1), 5), ((1, 2), 4)):
        space = FockSpace(cutoff, ModeLayout(*layout))
        even, odd = space.sectors
        grid = (cutoff,) * space.layout.n_modes
        total = np.array([sum(np.unravel_index(i, grid)) for i in range(space.dim)])
        assert np.all(total[even] % 2 == 0) and np.all(total[odd] % 2 == 1)
        assert sorted([*even, *odd]) == list(range(space.dim))
        # sorted by total number, so every shell-capped window is a prefix
        assert np.all(np.diff(total[even]) >= 0) and np.all(np.diff(total[odd]) >= 0)


@pytest.mark.parametrize("cutoff", [4, 5])
def test_generator_never_connects_the_two_parities(cutoff):
    """The quadratic part is block-diagonal, each Lindblad block-off-diagonal."""
    for model in (correlated_model(), rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2))):
        fgen = fock_generator_from_model(model, cutoff)
        space = fgen.space
        h, half, lindblads = dense_generator(space, hamiltonian_form(model), noise_form(model))
        for a in (half, h):
            assert not sector_block(a, space, 0, 1).any()
            assert not sector_block(a, space, 1, 0).any()
        assert len(fgen.split_lindblads) == len(lindblads)
        for (rate, op), split in zip(lindblads, fgen.split_lindblads):
            for j in (0, 1):
                assert not sector_block(op, space, j, j).any()
                np.testing.assert_allclose(
                    split[j].toarray(),
                    math.sqrt(0.5 * rate) * sector_block(op, space, j, 1 - j),
                    rtol=1e-15,
                )


def dense_quadratures(space):
    """``(x_1, p_1, ..., x_n, p_n)``, each ``I (x) q (x) I`` by dense ``np.kron``."""
    n, eye = space.layout.n_modes, np.eye(space.cutoff)
    quads = []
    for mode in range(n):
        for q in (space.position(), space.momentum()):
            factors = [eye] * n
            factors[mode] = q
            quads.append(functools.reduce(np.kron, factors))
    return quads


def dense_generator(space, g, q):
    """Reference operators from products of the dense quadratures, stored as CSR.

    Returns ``H = (1/2) xi^T G xi``, ``half = -iH - (1/2) sum_k r_k L_k^2``
    and the pairs ``(r_k, L_k)``: one quadrature ``L_k`` per eigenvector of
    ``Q`` whose rate ``r_k`` is above ``n eps`` times the largest, as
    :func:`build_fock_generator` keeps them.
    """
    quads = dense_quadratures(space)
    n = len(quads)
    zero = np.zeros((space.dim, space.dim), dtype=complex)
    h = 0.5 * sum((g[j, k] * quads[j] @ quads[k] for j, k in zip(*np.nonzero(g))), zero)
    h = 0.5 * (h + h.conj().T)
    rates, vecs = np.linalg.eigh(q)
    kept = rates > n * np.finfo(float).eps * max(rates[-1], 0.0)
    rates, vecs = rates[kept], vecs[:, kept]
    ops = [sum(v[j] * quads[j] for j in range(n)) for v in vecs.T]
    half = -1j * h - 0.5 * sum((r * op @ op for r, op in zip(rates, ops)), zero)
    lindblads = [(float(r), sp.csr_array(op)) for r, op in zip(rates, ops)]
    return sp.csr_array(h), sp.csr_array(half), lindblads


@pytest.mark.parametrize("cutoff", [5, 12])
def test_generator_and_moments_match_dense_quadrature_algebra(cutoff):
    """The shared-pattern assembly against products of dense quadratures."""
    model = correlated_model()
    fgen = fock_generator_from_model(model, cutoff)
    space = fgen.space
    quads = dense_quadratures(space)
    _, half, lindblads = dense_generator(space, hamiltonian_form(model), noise_form(model))
    half = half.toarray()
    rates = [r for r, _ in lindblads]
    ops = [op.toarray() for _, op in lindblads]
    assert len(rates) == 2  # the two nonzero rates of Q

    def close(actual, expected):
        scale = np.abs(expected).max()
        assert np.abs(actual - expected).max() <= 1e-15 * scale

    assert len(fgen.split_lindblads) == len(ops)
    for r, op, split in zip(rates, ops, fgen.split_lindblads):
        for j in (0, 1):
            expected = math.sqrt(0.5 * r) * sector_block(op, space, j, 1 - j)
            close(split[j].toarray(), expected)
    norm_bound = 2.0 * np.abs(half).sum(axis=0).max() + sum(
        r * np.abs(op).sum(axis=0).max() * np.abs(op).sum(axis=1).max()
        for r, op in zip(rates, ops)
    )
    assert fgen.norm_bound == pytest.approx(norm_bound, rel=1e-15)
    for j in (0, 1):
        block = sector_block(half, space, j, j)
        close(fgen.half_blocks[j].toarray(), block)
        assert fgen.half_blocks[j].nnz == np.count_nonzero(fgen.half_blocks[j].toarray())

    evolved = lindblad_integrate(fgen, space.vacuum(), 0.1, leakage_limit=1.0)
    for rho in (random_state(space.dim, 8), evolved):
        means = np.array([np.trace(a @ rho).real for a in quads])
        second = np.array(
            [[0.5 * np.trace((a @ b + b @ a) @ rho).real for b in quads] for a in quads]
        )
        close(extract_covariance(space, rho).matrix, second - np.outer(means, means))


def test_split_and_join_are_inverse():
    space = FockSpace(5, ModeLayout(1, 1))
    rho = random_state(space.dim, 21)
    blocks = _split_sectors(space, rho)
    np.testing.assert_array_equal(_join_sectors(space, blocks), rho)
    np.testing.assert_array_equal(blocks[1][1], rho[np.ix_(*space.sectors[::-1])])
    del blocks[1]
    joined = _join_sectors(space, blocks)
    for r, c in ((0, 1), (1, 0)):
        assert not sector_block(joined, space, r, c).any()


def test_a_vacuum_chunk_evolves_grade_zero_alone(monkeypatch):
    """Grade 1 is zero from the vacuum, is never handed to the kernel, and stays 0."""
    fgen = fock_generator_from_model(correlated_model(), cutoff=10)
    grades = set()
    rhs = fock.lindblad_rhs

    def recording_rhs(gen, term, *args, **kwargs):
        grades.update(term)
        return rhs(gen, term, *args, **kwargs)

    monkeypatch.setattr(fock, "lindblad_rhs", recording_rhs)
    rho = fgen.space.vacuum()
    for _ in range(3):
        rho = lindblad_integrate(fgen, rho, 0.05)
    assert grades == {0}
    blocks = _split_sectors(fgen.space, rho)
    assert not any(block.any() for block in blocks[1])
    assert all(np.abs(block).max() > 1e-6 for block in blocks[0])
    grades.clear()
    lindblad_integrate(fgen, random_state(fgen.space.dim, 2), 0.01, leakage_limit=1.0)
    assert grades == {0, 1}


def partial_transpose(space, rho):
    c = space.cutoff
    return rho.reshape(c, c, c, c).transpose(0, 3, 2, 1).reshape(c * c, c * c)


def full_log_negativity(space, rho):
    return float(np.log2(np.abs(np.linalg.eigvalsh(partial_transpose(space, rho))).sum()))


def negativity_and_eigvalsh_sizes(monkeypatch, space, rho):
    """``log_negativity_dense`` and the sizes of the matrices it diagonalized."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    try:
        return log_negativity_dense(space, rho), sizes
    finally:
        monkeypatch.undo()


def test_block_negativity_matches_the_full_spectrum(monkeypatch):
    model = rank1_model(1.5, 0.5, 0.6, h_a=np.eye(2), h_b=np.eye(2))
    fgen = fock_generator_from_model(model, cutoff=13)
    space = fgen.space
    evolved = lindblad_integrate(fgen, space.vacuum(), 0.01)
    a = np.diag(np.sqrt(np.arange(1, 13)), 1)
    ab = np.kron(a, a)
    squeezed = expm(0.3 * (ab - ab.T)) @ space.vacuum() @ expm(0.3 * (ab.T - ab))
    for rho in (evolved, squeezed, space.vacuum()):
        value, sizes = negativity_and_eigvalsh_sizes(monkeypatch, space, rho)
        assert len(sizes) == 2
        assert all(n <= len(s) for n, s in zip(sizes, space.sectors))
        assert abs(value - full_log_negativity(space, rho)) <= 1e-14
    assert log_negativity_dense(space, squeezed) > 0.5
    mixed = random_state(space.dim, 6)
    value, sizes = negativity_and_eigvalsh_sizes(monkeypatch, space, mixed)
    assert sizes == [space.dim]
    assert value == full_log_negativity(space, mixed)


def assert_leading_blocks_are_exact(monkeypatch, space, rho):
    """The value is the full spectrum's within 1e-14, and the entries left
    outside the leading blocks weigh at most ``eps |tr rho|`` together.
    Returns the sizes of the blocks diagonalized."""
    value, sizes = negativity_and_eigvalsh_sizes(monkeypatch, space, rho)
    assert abs(value - full_log_negativity(space, rho)) <= 1e-14
    pt = partial_transpose(space, rho)
    blocks = [pt[np.ix_(s, s)] for s in space.sectors]
    assert len(sizes) == len(blocks)
    beta = np.finfo(float).eps * abs(np.trace(rho))
    for m, n in zip(blocks, sizes):
        outside = np.ones(m.shape, dtype=bool)
        outside[:n, :n] = False
        assert np.abs(m[outside]).sum() <= beta / 2
    return sizes


def two_mode_squeezed(space, r):
    """``sum_n tanh(r)^n |n, n>``, cut at the cutoff and normalized."""
    c = space.cutoff
    psi = np.zeros(space.dim)
    psi[np.arange(c) * (c + 1)] = np.tanh(r) ** np.arange(c)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi).astype(complex)


@pytest.mark.parametrize("cutoff", [8, 10, 12, 14, 16])
def test_evolved_vacuum_negativity_from_leading_blocks(monkeypatch, cutoff):
    model = rank1_model(0.9, 0.8, 0.85, h_a=0.5 * np.eye(2), h_b=0.5 * np.eye(2))
    fgen = fock_generator_from_model(model, cutoff)
    space = fgen.space
    rho = space.vacuum()
    for _ in range(5):
        rho = lindblad_integrate(fgen, rho, 0.01)
        sizes = assert_leading_blocks_are_exact(monkeypatch, space, rho)
    assert log_negativity_dense(space, rho) > 0
    if cutoff == 16:
        assert all(n < len(s) for n, s in zip(sizes, space.sectors))


def test_squeezed_number_and_random_states_negativity_from_leading_blocks(monkeypatch):
    """Grade-mixed states take the full transpose, as the test above checks."""
    space = FockSpace(16)
    for r in (0.1, 0.4, 0.8, 1.2):
        rho = two_mode_squeezed(space, r)
        assert_leading_blocks_are_exact(monkeypatch, space, rho)
        assert log_negativity_dense(space, rho) > 0.1
    # weight on the last shell of a sector: nothing is trimmed
    top = fock_number_state(space, 15, 15)
    assert assert_leading_blocks_are_exact(monkeypatch, space, top)[0] == len(space.sectors[0])
    both = 0.5 * (top + fock_number_state(space, 15, 14))
    sizes = assert_leading_blocks_are_exact(monkeypatch, space, both)
    assert sizes == [len(s) for s in space.sectors]
    for seed in range(4):
        grade_zero = random_state(space.dim, seed)
        for i in space._block_indices[1]:
            np.put(grade_zero, i, 0.0)
        assert_leading_blocks_are_exact(monkeypatch, space, grade_zero)
    # a NaN is diagonalized, not cut off as negligible
    poisoned = top.copy()
    poisoned[2 * space.cutoff + 2, 2 * space.cutoff + 2] = np.nan  # |2, 2>
    sizes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
    with contextlib.suppress(np.linalg.LinAlgError):
        log_negativity_dense(space, poisoned)
    monkeypatch.undo()
    assert sizes[0] == len(space.sectors[0])


def test_lab_scale_indefinite_noise_form_is_refused():
    """The PSD check is relative to the largest rate, at any scale."""
    space = FockSpace(4, ModeLayout(1, 1))
    g = np.zeros((4, 4))
    for scale in (1.0, 1e-12):
        with pytest.raises(ValueError, match="positive semidefinite"):
            build_fock_generator(space, g, scale * np.diag([1.0, -10.0, 0.0, 0.0]))
        fgen = build_fock_generator(space, g, scale * np.diag([1.0, 1.0, 0.0, 0.0]))
        assert len(fgen.split_lindblads) == 2


@pytest.mark.parametrize("layout", [(1, 0), (1, 1), (1, 2), (2, 1)])
def test_quadratures_are_built_once_per_space(layout):
    space = FockSpace(4, ModeLayout(*layout))
    assert space._quadratures is space._quadratures
    assert len(space._quadratures) == space.layout.dim
    for op, dense in zip(space._quadratures, dense_quadratures(space)):
        np.testing.assert_array_equal(op.toarray(), dense)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3])
def test_channel_steps_reject_a_non_finite_or_nonpositive_dt(dt):
    model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
    protocol = build_rank1_protocol(model)
    space = FockSpace(6, ModeLayout(1, 1))
    with pytest.raises(ValueError, match="finite and positive"):
        kraus_average_step(space, space.vacuum(), protocol.channels[0], dt)
    with pytest.raises(ValueError, match="finite and positive"):
        channel_step(CovarianceMatrix.vacuum(model.layout), protocol.channels[0], dt)
    unitary_only = LoccProtocol(model.layout, (), protocol.local_hamiltonian)
    for p in (protocol, unitary_only):
        with pytest.raises(ValueError, match="finite and positive"):
            protocol_kraus_step(space, space.vacuum(), p, dt)
        with pytest.raises(ValueError, match="finite and positive"):
            protocol_step(CovarianceMatrix.vacuum(model.layout), p, dt)


# -- Taylor terms on their occupied shells ------------------------------------


def low_reach_state(space, reach, seed):
    """Random state on the basis states of total number at most ``reach``.

    It has entries of both grades, so grade 1 is evolved too.
    """
    rho = random_state(space.dim, seed)
    low = space._totals <= reach
    rho[~low, :] = 0.0
    rho[:, ~low] = 0.0
    return rho / np.trace(rho)


def fock_number_state(space, n_a, n_b):
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    index = n_a * space.cutoff + n_b
    rho[index, index] = 1.0
    return rho


def integrate_at_full_reach(monkeypatch, fgen, rho, t):
    """The integrator with every term carried over the whole blocks."""
    with monkeypatch.context() as patch:
        patch.setattr(fock, "_occupied_reach", lambda space, blocks: space.top)
        return lindblad_integrate(fgen, rho, t, leakage_limit=1.0)


@pytest.mark.parametrize("cutoff", [6, 12, 16])
@pytest.mark.parametrize(
    "state, t",
    [("vacuum", 0.01), ("vacuum", 0.3), ("one-one", 0.01), ("low-reach", 0.02)],
)
def test_windowed_terms_equal_full_reach_terms_bitwise(monkeypatch, cutoff, state, t):
    """The windows skip exact zeros only: every entry comes out the same."""
    fgen = fock_generator_from_model(correlated_model(), cutoff)
    space = fgen.space
    rho0 = {
        "vacuum": space.vacuum(),
        "one-one": fock_number_state(space, 1, 1),
        "low-reach": low_reach_state(space, 3, cutoff),
    }[state]
    if t == 0.3:
        assert _taylor_schedule(fgen, t)[1] > 1
    windowed = lindblad_integrate(fgen, rho0, t, leakage_limit=1.0)
    np.testing.assert_array_equal(windowed, integrate_at_full_reach(monkeypatch, fgen, rho0, t))


@settings(max_examples=15, deadline=None)
@given(
    reach=st.integers(0, 10),
    seed=st.integers(0, 2**16),
    t=st.sampled_from([0.005, 0.05, 0.4]),
    real_noise=st.booleans(),
)
def test_windowed_terms_equal_full_reach_terms_on_random_states(reach, seed, t, real_noise):
    model = (
        rank1_model(0.9, 0.8, 0.95, h_a=0.5 * np.eye(2), h_b=0.5 * np.eye(2))
        if real_noise
        else correlated_model()
    )
    fgen = fock_generator_from_model(model, cutoff=8)
    operators = dense_generator(fgen.space, hamiltonian_form(model), noise_form(model))
    rho0 = low_reach_state(fgen.space, reach, seed)
    windowed = lindblad_integrate(fgen, rho0, t, leakage_limit=1.0)
    with pytest.MonkeyPatch.context() as patch:
        full = integrate_at_full_reach(patch, fgen, rho0, t)
    np.testing.assert_array_equal(windowed, full)
    # and both are the series of the whole state, not of a cut of it
    assert np.abs(windowed - reference_integrate(fgen, operators, rho0, t)).max() <= 1e-13


def test_a_vacuum_chunk_hands_term_k_the_states_up_to_total_2k(monkeypatch):
    """At cutoff 24 term k multiplies at most m(2k) operator rows per block."""
    model = rank1_model(0.9, 0.8, 0.95, h_a=0.5 * np.eye(2), h_b=0.5 * np.eye(2))
    fgen = fock_generator_from_model(model, cutoff=24)
    windows = fgen.space._windows
    rows_by_term = []
    rhs, matmul_add = fock.lindblad_rhs, fock._matmul_add

    def counting_rhs(*args, **kwargs):
        rows_by_term.append([])
        return rhs(*args, **kwargs)

    def spying_matmul_add(a, x, out, rows=None):
        rows_by_term[-1].append(a.shape[0] if rows is None else rows)
        return matmul_add(a, x, out, rows)

    monkeypatch.setattr(fock, "lindblad_rhs", counting_rhs)
    monkeypatch.setattr(fock, "_matmul_add", spying_matmul_add)
    lindblad_integrate(fgen, fgen.space.vacuum(), 0.01)
    assert 1 < len(rows_by_term) < 20
    for k, rows in enumerate(rows_by_term, start=1):
        assert max(rows) == max(windows[j][2 * k] for j in (0, 1))
    assert max(rows_by_term[-1]) < len(fgen.space.sectors[0]) // 2


def test_operator_blocks_move_the_total_number_by_at_most_two():
    """The row padding of ``lindblad_rhs`` covers every column an operator row reads."""
    for cutoff in (5, 12):
        space = FockSpace(cutoff)
        totals = [space._totals[idx] for idx in space.sectors]
        for pattern, move in ((space._quadratic, 2), (space._linear, 1)):
            for (r, c), (_, rows, cols, _) in pattern.blocks.items():
                step = np.abs(totals[r][rows] - totals[c][cols])
                assert step.size == 0 or step.max() <= move


def test_windowed_rhs_is_the_whole_rhs_on_its_window():
    fgen = fock_generator_from_model(correlated_model(), cutoff=7)
    space = fgen.space
    rho = low_reach_state(space, 5, 31)
    whole = lindblad_rhs(fgen, _split_sectors(space, rho))
    size = sum(b.size for pair in whole.values() for b in pair)
    term = _sector_views(space, np.empty(size, dtype=complex), (0, 1), 5)
    for g, pair in term.items():
        for j, block in enumerate(pair):
            block[...] = _split_sectors(space, rho)[g][j][: block.shape[0], : block.shape[1]]
    work = _rhs_work(space)
    for buffer in work:
        buffer.fill(np.nan)
    windowed = lindblad_rhs(fgen, term, work=work, reach=5)
    for g in (0, 1):
        for j in (0, 1):
            rows, cols = windowed[g][j].shape
            assert (rows, cols) == (space._windows[j][7], space._windows[j ^ g][7])
            np.testing.assert_array_equal(windowed[g][j], whole[g][j][:rows, :cols])
            assert not whole[g][j][rows:].any() and not whole[g][j][:, cols:].any()
    with pytest.raises(ValueError, match="reach"):
        lindblad_rhs(fgen, term, reach=4)


def test_position_noise_is_applied_by_the_real_kernel_bitwise():
    """Real Lindblad blocks give exactly the complex kernel's right-hand side."""
    model = rank1_model(0.9, 0.8, 0.95, h_a=0.5 * np.eye(2), h_b=0.5 * np.eye(2))
    fgen = fock_generator_from_model(model, cutoff=8)
    assert all(b.dtype == np.float64 for split in fgen.split_lindblads for b in split)
    generic = fock_generator_from_model(correlated_model(), cutoff=8)
    assert all(b.dtype == np.complex128 for split in generic.split_lindblads for b in split)
    complex_splits = tuple(
        tuple(b.astype(complex) for b in split) for split in fgen.split_lindblads
    )
    as_complex = dataclasses.replace(fgen, split_lindblads=complex_splits)
    blocks = _split_sectors(fgen.space, low_reach_state(fgen.space, 14, 5))
    real, cplx = lindblad_rhs(fgen, blocks), lindblad_rhs(as_complex, blocks)
    for g in (0, 1):
        for j in (0, 1):
            np.testing.assert_array_equal(real[g][j], cplx[g][j])
    rng = np.random.default_rng(3)
    a = sp.csr_array(np.where(rng.random((9, 6)) < 0.4, rng.normal(size=(9, 6)), 0.0))
    x = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    out = np.zeros((9, 4), dtype=complex)
    _matmul_add(a, x, out)
    np.testing.assert_array_equal(out, a.astype(complex) @ x)



# -- any layout: the mediator cross-check -------------------------------------


def mediator_model(k, s_a, s_b):
    """1+2 rank-1 model: the probe A couples to ``0.6 x_M + 0.8 x_B`` of the
    mediator M and the mass B, both on side B."""
    return SystemModel(
        layout=ModeLayout(1, 2),
        h_a=np.eye(2),
        h_b=np.eye(4),
        coupling=Rank1Coupling(k, np.array([1.0, 0.0]), np.array([0.6, 0.0, 0.8, 0.0])),
        noise=ScalarWhiteNoise(s_a=s_a, s_b=s_b),
    )


def dense_chunks(model, cutoff, dt, chunks):
    """The dense state after each of ``chunks`` steps of ``dt`` from the vacuum,
    with the Gaussian covariance at the same time."""
    fgen = fock_generator_from_model(model, cutoff)
    gen, rho = build_generator(model), fgen.space.vacuum()
    for j in range(1, chunks + 1):
        rho = lindblad_integrate(fgen, rho, dt)
        yield fgen.space, rho, evolve(gen, CovarianceMatrix.vacuum(model.layout), j * dt)


def test_mediator_layout_matches_the_gaussian_route():
    """Below threshold the probe entangles with (M, B): the dense covariance and
    log-negativity across A|(M, B) follow ``evolve`` chunk by chunk."""
    model = mediator_model(1.0, 0.5, 0.5)
    values = []
    for space, rho, v in dense_chunks(model, 8, 0.01, 5):
        assert space.layout == ModeLayout(1, 2) and space.dim == 8**3
        cov = extract_covariance(space, rho)
        assert cov.layout == model.layout
        assert np.abs(cov.matrix - v.matrix).max() <= 1e-9
        values.append(log_negativity_dense(space, rho))
        assert abs(values[-1] - log_negativity(v)) <= 1e-13
        assert fock.leakage(space, rho) < 1e-10
    assert 0 < values[0] < values[-1]


def test_saturated_mediator_model_stays_ppt_at_every_chunk():
    """At the threshold ``s_a s_b = k^2`` no chunk is NPT across A|(M, B)."""
    for space, rho, v in dense_chunks(mediator_model(1.0, 0.8, 1.25), 8, 0.01, 5):
        assert log_negativity_dense(space, rho) == 0.0
        assert np.abs(extract_covariance(space, rho).matrix - v.matrix).max() <= 1e-9


def gravity_mediator_model(temperature_K):
    """A probe, a mediator and a mass B at the frequency where the
    dimensionless coupling is 1 (``gravity._rates``), with its unit record."""
    scenario = MediatorScenario(
        1.0, 1.0, 0.1, 1e-18, 1e-18, temperature_K, mass_b_kg=1.0, separation_ab_m=0.2
    )
    k_g = 2.0 * GRAVITATIONAL_CONSTANT / 0.1**3 * math.hypot(1.0, 0.125)
    return to_model(scenario, math.sqrt(k_g))


def test_gravity_mediator_scenario_runs_through_the_dense_oracle():
    """At 0.5 K the rates are of order one."""
    model, units = gravity_mediator_model(0.5)
    assert model.layout == ModeLayout(1, 2)
    assert units.coupling_dimensionless == pytest.approx(1.0, rel=1e-12)
    assert 0.1 < units.noise_a_dimensionless == units.noise_b_dimensionless < 10
    ((space, rho, v),) = dense_chunks(model, 8, 0.01, 1)
    assert np.abs(extract_covariance(space, rho).matrix - v.matrix).max() <= 1e-9
    assert abs(log_negativity_dense(space, rho) - log_negativity(v)) <= 1e-13


def kron_partial_transpose(space, rho):
    """``sum_ij (I (x) E_ij) rho (I (x) E_ij)``, the transpose on side B, from
    dense ``np.kron``: ``E_ij Y E_ij = Y_ji E_ij`` sums to ``Y^T``."""
    width = space.cutoff**space.layout.n_b
    eye = np.eye(space.dim // width)
    out = np.zeros_like(rho)
    for i in range(width):
        for j in range(width):
            unit = np.zeros((width, width))
            unit[i, j] = 1.0
            op = np.kron(eye, unit)
            out += op @ rho @ op
    return out


@settings(max_examples=30, deadline=None)
@given(
    layout=st.sampled_from([(1, 1), (1, 2), (2, 1)]),
    cutoff=st.integers(3, 4),
    seed=st.integers(0, 2**32 - 1),
    grade_zero=st.booleans(),
)
def test_block_pt_spectrum_is_the_explicit_transpose_spectrum(
    layout, cutoff, seed, grade_zero
):
    space = FockSpace(cutoff, ModeLayout(*layout))
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(space.dim, 2)) + 1j * rng.normal(size=(space.dim, 2))
    rho = psi @ psi.conj().T  # rank 2: NPT almost surely
    if grade_zero:
        grid = (cutoff,) * space.layout.n_modes
        parity = np.array([sum(np.unravel_index(i, grid)) % 2 for i in range(space.dim)])
        rho[parity[:, None] != parity] = 0.0
    rho /= np.trace(rho)
    explicit = np.linalg.eigvalsh(kron_partial_transpose(space, rho))
    reference = float(np.log2(np.abs(explicit).sum()))
    assert abs(log_negativity_dense(space, rho) - reference) <= 1e-14
    if grade_zero:
        blocks = np.concatenate(
            [np.linalg.eigvalsh(np.take(rho, i)) for i in space._pt_blocks]
        )
        np.testing.assert_allclose(np.sort(blocks), explicit, rtol=0, atol=1e-14)


# -- the Kraus step on any layout ---------------------------------------------


def two_pair_model():
    """2+2 model with a general coupling inside both noise ranges."""
    coupling = np.diag([0.3, 0.2, 0.2, 0.1])
    coupling[0, 2] = coupling[2, 0] = 0.1
    return SystemModel(
        layout=ModeLayout(2, 2),
        h_a=np.diag([1.0, 1.0, 0.7, 0.7]),
        h_b=np.array([[0.9, 0.1, 0, 0], [0.1, 0.8, 0, 0], [0, 0, 1.2, 0], [0, 0, 0, 1.2]]),
        coupling=GeneralCoupling(matrix=coupling),
        noise=MatrixWhiteNoise(
            q_a=np.diag([0.6, 0.5, 0.4, 0.5]), q_b=np.diag([0.5, 0.4, 0.6, 0.5])
        ),
    )


@pytest.mark.parametrize(
    "case, cutoff", [("mediator", 6), ("mediator", 8), ("two pairs", 4)]
)
def test_kraus_steps_on_more_modes_a_side_converge_at_first_order_and_stay_ppt(case, cutoff):
    """Above threshold the LOCC steps approach the semigroup as O(dt) from the
    vacuum, and no step makes the state NPT across the sides: the 1 K
    mediator model's rank-1 protocol (1+2) and a 2+2 synthesized one."""
    if case == "mediator":
        model = gravity_mediator_model(1.0)[0]
        protocol = build_rank1_protocol(model)
    else:
        model = two_pair_model()
        protocol = synthesize_general(model)
        assert len(protocol.channels) == 8
    fgen = fock_generator_from_model(model, cutoff)
    space, t = fgen.space, 0.01
    assert space.layout == protocol.layout != ModeLayout(1, 1)
    exact = lindblad_integrate(fgen, space.vacuum(), t, leakage_limit=1e-6)
    errors = []
    for n in (10, 20):
        rho = space.vacuum()
        for _ in range(n):
            rho, defect = protocol_kraus_step(space, rho, protocol, t / n)
            assert defect < 1e-12
            assert log_negativity_dense(space, rho) == 0.0
        errors.append(np.abs(np.linalg.eigvalsh(rho - exact)).sum())
    assert abs(math.log2(errors[0] / errors[1]) - 1.0) <= 0.05


@pytest.mark.parametrize("shape", [(20, 20), (4, 4, 4, 4), (16,)])
@pytest.mark.parametrize("entry", ["split", "negativity", "covariance", "integrate", "kraus"])
def test_every_oracle_entry_point_refuses_a_state_of_another_shape(entry, shape):
    """A state that is not ``dim x dim`` (16 x 16 here) is refused by name,
    also at t = 0 and by both Kraus steps."""
    model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
    fgen = fock_generator_from_model(model, 4)
    space, protocol = fgen.space, build_rank1_protocol(model)
    rho = np.zeros(shape, dtype=complex)
    rho.flat[0] = 1.0
    calls = {
        "split": [functools.partial(_split_sectors, space, rho)],
        "negativity": [functools.partial(log_negativity_dense, space, rho)],
        "covariance": [functools.partial(extract_covariance, space, rho)],
        "integrate": [functools.partial(lindblad_integrate, fgen, rho, t) for t in (0.0, 0.01)],
        "kraus": [
            functools.partial(protocol_kraus_step, space, rho, protocol, 1e-3),
            functools.partial(kraus_average_step, space, rho, protocol.channels[0], 1e-3),
        ],
    }[entry]
    for call in calls:
        with pytest.raises(ValueError, match=r"is not 16 x 16"):
            call()
