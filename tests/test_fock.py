"""Tests for the dense truncated-space oracle."""

import math

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import expm

from gausep import fock
from gausep.dynamics import evolve
from gausep.fock import (
    _join_sectors,
    _matmul_add,
    _rhs_work,
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
    product_state,
    protocol_kraus_step,
    squeezed_vacuum,
)
from gausep.generators import (
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
    build_generator,
    hamiltonian_form,
    noise_form,
)
from gausep.locc import (
    LoccProtocol,
    Rank1Channel,
    build_rank1_protocol,
    channel_step,
    effective_generator,
    protocol_step,
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
    space = FockSpace(8, modes=1)
    x, p = space.position(), space.momentum()
    comm = x @ p - p @ x
    np.testing.assert_allclose(comm[:7, :7], 1j * np.eye(8)[:7, :7], atol=1e-12)


def test_vacuum_covariance_is_half_identity():
    space = FockSpace(6, modes=2)
    cov = extract_covariance(space, space.vacuum())
    np.testing.assert_allclose(cov.matrix, 0.5 * np.eye(4), atol=1e-12)


def test_squeezed_vacuum_variances():
    space = FockSpace(24, modes=1)
    rho = squeezed_vacuum(space, 0.4)
    x, p = space.position(), space.momentum()
    var_x = float(np.real(np.trace(rho @ x @ x)))
    var_p = float(np.real(np.trace(rho @ p @ p)))
    np.testing.assert_allclose(var_x, np.exp(-0.8) / 2, rtol=1e-8)
    np.testing.assert_allclose(var_p, np.exp(0.8) / 2, rtol=1e-8)


def test_product_state_composes_covariances():
    space_1 = FockSpace(20, modes=1)
    rho = product_state(squeezed_vacuum(space_1, 0.2), squeezed_vacuum(space_1, -0.3))
    cov = extract_covariance(FockSpace(20, modes=2), rho)
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
    space = FockSpace(12, modes=2)
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
    space = FockSpace(10, modes=2)
    ch = Rank1Channel(side="B", gamma=1.2, vec=np.array([1.0, 0.0]))
    _, defect = kraus_average_step(space, space.vacuum(), ch, 5e-3)
    assert defect < 1e-12


def test_protocol_kraus_step_tracks_the_semigroup():
    model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
    protocol = build_rank1_protocol(model)
    eff = effective_generator(protocol)
    space = FockSpace(12, modes=2)
    fgen = build_fock_generator(space, eff.hamiltonian, eff.noise_quadratic)
    dt = 2e-3
    stepped, defect = protocol_kraus_step(space, space.vacuum(), protocol, dt)
    semigroup = lindblad_integrate(fgen, space.vacuum(), dt)
    assert np.abs(stepped - semigroup).max() < 1e-5
    assert defect < 1e-9


def eigenbasis(cutoff, vec):
    """Eigenvalues and eigenvectors of ``vec . (x, p)`` on one mode."""
    one = FockSpace(cutoff, modes=1)
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
    space = FockSpace(cutoff, modes=2)
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


def test_protocol_unitary_matches_the_dense_exponential():
    """U_A (x) U_B from one-mode exponentials equals expm of the two-mode Hamiltonian."""
    h_a = np.array([[1.0, 0.3], [0.3, 0.5]])
    h_b = np.array([[0.7, -0.2], [-0.2, 1.1]])
    model = rank1_model(1.0, 2.0, 2.0, h_a=h_a, h_b=h_b)
    space = FockSpace(8, modes=2)
    rho = random_state(space.dim, 5)
    dt = 0.05
    for protocol in (
        build_rank1_protocol(model),
        LoccProtocol(model.layout, (), build_rank1_protocol(model).local_hamiltonian),
    ):
        expected = rho
        for ch in protocol.channels:
            expected, _ = kraus_average_step(space, expected, ch, dt)
        h = protocol.local_hamiltonian
        gen = build_fock_generator(space, h, np.zeros_like(h))
        u = expm(-1j * gen.hamiltonian.toarray() * dt)
        expected = u @ expected @ u.conj().T
        stepped, _ = protocol_kraus_step(space, rho, protocol, dt)
        assert np.abs(stepped - expected).max() < 1e-13


def test_kraus_average_is_the_exact_record_integral():
    """Multiplier entries equal the record integral by mpmath quadrature.

    At this long step the record phase reaches ``k ~ 25``, where Gauss-Hermite
    sums of order 60 do not converge; the entry with equal measured and
    extreme fed eigenvalues is ``~e^-150`` exactly.
    """
    c, dt = 12, 10.0
    space = FockSpace(c, modes=2)
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


def test_protocol_step_changes_basis_once_per_channel_plus_once(monkeypatch):
    calls = []
    conjugate = fock._conjugate

    def counted(*args):
        calls.append(1)
        return conjugate(*args)

    monkeypatch.setattr(fock, "_conjugate", counted)
    harmonic = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))  # locc_harmonic
    protocol = build_rank1_protocol(harmonic)
    assert len(protocol.channels) == 2
    space = FockSpace(6, modes=2)
    protocol_kraus_step(space, space.vacuum(), protocol, 1e-3)
    assert len(calls) == 3
    calls.clear()
    unitary_only = LoccProtocol(protocol.layout, (), protocol.local_hamiltonian)
    protocol_kraus_step(space, space.vacuum(), unitary_only, 1e-3)
    assert len(calls) == 1


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
    assert len(fgen.lindblads) == np.linalg.matrix_rank(q) == 2


def test_dense_log_negativity_matches_gaussian():
    """A dense two-mode squeezed state reproduces the closed-form E_N."""
    r = 0.3
    space = FockSpace(14, modes=2)
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
        FockSpace(1, modes=1)
    with pytest.raises(ValueError):
        FockSpace(8, modes=3)


def dense_liouvillian(fgen):
    """Column-stacked superoperator: vec(A X B) = (B^T kron A) vec(X)."""
    half = fgen.half_generator.toarray()
    eye = np.eye(half.shape[0])
    sup = np.kron(eye, half) + np.kron(half.conj(), eye)
    for rate, op in fgen.lindblads:
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
    fgen = fock_generator_from_model(correlated_model(), cutoff)
    rho0 = random_state(fgen.space.dim, cutoff)
    exact = expm(t * dense_liouvillian(fgen)) @ rho0.reshape(-1, order="F")
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
    fgen = fock_generator_from_model(correlated_model(), cutoff=6)
    rho = random_state(fgen.space.dim, 3)
    h = fgen.hamiltonian.toarray()
    expected = -1j * (h @ rho - rho @ h)
    for rate, op in fgen.lindblads:
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


def six_product_rhs(fgen, rho):
    """Right-hand side on any ``rho``: ``half rho + rho half^dagger + sum r L rho L``."""
    rho_h = rho.conj().T
    half = fgen.half_generator
    out = half @ rho + (half @ rho_h).conj().T
    for rate, op in fgen.lindblads:
        out += rate * (op @ (op @ rho_h).conj().T)
    return out


def reference_integrate(fgen, rho, t, degree=30):
    """Taylor series of ``six_product_rhs`` on substeps of norm at most one."""
    steps = max(1, math.ceil(t * fgen.norm_bound))
    rho = rho.astype(complex)
    for _ in range(steps):
        term = rho
        for k in range(1, degree + 1):
            term = six_product_rhs(fgen, term) * (t / (steps * k))
            rho = rho + term
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def test_integrator_matches_the_six_product_reference():
    fgen = fock_generator_from_model(correlated_model(), cutoff=8)
    rho0 = random_state(fgen.space.dim, 8)
    for t in (0.01, 0.3):
        rho = lindblad_integrate(fgen, rho0, t, leakage_limit=1.0)
        assert np.abs(rho - reference_integrate(fgen, rho0, t)).max() <= 1e-14


def high_occupation_state(cutoff, seed):
    """Random state whose populations grow towards the highest retained level."""
    n = np.arange(cutoff)
    weight = np.sqrt(1.0 + np.add.outer(n, n).ravel()) ** 3
    rho = random_state(cutoff**2, seed) * np.outer(weight, weight)
    return rho / np.trace(rho)


@pytest.mark.parametrize("t", [0.01, 0.05, 0.3])
def test_high_occupation_state_matches_the_full_degree_reference(t):
    fgen = fock_generator_from_model(correlated_model(), cutoff=8)
    rho0 = high_occupation_state(8, 12)
    reference = reference_integrate(fgen, rho0, t)
    rho = lindblad_integrate(fgen, rho0, t, leakage_limit=1.0)
    assert np.abs(rho - reference).max() <= 1e-15 * np.abs(reference).max()


def tail_bound_stop(fgen, rho, t):
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
        term = six_product_rhs(fgen, term) * (t / k)
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
        assert used[cutoff] == tail_bound_stop(fgen, vacuum, 0.01)
        assert used[cutoff] < _taylor_schedule(fgen, 0.01)[0]
    assert len(set(used.values())) == 1


def test_rhs_buffers_are_filled_and_returned():
    fgen = fock_generator_from_model(correlated_model(), cutoff=6)
    space = fgen.space
    rho = random_state(fgen.space.dim, 4)
    rho = 0.5 * (rho + rho.conj().T)
    blocks = _split_sectors(space, rho)
    out = {g: tuple(np.full_like(b, np.nan) for b in pair) for g, pair in blocks.items()}
    work = _rhs_work(space)
    for views in work.values():
        for buffers in views:
            for buffer in buffers:
                buffer.fill(np.nan)
    assert lindblad_rhs(fgen, blocks, out=out, work=work) is out
    joined = _join_sectors(space, out)
    fresh = _join_sectors(space, lindblad_rhs(fgen, blocks))
    np.testing.assert_array_equal(joined, fresh)
    np.testing.assert_array_equal(joined, joined.conj().T)
    np.testing.assert_allclose(joined, six_product_rhs(fgen, rho), rtol=0, atol=1e-14)


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
    for modes, cutoff in ((1, 5), (2, 4), (2, 5)):
        space = FockSpace(cutoff, modes=modes)
        even, odd = space.sectors
        total = np.array([sum(divmod(i, cutoff)) for i in range(space.dim)])
        assert np.all(total[even] % 2 == 0) and np.all(total[odd] % 2 == 1)
        assert sorted([*even, *odd]) == list(range(space.dim))


@pytest.mark.parametrize("cutoff", [4, 5])
def test_generator_never_connects_the_two_parities(cutoff):
    """The quadratic part is block-diagonal, each Lindblad block-off-diagonal."""
    for model in (correlated_model(), rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2))):
        fgen = fock_generator_from_model(model, cutoff)
        space = fgen.space
        for a in (fgen.half_generator, fgen.hamiltonian):
            assert not sector_block(a, space, 0, 1).any()
            assert not sector_block(a, space, 1, 0).any()
        for j in (0, 1):
            np.testing.assert_array_equal(
                fgen.half_blocks[j].toarray(),
                sector_block(fgen.half_generator, space, j, j),
            )
        assert len(fgen.split_lindblads) == len(fgen.lindblads)
        for (rate, op), split in zip(fgen.lindblads, fgen.split_lindblads):
            for j in (0, 1):
                assert not sector_block(op, space, j, j).any()
                np.testing.assert_allclose(
                    split[j].toarray(),
                    math.sqrt(0.5 * rate) * sector_block(op, space, j, 1 - j),
                    rtol=1e-15,
                )


def dense_quadratures(space):
    x, p = space.position(), space.momentum()
    if space.modes == 1:
        return [x, p]
    eye = np.eye(space.cutoff)
    return [np.kron(x, eye), np.kron(p, eye), np.kron(eye, x), np.kron(eye, p)]


@pytest.mark.parametrize("cutoff", [5, 12])
def test_generator_and_moments_match_dense_quadrature_algebra(cutoff):
    """The shared-pattern assembly against products of dense quadratures."""
    model = correlated_model()
    fgen = fock_generator_from_model(model, cutoff)
    space = fgen.space
    quads = dense_quadratures(space)
    g, q = hamiltonian_form(model), noise_form(model)
    h = 0.5 * sum(g[j, k] * quads[j] @ quads[k] for j in range(4) for k in range(4))
    h = 0.5 * (h + h.conj().T)
    rates, vecs = np.linalg.eigh(q)
    kept = rates > 4 * np.finfo(float).eps * rates.max()  # the zero rates of Q
    rates, vecs = rates[kept], vecs[:, kept]
    ops = [sum(v[j] * quads[j] for j in range(4)) for v in vecs.T]
    half = -1j * h - 0.5 * sum(r * op @ op for r, op in zip(rates, ops))

    def close(actual, expected):
        scale = np.abs(expected).max()
        assert np.abs(actual - expected).max() <= 1e-15 * scale

    close(fgen.hamiltonian.toarray(), h)
    close(fgen.half_generator.toarray(), half)
    assert [r for r, _ in fgen.lindblads] == rates.tolist()
    for (_, op), expected in zip(fgen.lindblads, ops):
        close(op.toarray(), expected)
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
    space = FockSpace(5, modes=2)
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


def full_log_negativity(space, rho):
    c = space.cutoff
    pt = rho.reshape(c, c, c, c).transpose(0, 3, 2, 1).reshape(c * c, c * c)
    return float(np.log2(np.abs(np.linalg.eigvalsh(pt)).sum()))


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
        assert sizes == [len(s) for s in space.sectors]
        assert abs(value - full_log_negativity(space, rho)) <= 1e-14
    assert log_negativity_dense(space, squeezed) > 0.5
    mixed = random_state(space.dim, 6)
    value, sizes = negativity_and_eigvalsh_sizes(monkeypatch, space, mixed)
    assert sizes == [space.dim]
    assert value == full_log_negativity(space, mixed)


def test_lab_scale_indefinite_noise_form_is_refused():
    """The PSD check is relative to the largest rate, at any scale."""
    space = FockSpace(4, modes=2)
    g = np.zeros((4, 4))
    for scale in (1.0, 1e-12):
        with pytest.raises(ValueError, match="positive semidefinite"):
            build_fock_generator(space, g, scale * np.diag([1.0, -10.0, 0.0, 0.0]))
        fgen = build_fock_generator(space, g, scale * np.diag([1.0, 1.0, 0.0, 0.0]))
        assert len(fgen.lindblads) == 2


def test_quadratures_are_built_once_per_space():
    space = FockSpace(6, modes=2)
    assert space.quadratures() is space.quadratures()
    assert len(space.quadratures()) == 4


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3])
def test_channel_steps_reject_a_non_finite_or_nonpositive_dt(dt):
    model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
    protocol = build_rank1_protocol(model)
    space = FockSpace(6, modes=2)
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
