"""End-to-end acceptance checks, one per release criterion.

Every test prints a single PASS/FAIL line so a full run reads as a checklist;
tolerances and runtime budgets are stated inline next to each check.
"""

import contextlib
import csv
import json
import time

import numpy as np

from gausep.cli import main as cli_main
from gausep.dynamics import evolve
from gausep.fock import (
    fock_generator_from_model,
    lindblad_integrate,
    log_negativity_dense,
    protocol_kraus_step,
)
from gausep.generators import (
    GeneralCoupling,
    MatrixWhiteNoise,
    Rank1Coupling,
    ScalarWhiteNoise,
    SystemModel,
    build_generator,
)
from gausep.gravity import TwoMassScenario, two_mass_threshold
from gausep.locc import (
    InfeasibleProtocolError,
    MemoryCoefficients,
    build_rank1_protocol,
    damped_bound,
    effective_generator,
    synthesize_general,
)
from gausep.separability import (
    SeparabilityCertificate,
    certificate_first_order,
    ppt_multimode,
    stringent_ns_check,
    threshold,
)
from gausep.dynamics import shape_functions
from gausep.symplectic import CovarianceMatrix, ModeLayout


@contextlib.contextmanager
def recorded(index, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"acceptance {index} ({label}): {'PASS' if ok else 'FAIL'}")


def rank1_model(k, s_a, s_b, s_ab=0.0, layout=None, h_a=None, h_b=None,
                vec_a=None, vec_b=None):
    lo = layout or ModeLayout(1, 1)
    if vec_a is None:
        vec_a = np.zeros(lo.dim_a)
        vec_a[0] = 1.0
    if vec_b is None:
        vec_b = np.zeros(lo.dim_b)
        vec_b[0] = 1.0
    return SystemModel(
        layout=lo,
        h_a=np.zeros((lo.dim_a, lo.dim_a)) if h_a is None else h_a,
        h_b=np.zeros((lo.dim_b, lo.dim_b)) if h_b is None else h_b,
        coupling=Rank1Coupling(strength=k, vec_a=vec_a, vec_b=vec_b),
        noise=ScalarWhiteNoise(s_a=s_a, s_b=s_b, s_ab=s_ab),
    )


FREE_MASS_DICT = {
    "layout": {"n_a": 1, "n_b": 1},
    "hamiltonian_a": [[0.0, 0.0], [0.0, 0.0]],
    "hamiltonian_b": [[0.0, 0.0], [0.0, 0.0]],
    "coupling": {
        "kind": "rank1",
        "strength": 1.0,
        "vec_a": [1.0, 0.0],
        "vec_b": [1.0, 0.0],
    },
    "noise": {"kind": "scalar_white", "s_a": 2.0, "s_b": 2.0, "s_ab": 0.0},
}


def test_acceptance_1_threshold_sweep_locates_the_onset(tmp_path):
    """A 200-point log sweep brackets the NPT onset at sqrt(s_a s_b) in one cell."""
    with recorded(1, "threshold sweep onset"):
        k_star = 2.0
        config = {
            "model": json.loads(json.dumps(FREE_MASS_DICT)),
            "sweep": {
                "axes": [
                    {
                        "path": "coupling.strength",
                        "min": k_star * 0.95,
                        "max": k_star * 1.05,
                        "points": 200,
                        "scale": "log",
                    }
                ],
                "outputs": ["log_negativity"],
                "time": 0.05,
            },
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "grid.csv"
        start = time.perf_counter()
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.1f} s"
        with open(out, newline="") as stream:
            rows = list(csv.reader(stream))[1:]
        ks = [float(r[0]) for r in rows]
        log_neg = [float(r[1]) for r in rows]
        onset = next(i for i, v in enumerate(log_neg) if v > 1e-9)
        assert onset > 0
        assert ks[onset - 1] <= k_star <= ks[onset]
        assert all(v <= 1e-9 for v in log_neg[:onset])


def test_acceptance_2_certificate_soundness():
    """200 random in-regime instances certify cleanly; no false certificates."""
    with recorded(2, "certificate soundness"):
        rng = np.random.default_rng(2026)
        start = time.perf_counter()
        for trial in range(200):
            n_a = int(rng.integers(1, 4))
            n_b = int(rng.integers(1, 4))
            layout = ModeLayout(n_a, n_b)
            h_a = rng.standard_normal((layout.dim_a, layout.dim_a))
            h_b = rng.standard_normal((layout.dim_b, layout.dim_b))
            vec_a = rng.standard_normal(layout.dim_a)
            vec_b = rng.standard_normal(layout.dim_b)
            vec_a /= np.linalg.norm(vec_a)
            vec_b /= np.linalg.norm(vec_b)
            s_a, s_b = rng.uniform(2e-6, 1e-5, 2)
            tau_sq = s_a * s_b * rng.uniform(0.05, 0.95)
            if rng.random() < 0.5:
                k = np.sqrt(tau_sq)
                s_ab = 0.0
            else:
                k = np.sqrt(tau_sq * rng.uniform(0.3, 0.99))
                s_ab = np.sqrt(tau_sq - k**2)
            model = SystemModel(
                layout=layout,
                h_a=0.5 * (h_a + h_a.T),
                h_b=0.5 * (h_b + h_b.T),
                coupling=Rank1Coupling(strength=k, vec_a=vec_a, vec_b=vec_b),
                noise=ScalarWhiteNoise(s_a=s_a, s_b=s_b, s_ab=s_ab),
            )
            if rng.random() < 0.5:
                v0 = None
            else:
                diag = []
                for _ in range(layout.n_modes):
                    r = rng.uniform(0.0, 0.15)
                    diag += [np.exp(-2 * r) / 2, np.exp(2 * r) / 2]
                v0 = CovarianceMatrix(np.diag(diag), layout)
            cert = certificate_first_order(model, 1.0, v0=v0)
            assert isinstance(cert, SeparabilityCertificate), f"trial {trial}"
            assert cert.ok
            assert cert.decomposition_residual <= 1e-9
            scale = max(1.0, np.abs(cert.remainder).max())
            assert np.linalg.eigvalsh(cert.remainder)[0] >= -1e-9 * scale
            assert min(cert.sigma_physicality_margins) >= -1e-9
            start_state = v0 or CovarianceMatrix.vacuum(layout)
            exact = evolve(build_generator(model), start_state, 1.0)
            assert np.abs(cert.v_first_order.matrix - exact.matrix).max() <= 1e-9
            assert ppt_multimode(exact).verdict != "entangled", f"trial {trial}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_acceptance_3_stringent_grid_matches_ppt():
    """Stringent margin sign equals the evolved PPT verdict on a 20x20 grid."""
    with recorded(3, "stringent grid vs PPT"):
        products = np.linspace(0.25, 4.0, 20)
        couplings = np.linspace(0.25, 4.0, 20)
        t = 0.05
        checked = 0
        for x in products:
            for y in couplings:
                s = np.sqrt(x)
                s_ab_sq = min(0.3 * y, 0.5 * x)
                k = np.sqrt(y - s_ab_sq)
                model = rank1_model(k, s, s, s_ab=np.sqrt(s_ab_sq))
                shapes = shape_functions(model, t)
                verdict = stringent_ns_check(shapes, s, s, k, np.sqrt(s_ab_sq))
                assert verdict.necessary_and_sufficient
                if abs(verdict.margin) < 1e-8:
                    continue
                state = evolve(
                    build_generator(model), CovarianceMatrix.vacuum(model.layout), t
                )
                assert ppt_multimode(state).npt == (verdict.margin < 0), (
                    f"disagreement at product {x:.3f}, coupling mass {y:.3f}"
                )
                checked += 1
        assert checked >= 380


def test_acceptance_4_locc_generator_identity():
    """Synthesis reproduces the generator entrywise; feasibility is exact."""
    with recorded(4, "LOCC generator identity"):
        rng = np.random.default_rng(4)
        feasible_count = 0
        for _ in range(1000):
            s_a, s_b = rng.uniform(0.1, 4.0, 2)
            ratio = rng.uniform(0.0, 2.0)
            k = np.sqrt(s_a * s_b * ratio)
            model = rank1_model(k, s_a, s_b)
            feasible = s_a * s_b - k**2 >= 0
            try:
                protocol = build_rank1_protocol(model)
            except InfeasibleProtocolError:
                assert not feasible
                continue
            assert feasible
            feasible_count += 1
            eff = effective_generator(protocol)
            target = build_generator(model)
            assert np.abs(eff.drift - target.drift).max() <= 1e-12
            assert np.abs(eff.diffusion - target.diffusion).max() <= 1e-12
        assert 300 < feasible_count < 700


def test_acceptance_5_kraus_step_is_second_order():
    """One record-averaged step matches the semigroup with local error O(dt^2)."""
    with recorded(5, "channel vs oracle order"):
        start = time.perf_counter()
        model = rank1_model(1.0, 2.0, 2.0, h_a=np.eye(2), h_b=np.eye(2))
        protocol = build_rank1_protocol(model)
        fgen = fock_generator_from_model(model, cutoff=12)
        space = fgen.space
        errors = []
        for dt in (1e-3, 5e-4):
            stepped, _ = protocol_kraus_step(space, space.vacuum(), protocol, dt)
            semigroup = lindblad_integrate(fgen, space.vacuum(), dt)
            errors.append(np.abs(stepped - semigroup).max())
        ratio = errors[0] / errors[1]
        assert ratio >= 3.5, f"halving ratio {ratio:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_acceptance_6_separability_preservation_witness():
    """Dense evolution stays separable at saturation, entangles below it."""
    with recorded(6, "dense separability witness"):
        t_guard = 0.05
        saturated = rank1_model(2.0, 2.0, 2.0)
        fgen = fock_generator_from_model(saturated, cutoff=12)
        rho = fgen.space.vacuum()
        for _ in range(5):
            rho = lindblad_integrate(fgen, rho, t_guard / 5)
            assert log_negativity_dense(fgen.space, rho) == 0.0
        reduced = rank1_model(2.0, 1.8, 1.8)
        fgen_hot = fock_generator_from_model(reduced, cutoff=12)
        rho_hot = lindblad_integrate(fgen_hot, fgen_hot.space.vacuum(), t_guard)
        assert log_negativity_dense(fgen_hot.space, rho_hot) > 1e-5


def test_acceptance_7_general_bound_equivalence():
    """Block PSD verdict coincides with the whitened singular-value test."""
    with recorded(7, "general bound equivalence"):
        rng = np.random.default_rng(7)
        for trial in range(500):
            n_a = int(rng.integers(1, 3))
            n_b = int(rng.integers(1, 3))
            layout = ModeLayout(n_a, n_b)
            r_a = rng.standard_normal((layout.dim_a, layout.dim_a))
            r_b = rng.standard_normal((layout.dim_b, layout.dim_b))
            q_a = r_a @ r_a.T + 0.1 * np.eye(layout.dim_a)
            q_b = r_b @ r_b.T + 0.1 * np.eye(layout.dim_b)
            sigma_target = rng.uniform(0.2, 1.8)
            if 0.98 < sigma_target < 1.02:
                sigma_target = 0.9
            x = rng.standard_normal((layout.dim_a, layout.dim_b))
            x *= sigma_target / np.linalg.svd(x, compute_uv=False)[0]
            wa, ea = np.linalg.eigh(q_a)
            wb, eb = np.linalg.eigh(q_b)
            root_a = (ea * np.sqrt(wa)) @ ea.T
            root_b = (eb * np.sqrt(wb)) @ eb.T
            model = SystemModel(
                layout=layout,
                h_a=np.zeros((layout.dim_a, layout.dim_a)),
                h_b=np.zeros((layout.dim_b, layout.dim_b)),
                coupling=GeneralCoupling(matrix=root_a @ x @ root_b),
                noise=MatrixWhiteNoise(q_a=q_a, q_b=q_b),
            )
            psd_ok = threshold(model, tol=1e-10).satisfied
            inv_root_a = (ea / np.sqrt(wa)) @ ea.T
            inv_root_b = (eb / np.sqrt(wb)) @ eb.T
            whitened = inv_root_a @ model.coupling.matrix @ inv_root_b
            sigma_max = float(np.linalg.svd(whitened, compute_uv=False)[0])
            assert psd_ok == (sigma_max <= 1.0 + 1e-10), f"trial {trial}"
            try:
                synthesize_general(model)
                synthesized = True
            except InfeasibleProtocolError:
                synthesized = False
            assert synthesized == psd_ok, f"trial {trial}"


def test_acceptance_8_gamma_temperature_bound_scale():
    """At mass over separation cubed of 1e4 kg/m^3 the bound sits in the band."""
    with recorded(8, "laboratory bound scale"):
        scenario = TwoMassScenario(
            mass_a_kg=1.0,
            mass_b_kg=1.0,
            separation_m=(1.0 / 1e4) ** (1.0 / 3.0),
            gamma_a_per_s=1e-9,
            gamma_b_per_s=1e-9,
            temperature_K=1e-3,
        )
        bound = two_mass_threshold(scenario).gamma_temp_bound_K_per_s
        assert 1e-18 <= bound <= 1e-17, f"bound {bound:.3e}"


def test_acceptance_9_damped_bound_consistency():
    """Zero memory reproduces the plain verdict; the tight example has margin 0."""
    with recorded(9, "damped bound consistency"):
        rng = np.random.default_rng(9)
        zeros = MemoryCoefficients(0.0, 0.0, 0.0, 0.0)
        for _ in range(100):
            s_a, s_b = rng.uniform(0.1, 4.0, 2)
            k = np.sqrt(s_a * s_b * rng.uniform(0.0, 2.0))
            model = rank1_model(k, s_a, s_b)
            plain = threshold(model)
            damped = damped_bound(model, zeros)
            assert damped.satisfied == plain.satisfied
            np.testing.assert_allclose(damped.margin, plain.margin, rtol=1e-12)
        hand = damped_bound(
            rank1_model(1.0, 4.0, 4.0), MemoryCoefficients(1.0, 0.5, 0.5, 1.0)
        )
        assert hand.satisfied
        np.testing.assert_allclose(hand.margin, 0.0, atol=1e-15)
