"""Seeded workloads: input generation, one pass over the items, output checks.

Every workload draws its inputs from ``numpy.random.default_rng(seed)`` when
it is built, writes the configs gausep reads into its work directory, and
then runs the same items on every pass, so outputs can be compared between
passes.  gausep sees only the generated configs and models.

An item's failures are strings; an item with none passed every check.  A
check never aborts the pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gausep
from gausep import cli, dynamics, fock, generators, gravity, separability, symplectic

# The failure that makes a run's outputs untrustworthy rather than wrong.
DIFFERS = "outputs differ from the first pass"


@dataclass
class PassResult:
    """What a pass leaves behind: the failures of each item that had any, and
    each item's latency.  Passing items are not kept, so memory does not
    grow with passes."""

    n_items: int
    failures: dict[str, list[str]]
    latencies: dict[str, float]
    wall_s: float
    extra: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``gausep <argv>`` in-process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gausep.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def _rank1_dict(h_a, h_b, k, vec_a, vec_b, s_a, s_b, s_ab=0.0) -> dict:
    # written out here rather than through gausep's serializer, so the
    # inputs stay the same when gausep changes
    n_a, n_b = len(vec_a) // 2, len(vec_b) // 2
    return {
        "layout": {"n_a": n_a, "n_b": n_b},
        "hamiltonian_a": np.asarray(h_a, dtype=float).tolist(),
        "hamiltonian_b": np.asarray(h_b, dtype=float).tolist(),
        "coupling": {
            "kind": "rank1",
            "strength": float(k),
            "vec_a": np.asarray(vec_a, dtype=float).tolist(),
            "vec_b": np.asarray(vec_b, dtype=float).tolist(),
        },
        "noise": {
            "kind": "scalar_white",
            "s_a": float(s_a),
            "s_b": float(s_b),
            "s_ab": float(s_ab),
        },
    }


def _unit(rng, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _ratio(rng, violated: bool) -> float:
    """Log-uniform noise-to-coupling ratio, below 1 when ``violated``.

    Which side is fixed by the item's index, not drawn, because infeasible
    models skip the Trotter check and cost a third as much: a drawn mix would
    move the latency percentiles between seeds.
    """
    lo, hi = (0.5, 0.9) if violated else (1.1, 2.0)
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _vacuum(model):
    return symplectic.CovarianceMatrix.vacuum(model.layout)


class Workload:
    """A seeded set of items; ``name`` is the ``--workload`` argument."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def config_files(self) -> list[tuple[str, str]]:
        """``(schema, path)`` of every config the workload loads, where the
        schema is ``run`` or ``sweep``."""
        raise NotImplementedError

    def run_pass(self, warmup: bool = False, on_item=None, deadline=None) -> PassResult:
        """Run every item once, or until ``deadline`` (a ``perf_counter``
        time) when given.  ``warmup`` runs a cheaper untimed pass that
        reaches the same code; ``on_item(index)`` is called before each
        item so the tracer can tag its spans."""
        raise NotImplementedError


def _expired(deadline) -> bool:
    return deadline is not None and time.perf_counter() >= deadline


# -- scan commands ------------------------------------------------------------


@dataclass
class ScanCommand:
    """One ``gausep sweep`` or ``gausep evolve`` run; ``check`` maps a CSV
    row to its failures."""

    item_id: str
    schema: str
    config: str
    argv: list[str]
    check: object
    out: Path


def _check_rank1(row: dict) -> list[str]:
    margin, ln = float(row["margin"]), float(row["log_negativity"])
    failures = []
    if (float(row["feasibility"]) == 1.0) != (margin >= 0):
        failures.append(f"feasibility {row['feasibility']} vs margin {margin:.3e}")
    if ln > 0 and margin >= 0:
        failures.append(f"log_negativity {ln:.3e} > 0 with margin {margin:.3e}")
    return failures


def _check_matrix(row: dict) -> list[str]:
    margin = float(row["margin"])
    if (float(row["feasibility"]) == 1.0) != (margin >= 0):
        return [f"feasibility {row['feasibility']} vs margin {margin:.3e}"]
    return []


def _check_evolve(row: dict) -> list[str]:
    if row["physical"] != "1":
        return [f"unphysical state at t={row['t']}"]
    return []


def scan_commands(
    rng, workdir: Path, rank1_points: int, matrix_points: int, evolve_steps: int
) -> list[ScanCommand]:
    """Two sweeps and one time series through the CLI.

    * ``scan[0]``: ``rank1_points`` squared grid of ``coupling.strength`` x
      ``noise.s_a`` on a 1+1 rank-1 harmonic model; every column crosses the
      threshold.
    * ``scan[1]``: ``matrix_points`` values of one ``coupling.matrix`` entry
      of a 2+2 matrix-noise model, wide enough to leave the feasible
      interval on both ends.
    * ``scan[2]``: an ``evolve_steps``-step time series of an entangling
      harmonic model.
    """
    outputs = ["margin", "nu_tilde_minus", "log_negativity", "feasibility"]

    omega = rng.uniform(0.4, 0.6)
    s_b = rng.uniform(0.8, 1.2)
    sa_lo, sa_hi = s_b * rng.uniform(0.4, 0.6), s_b * rng.uniform(1.6, 2.0)
    e = [1.0, 0.0]
    rank1 = _rank1_dict(omega * np.eye(2), omega * np.eye(2), 1.0, e, e, sa_lo, s_b)
    rank1_config = _write_json(
        workdir / "sweep_rank1.json",
        {
            "model": rank1,
            "sweep": {
                "axes": [
                    {
                        "path": "coupling.strength",
                        "min": 0.6 * np.sqrt(sa_lo * s_b),
                        "max": 1.4 * np.sqrt(sa_hi * s_b),
                        "points": rank1_points,
                    },
                    {
                        "path": "noise.s_a",
                        "min": sa_lo,
                        "max": sa_hi,
                        "points": rank1_points,
                    },
                ],
                "outputs": outputs,
                "time": 0.5,
            },
        },
    )

    # unit spectral norms keep the exponentials' cost the same per seed
    dim = 4
    qs, roots, hs = [], [], []
    for _ in range(2):
        r = rng.standard_normal((dim, dim))
        w, vecs = np.linalg.eigh(r @ r.T + 0.1 * np.eye(dim))
        w /= w[-1]
        qs.append((vecs * w) @ vecs.T)
        roots.append((vecs * np.sqrt(w)) @ vecs.T)
        h = rng.standard_normal((dim, dim))
        hs.append(0.5 * (h + h.T) / np.linalg.norm(h + h.T, 2))
    q_a, q_b = qs
    x = rng.standard_normal((dim, dim))
    x *= rng.uniform(0.5, 0.8) / np.linalg.svd(x, compute_uv=False)[0]
    coupling = roots[0] @ x @ roots[1]
    matrix = {
        "layout": {"n_a": 2, "n_b": 2},
        "hamiltonian_a": hs[0].tolist(),
        "hamiltonian_b": hs[1].tolist(),
        "coupling": {"kind": "general", "matrix": coupling.tolist()},
        "noise": {"kind": "matrix_white", "q_a": q_a.tolist(), "q_b": q_b.tolist()},
    }
    span = 3.0 * np.abs(coupling).max()
    matrix_config = _write_json(
        workdir / "sweep_matrix.json",
        {
            "model": matrix,
            "sweep": {
                "axes": [
                    {
                        "path": "coupling.matrix.0.1",
                        "min": coupling[0, 1] - span,
                        "max": coupling[0, 1] + span,
                        "points": matrix_points,
                    }
                ],
                "outputs": outputs,
                "time": 0.5,
            },
        },
    )

    k = rng.uniform(0.8, 1.2)
    s = k * np.sqrt(rng.uniform(0.3, 0.7))
    omega = rng.uniform(0.8, 1.2)
    evolve_config = _write_json(
        workdir / "evolve.json",
        {"model": _rank1_dict(omega * np.eye(2), omega * np.eye(2), k, e, e, s, s)},
    )
    runs = [
        ("sweep", rank1_config, ["sweep", "--jobs", "1"], _check_rank1),
        ("sweep", matrix_config, ["sweep", "--jobs", "1"], _check_matrix),
        ("run", evolve_config, ["evolve", "--t", "2.0", "--steps", str(evolve_steps)],
         _check_evolve),
    ]
    return [
        ScanCommand(
            f"scan[{i}]", schema, config, argv + ["--config", config], check,
            workdir / f"scan_{i}.csv",
        )
        for i, (schema, config, argv, check) in enumerate(runs)
    ]


# -- verify -------------------------------------------------------------------


@dataclass
class VerifyModel:
    item_id: str
    config: str
    model: dict
    evolve_t: float
    certificate_t: float | None = None
    oracle: bool = False
    scenario: object = None
    omega: float | None = None


class Verify(Workload):
    """100 models, each through threshold, constructive object and witness.

    * ``ray``: 1+1 ray-preserving models, local Hamiltonians ``c sigma_x``,
      with ``stringent_horizon`` and ``memory`` so ``shape_functions`` runs;
      every second one violates the bound.
    * ``cert``: rank-1 models at 1+1, 2+2 and 3+3 modes inside the
      perturbative window, on both sides of the threshold.
    * ``oracle``: feasible 1+1 harmonic models, ``locc-verify --oracle`` at
      cutoff 12 and 16.
    * ``lab``: ``TwoMassScenario`` -> ``to_model`` with dimensionless
      couplings log-uniform in [1e-12, 1e-4]; every second one has noise
      0.5x to 0.9x the coupling (bound violated), the others 1.1x to 2x.

    Three more items, ``scan[0..2]``, run the CLI's sweep and time-series
    paths (``scan_commands``): an 8 x 8 rank-1 grid, 16 points of a 2+2
    matrix-noise line and a 100-step series, each about as costly as one
    model.  They were a workload of their own, but every sweep row rewrites
    a checkpoint file and waits on the disk, whose latency on a shared
    machine moves by minutes-long phases far more than compute does.
    """

    name = "verify"
    LOCC_ARGS = ["--t", "0.1", "--dt", "1e-3"]
    SCAN_SIZES = {"rank1_points": 8, "matrix_points": 16, "evolve_steps": 100}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        plan = [
            ("ray", 30, self._make_ray),
            ("cert", 30, self._make_cert),
            ("oracle12", 12, self._make_oracle),
            ("oracle16", 4, self._make_oracle),
            ("lab", 24, self._make_lab),
        ]
        self.models = [make(kind, i) for kind, count, make in plan for i in range(count)]
        self.commands = scan_commands(self.rng, workdir, **self.SCAN_SIZES)
        self.reference: dict[str, object] = {}

    def _add(self, kind, i, payload, **fields) -> VerifyModel:
        item_id = f"{kind}[{i}]"
        path = _write_json(self.workdir / f"{kind}_{i}.json", payload)
        return VerifyModel(item_id=item_id, config=path, model=payload["model"], **fields)

    def _make_ray(self, kind, i):
        rng = self.rng
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        k = rng.uniform(0.5, 1.5)
        s_a = k * np.exp(rng.uniform(np.log(0.5), np.log(2.0)))
        s_b = _ratio(rng, i % 2 == 1) * k**2 / s_a
        c_a, c_b = rng.uniform(-1.0, 1.0, 2)
        e = [1.0, 0.0]
        horizon = rng.uniform(0.5, 1.5)
        model = _rank1_dict(c_a * sx, c_b * sx, k, e, e, s_a, s_b)
        payload = {
            "model": model,
            "stringent_horizon": horizon,
            "memory": {"c2": rng.uniform(0.01, 0.1)},
        }
        return self._add(kind, i, payload, evolve_t=horizon)

    def _make_cert(self, kind, i):
        rng = self.rng
        n = 1 + i % 3
        dim = 2 * n
        h_a = rng.standard_normal((dim, dim))
        h_b = rng.standard_normal((dim, dim))
        s_a, s_b = rng.uniform(2e-6, 1e-5, 2)
        # every third triple of layouts violates the bound
        violated = (i // 3) % 3 == 2
        ratio = rng.uniform(1.2, 2.0) if violated else rng.uniform(0.05, 0.95)
        tau_sq = s_a * s_b * ratio
        if rng.random() < 0.5:
            k, s_ab = np.sqrt(tau_sq), 0.0
        else:
            k = np.sqrt(tau_sq * rng.uniform(0.3, 0.9))
            s_ab = min(np.sqrt(tau_sq - k**2), np.sqrt(s_a * s_b))
        model = _rank1_dict(
            0.5 * (h_a + h_a.T),
            0.5 * (h_b + h_b.T),
            k,
            _unit(rng, dim),
            _unit(rng, dim),
            s_a,
            s_b,
            s_ab,
        )
        return self._add(kind, i, {"model": model}, evolve_t=1.0, certificate_t=1.0)

    def _make_oracle(self, kind, i):
        rng = self.rng
        k = rng.uniform(0.5, 1.0)
        s_a = k * np.exp(rng.uniform(np.log(1.1), np.log(1.6)))
        s_b = k**2 * np.exp(rng.uniform(np.log(1.2), np.log(2.5))) / s_a
        e = [1.0, 0.0]
        model = _rank1_dict(np.eye(2), np.eye(2), k, e, e, s_a, s_b)
        cutoff = 12 if kind == "oracle12" else 16
        payload = {"model": model, "oracle_cutoff": cutoff}
        return self._add(kind, i, payload, evolve_t=1.0, oracle=True)

    def _make_lab(self, kind, i):
        rng = self.rng
        k_target = np.exp(rng.uniform(np.log(1e-12), np.log(1e-4)))
        ratio = _ratio(rng, i % 2 == 1)
        mass_a, mass_b = np.exp(rng.uniform(np.log(1e-3), np.log(1.0), 2))
        separation = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1)))
        temperature = np.exp(rng.uniform(np.log(1e-3), np.log(300.0)))
        k_g = gravity.coupling_constant(mass_a, mass_b, separation)
        omega = np.sqrt(k_g / (np.sqrt(mass_a * mass_b) * k_target))
        # s = 2 gamma k_B T / (hbar omega^2) = ratio * k
        gamma = (
            ratio * k_target * gravity.REDUCED_PLANCK * omega**2
            / (2.0 * gravity.BOLTZMANN * temperature)
        )
        scenario = gravity.TwoMassScenario(
            mass_a_kg=mass_a,
            mass_b_kg=mass_b,
            separation_m=separation,
            gamma_a_per_s=gamma,
            gamma_b_per_s=gamma,
            temperature_K=temperature,
        )
        model, _ = gravity.to_model(scenario, omega)
        payload = {"model": generators.model_to_dict(model)}
        return self._add(kind, i, payload, evolve_t=1.0, scenario=scenario, omega=omega)

    def config_files(self):
        return [("run", m.config) for m in self.models] + [
            (c.schema, c.config) for c in self.commands
        ]

    @staticmethod
    def _run_scan(c: ScanCommand) -> tuple[bytes, list[str]]:
        c.out.unlink(missing_ok=True)
        code, _ = run_cli(c.argv + ["--out", str(c.out)])
        data = c.out.read_bytes() if c.out.exists() else b""
        rows = list(csv.DictReader(io.StringIO(data.decode(), newline="")))
        failures = [] if code == cli.EXIT_OK else [f"exit code {code}"]
        if not rows:
            failures.append("no rows written")
        for i, row in enumerate(rows):
            failures += [f"row {i}: {reason}" for reason in c.check(row)]
        return data, failures

    def _verify_one(self, m: VerifyModel) -> tuple[dict, list[str]]:
        failures: list[str] = []
        outputs: dict = {}

        if m.scenario is not None:
            lab = gravity.two_mass_threshold(m.scenario)
            model_obj, _ = gravity.to_model(m.scenario, m.omega)
            outputs["lab_satisfied"] = lab.satisfied
        else:
            model_obj = generators.model_from_dict(m.model)

        # 1. closed-form bound
        code, text = run_cli(["threshold", "--config", m.config])
        lines = text.splitlines()
        outputs["threshold"] = (code, lines)
        if code not in (cli.EXIT_OK, cli.EXIT_VIOLATED) or not lines:
            failures.append(f"threshold exit {code}")
            return outputs, failures
        bound_ok = lines[0].split()[1] == "satisfied"
        if m.scenario is not None and lab.satisfied != bound_ok:
            failures.append("laboratory and dimensionless verdicts differ")

        # 2. constructive object: certificate and LOCC protocol
        if m.certificate_t is not None:
            cert = separability.certificate_first_order(model_obj, m.certificate_t)
            certified = isinstance(cert, separability.SeparabilityCertificate)
            outputs["certified"] = certified
            if certified != bound_ok:
                failures.append(f"certificate {certified} but bound satisfied {bound_ok}")
            if certified and not cert.decomposition_residual <= 1e-9:
                failures.append(
                    f"decomposition_residual {cert.decomposition_residual:.3e} > 1e-9"
                )
        argv = ["locc-verify", "--config", m.config, *self.LOCC_ARGS]
        if m.oracle:
            argv.append("--oracle")
        code, text = run_cli(argv)
        report = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        outputs["locc"] = (code, text)
        if code == cli.EXIT_OK:
            residual = float(report.get("generator_residual", "nan"))
            if not residual <= 1e-12:
                failures.append(f"generator_residual {residual:.3e} > 1e-12")
            if not bound_ok:
                failures.append("protocol synthesized although the bound is violated")
            if m.oracle and "oracle_channel_residual" not in report:
                failures.append("oracle report missing")
        elif code == cli.EXIT_INFEASIBLE:
            if bound_ok and model_obj.is_rank1:
                failures.append("protocol infeasible although the bound holds")
        else:
            failures.append(f"locc-verify exit {code}")

        # 3. Gaussian witness of the evolved state
        gen = generators.build_generator(model_obj)
        state = dynamics.evolve(gen, _vacuum(model_obj), m.evolve_t)
        ppt = separability.ppt_multimode(state)
        ln = separability.log_negativity(state)
        outputs["witness"] = (ppt.verdict, ln)
        if bound_ok and ppt.npt:
            failures.append("bound satisfied but the evolved state is NPT")
        if (ppt.verdict == "entangled") != (ln > 0):
            failures.append(
                f"ppt_multimode says {ppt.verdict} (min eig - 1/2 = "
                f"{ppt.min_sympl_eig - 0.5:.3e}) but log_negativity is {ln:.3e}"
            )
        return outputs, failures

    def run_pass(self, warmup=False, on_item=None, deadline=None) -> PassResult:
        items = self.models + self.commands
        if warmup:
            # the first three items of every class (all three certificate
            # layouts, all scan commands) reach every code path
            items = [m for m in items if int(m.item_id.split("[")[1][:-1]) < 3]
        failures, latencies = {}, {}
        start = time.perf_counter()
        for index, m in enumerate(items):
            if _expired(deadline):
                break
            if on_item is not None:
                on_item(index)
            t0 = time.perf_counter()
            try:
                if isinstance(m, ScanCommand):
                    outputs, item_failures = self._run_scan(m)
                else:
                    outputs, item_failures = self._verify_one(m)
            except Exception as exc:  # an item that raises is a failed item
                outputs, item_failures = None, [f"raised {exc!r}"]
            latencies[m.item_id] = time.perf_counter() - t0
            if not warmup and self.reference.setdefault(m.item_id, outputs) != outputs:
                item_failures.append(DIFFERS)
            if item_failures:
                failures[m.item_id] = item_failures
        return PassResult(len(latencies), failures, latencies, time.perf_counter() - start)


# -- dense-evolve -------------------------------------------------------------


class DenseEvolve(Workload):
    """Dense master-equation witness against the Gaussian route.

    Two 1+1 rank-1 harmonic models per pass, one at saturation
    (``s_a s_b = k^2``) and one below it (``s_a s_b < k^2``, entangling),
    each integrated at cutoffs 12 and 16 to t = 0.05 in five chunks.  Every
    coefficient of the defining forms stays at most 1, so the integrator's
    step cap, and with it the cost, is the same for every seed.  The
    coupling acts on the position quadratures: for a generic direction the
    noise form's zero eigenvalues come out of ``eigh`` as roundoff of either
    sign, each positive one becomes an extra Lindblad operator, and the cost
    of a check would vary by up to 1.7x with the seed.
    """

    name = "dense-evolve"
    CUTOFFS = (12, 16)
    T_END = 0.05
    CHUNKS = 5
    TOLERANCE = 1e-9

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = self.rng
        self.models = []
        for label, saturated in (("saturated", True), ("below", False)):
            k = rng.uniform(0.8, 1.0)
            if saturated:
                s_a = k * rng.uniform(k, 1.0)
                s_b = k**2 / s_a
            else:
                s_a, s_b = k * rng.uniform(0.8, 0.95, 2)
            omega = rng.uniform(0.0, 1.0)
            e = [1.0, 0.0]
            model = _rank1_dict(omega * np.eye(2), omega * np.eye(2), k, e, e, s_a, s_b)
            path = _write_json(self.workdir / f"dense_{label}.json", {"model": model})
            self.models.append((label, path, model))
        self.reference: dict[str, object] = {}

    def config_files(self):
        return [("run", path) for _, path, _ in self.models]

    def _check(self, model_dict: dict, cutoff: int, t_end: float, chunks: int):
        model = generators.model_from_dict(model_dict)
        fgen = fock.fock_generator_from_model(model, cutoff)
        space = fgen.space
        gen = generators.build_generator(model)
        rho = space.vacuum()
        devs, lns = [], []
        for j in range(1, chunks + 1):
            rho = fock.lindblad_integrate(fgen, rho, t_end / chunks)
            dense = fock.log_negativity_dense(space, rho)
            gauss = separability.log_negativity(
                dynamics.evolve(gen, _vacuum(model), t_end * j / chunks)
            )
            devs.append(abs(dense - gauss))
            lns.append(dense)
        cov = fock.extract_covariance(space, rho)
        cov_dev = float(
            np.abs(cov.matrix - dynamics.evolve(gen, _vacuum(model), t_end).matrix).max()
        )
        return max(devs), cov_dev, lns

    def run_pass(self, warmup=False, on_item=None, deadline=None) -> PassResult:
        # the warm-up pass takes one short chunk per check
        t_end, chunks = (self.T_END / 25, 1) if warmup else (self.T_END, self.CHUNKS)
        failures, latencies, max_dev = {}, {}, 0.0
        start = time.perf_counter()
        for label, _, model in self.models:
            for cutoff in self.CUTOFFS:
                if _expired(deadline):
                    break
                item_id = f"{label}@{cutoff}"
                if on_item is not None:
                    on_item(len(latencies))
                t0 = time.perf_counter()
                item_failures = []
                outputs = None
                try:
                    dev, cov_dev, outputs = self._check(model, cutoff, t_end, chunks)
                    max_dev = max(max_dev, dev)
                    if not dev <= self.TOLERANCE:
                        item_failures.append(f"|dense - Gaussian| log-negativity {dev:.3e}")
                    if not cov_dev <= self.TOLERANCE:
                        item_failures.append(f"|dense - Gaussian| covariance {cov_dev:.3e}")
                except Exception as exc:  # an item that raises is a failed item
                    item_failures.append(f"raised {exc!r}")
                latencies[item_id] = time.perf_counter() - t0
                if not warmup and self.reference.setdefault(item_id, outputs) != outputs:
                    item_failures.append(DIFFERS)
                if item_failures:
                    failures[item_id] = item_failures
        return PassResult(
            len(latencies),
            failures,
            latencies,
            time.perf_counter() - start,
            {"oracle_max_dev": max_dev},
        )


WORKLOADS = {cls.name: cls for cls in (Verify, DenseEvolve)}
