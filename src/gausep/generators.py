"""Markovian generators for two weakly coupled noisy Gaussian subsystems.

A :class:`SystemModel` collects the local Hamiltonian quadratic forms, the
cross coupling and the white-noise environment of a bipartite system.  The
master equation it induces is quadratic, so the full state information lives
in the first and second moments; :func:`build_generator` returns the matrices
``A`` (drift) and ``D`` (diffusion) of

    dV/dt = A V + V A^T + D,        d<xi>/dt = A <xi>.

All Hamiltonians are stored as symmetric quadratic forms ``G`` with
``H = (1/2) xi^T G xi``; the drift is derived from them as ``A = Omega G`` so
no sign convention is carried around separately.  Dissipation is stored as a
symmetric positive semidefinite noise form ``Q`` (coefficients of the double
commutators in the master equation); the induced diffusion is
``D = Omega Q Omega^T``.

Two model variants are supported and must be paired consistently:

* rank-1: a single coupled quadrature per side, ``H_int = k (u_a.xi_a)(u_b.xi_b)``,
  with scalar white noise driving exactly those quadratures (optionally with a
  correlated cross spectrum);
* general: arbitrary quadratic cross form ``Q_g`` with matrix-valued white
  noise ``Q_a, Q_b`` on the two sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .symplectic import CovarianceMatrix, ModeLayout, build_form, direct_sum, mode_form

# symmetry and positivity of the forms are judged relative to each form's
# largest entry, so a laboratory-scale form is held to the same standard
_FORM_TOL = 1e-10


def _as_finite(x, shape: tuple, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _as_symmetric(m, dim: int, name: str) -> np.ndarray:
    m = _as_finite(m, (dim, dim), name)
    if np.abs(m - m.T).max() > _FORM_TOL * np.abs(m).max():
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (m + m.T)


@dataclass(frozen=True, eq=False)
class Rank1Coupling:
    """Single-quadrature cross coupling ``k (vec_a . xi_a)(vec_b . xi_b)``."""

    strength: float
    vec_a: np.ndarray
    vec_b: np.ndarray


@dataclass(frozen=True, eq=False)
class GeneralCoupling:
    """Arbitrary quadratic cross form: the AB block of the Hamiltonian."""

    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class ScalarWhiteNoise:
    """White noise driving the coupled quadratures.

    ``s_a`` and ``s_b`` are the local spectral densities; ``s_ab`` is an
    optional correlated cross spectrum (requires ``s_ab**2 <= s_a * s_b``).
    """

    s_a: float
    s_b: float
    s_ab: float = 0.0


@dataclass(frozen=True, eq=False)
class MatrixWhiteNoise:
    """Matrix-valued white noise acting on each side separately."""

    q_a: np.ndarray
    q_b: np.ndarray


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Bipartite model: local Hamiltonians, cross coupling, environment."""

    layout: ModeLayout
    h_a: np.ndarray
    h_b: np.ndarray
    coupling: Rank1Coupling | GeneralCoupling
    noise: ScalarWhiteNoise | MatrixWhiteNoise

    def __post_init__(self) -> None:
        lo = self.layout
        object.__setattr__(self, "h_a", _as_symmetric(self.h_a, lo.dim_a, "h_a"))
        object.__setattr__(self, "h_b", _as_symmetric(self.h_b, lo.dim_b, "h_b"))
        if isinstance(self.coupling, Rank1Coupling):
            c = self.coupling
            object.__setattr__(
                self,
                "coupling",
                Rank1Coupling(
                    strength=float(_as_finite(c.strength, (), "coupling strength")),
                    vec_a=_as_finite(c.vec_a, (lo.dim_a,), "coupling vec_a"),
                    vec_b=_as_finite(c.vec_b, (lo.dim_b,), "coupling vec_b"),
                ),
            )
            if not isinstance(self.noise, ScalarWhiteNoise):
                raise ValueError("rank-1 coupling requires scalar white noise")
            n = self.noise
            _as_finite((n.s_a, n.s_b, n.s_ab), (3,), "noise spectra")
            if n.s_a < 0 or n.s_b < 0:
                raise ValueError("noise spectra must be nonnegative")
            if n.s_ab**2 > n.s_a * n.s_b * (1 + 1e-12):
                raise ValueError("correlated spectrum violates s_ab^2 <= s_a s_b")
        elif isinstance(self.coupling, GeneralCoupling):
            m = _as_finite(self.coupling.matrix, (lo.dim_a, lo.dim_b), "coupling matrix")
            object.__setattr__(self, "coupling", GeneralCoupling(matrix=m))
            if not isinstance(self.noise, MatrixWhiteNoise):
                raise ValueError("general coupling requires matrix white noise")
            q_a = _as_symmetric(self.noise.q_a, lo.dim_a, "q_a")
            q_b = _as_symmetric(self.noise.q_b, lo.dim_b, "q_b")
            for name, q in (("q_a", q_a), ("q_b", q_b)):
                w = np.linalg.eigvalsh(q)
                if w.size and w[0] < -_FORM_TOL * np.abs(q).max():
                    raise ValueError(f"{name} must be positive semidefinite")
            object.__setattr__(self, "noise", MatrixWhiteNoise(q_a=q_a, q_b=q_b))
        else:
            raise ValueError(f"unknown coupling type {type(self.coupling)!r}")

    @property
    def is_rank1(self) -> bool:
        return isinstance(self.coupling, Rank1Coupling)


@dataclass(frozen=True, eq=False)
class GkslGenerator:
    """Moment-level generator together with its defining quadratic forms."""

    layout: ModeLayout
    drift: np.ndarray
    diffusion: np.ndarray
    hamiltonian: np.ndarray
    noise_quadratic: np.ndarray


def coupling_form(model: SystemModel) -> np.ndarray:
    """Cross-coupling quadratic form embedded in the full phase space."""
    lo = model.layout
    g = np.zeros((lo.dim, lo.dim))
    if isinstance(model.coupling, Rank1Coupling):
        c = model.coupling
        block = c.strength * np.outer(c.vec_a, c.vec_b)
    else:
        block = model.coupling.matrix
    g[: lo.dim_a, lo.dim_a :] = block
    g[lo.dim_a :, : lo.dim_a] = block.T
    return g


def hamiltonian_form(model: SystemModel) -> np.ndarray:
    """Full symmetric quadratic form of the Hamiltonian, ``H = xi^T G xi / 2``."""
    return coupling_form(model) + direct_sum(model.h_a, model.h_b)


def noise_form(model: SystemModel) -> np.ndarray:
    """Full symmetric noise form ``Q`` of the dissipative part."""
    if isinstance(model.noise, MatrixWhiteNoise):
        return direct_sum(model.noise.q_a, model.noise.q_b)
    c, n = model.coupling, model.noise
    q = direct_sum(n.s_a * np.outer(c.vec_a, c.vec_a), n.s_b * np.outer(c.vec_b, c.vec_b))
    if n.s_ab != 0.0:
        d = model.layout.dim_a
        q[:d, d:] = n.s_ab * np.outer(c.vec_a, c.vec_b)
        q[d:, :d] = q[:d, d:].T
    return q


def generator_from_forms(layout: ModeLayout, g: np.ndarray, q: np.ndarray) -> GkslGenerator:
    """Generator of the Hamiltonian form ``G`` and the noise form ``Q``."""
    omega = build_form(layout)
    return GkslGenerator(
        layout=layout,
        drift=omega @ g,
        diffusion=omega @ q @ omega.T,
        hamiltonian=g,
        noise_quadratic=q,
    )


def build_generator(model: SystemModel) -> GkslGenerator:
    """Generator of the model's master equation, either variant."""
    return generator_from_forms(model.layout, hamiltonian_form(model), noise_form(model))


def moment_equations(gen: GkslGenerator, v: CovarianceMatrix) -> np.ndarray:
    """Right-hand side ``dV/dt`` of the covariance equation of motion."""
    m = v.matrix
    return gen.drift @ m + m @ gen.drift.T + gen.diffusion


def local_drift_blocks(model: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """Coupling-free drift blocks of the two sides (``eta h`` per side)."""
    lo = model.layout
    return mode_form(lo.n_a) @ model.h_a, mode_form(lo.n_b) @ model.h_b


# -- JSON serialization -------------------------------------------------------
#
# Floats are emitted through Python's repr and therefore round-trip exactly.


def model_to_dict(model: SystemModel) -> dict:
    d = {
        "layout": {"n_a": model.layout.n_a, "n_b": model.layout.n_b},
        "hamiltonian_a": model.h_a.tolist(),
        "hamiltonian_b": model.h_b.tolist(),
    }
    if isinstance(model.coupling, Rank1Coupling):
        d["coupling"] = {
            "kind": "rank1",
            "strength": model.coupling.strength,
            "vec_a": model.coupling.vec_a.tolist(),
            "vec_b": model.coupling.vec_b.tolist(),
        }
        d["noise"] = {
            "kind": "scalar_white",
            "s_a": model.noise.s_a,
            "s_b": model.noise.s_b,
            "s_ab": model.noise.s_ab,
        }
    else:
        d["coupling"] = {
            "kind": "general",
            "matrix": model.coupling.matrix.tolist(),
        }
        d["noise"] = {
            "kind": "matrix_white",
            "q_a": model.noise.q_a.tolist(),
            "q_b": model.noise.q_b.tolist(),
        }
    return d


def model_from_dict(d: dict) -> SystemModel:
    layout = ModeLayout(int(d["layout"]["n_a"]), int(d["layout"]["n_b"]))
    ckind = d["coupling"]["kind"]
    if ckind == "rank1":
        coupling = Rank1Coupling(
            strength=float(d["coupling"]["strength"]),
            vec_a=np.array(d["coupling"]["vec_a"], dtype=float),
            vec_b=np.array(d["coupling"]["vec_b"], dtype=float),
        )
    elif ckind == "general":
        coupling = GeneralCoupling(matrix=np.array(d["coupling"]["matrix"], dtype=float))
    else:
        raise ValueError(f"unknown coupling kind {ckind!r}")
    nkind = d["noise"]["kind"]
    if nkind == "scalar_white":
        noise = ScalarWhiteNoise(
            s_a=float(d["noise"]["s_a"]),
            s_b=float(d["noise"]["s_b"]),
            s_ab=float(d["noise"].get("s_ab", 0.0)),
        )
    elif nkind == "matrix_white":
        noise = MatrixWhiteNoise(
            q_a=np.array(d["noise"]["q_a"], dtype=float),
            q_b=np.array(d["noise"]["q_b"], dtype=float),
        )
    else:
        raise ValueError(f"unknown noise kind {nkind!r}")
    return SystemModel(
        layout=layout,
        h_a=np.array(d["hamiltonian_a"], dtype=float),
        h_b=np.array(d["hamiltonian_b"], dtype=float),
        coupling=coupling,
        noise=noise,
    )


def save_model(model: SystemModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: str | Path) -> SystemModel:
    return model_from_dict(json.loads(Path(path).read_text()))
