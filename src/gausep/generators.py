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

import numpy as np

from .symplectic import FORM_TOL, ModeLayout, build_form, direct_sum, mode_form, symmetric_form


def _as_finite(x, shape: tuple, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


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
        object.__setattr__(self, "h_a", symmetric_form(self.h_a, lo.dim_a, "h_a"))
        object.__setattr__(self, "h_b", symmetric_form(self.h_b, lo.dim_b, "h_b"))
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
            for name in ("vec_a", "vec_b"):
                if not getattr(self.coupling, name).any():
                    raise ValueError(f"coupling {name} must be nonzero")
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
            q_a = symmetric_form(self.noise.q_a, lo.dim_a, "q_a")
            q_b = symmetric_form(self.noise.q_b, lo.dim_b, "q_b")
            for name, q in (("q_a", q_a), ("q_b", q_b)):
                w = np.linalg.eigvalsh(q)
                if w.size and w[0] < -FORM_TOL * np.abs(q).max():
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


def _cross_block(model: SystemModel) -> np.ndarray:
    """The AB block of the coupling: ``k vec_a vec_b^T`` or the general matrix."""
    c = model.coupling
    return c.strength * np.outer(c.vec_a, c.vec_b) if model.is_rank1 else c.matrix


def coupling_form(model: SystemModel) -> np.ndarray:
    """Cross-coupling quadratic form embedded in the full phase space."""
    return direct_sum(np.zeros_like(model.h_a), np.zeros_like(model.h_b), _cross_block(model))


def hamiltonian_form(model: SystemModel) -> np.ndarray:
    """Full symmetric quadratic form of the Hamiltonian, ``H = xi^T G xi / 2``."""
    return direct_sum(model.h_a, model.h_b, _cross_block(model))


def noise_form(model: SystemModel) -> np.ndarray:
    """Full symmetric noise form ``Q`` of the dissipative part."""
    if isinstance(model.noise, MatrixWhiteNoise):
        return direct_sum(model.noise.q_a, model.noise.q_b)
    n, a, b = model.noise, model.coupling.vec_a, model.coupling.vec_b
    cross = None if n.s_ab == 0.0 else n.s_ab * np.outer(a, b)
    return direct_sum(n.s_a * np.outer(a, a), n.s_b * np.outer(b, b), cross)


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


def local_drift_blocks(model: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """Coupling-free drift blocks of the two sides (``eta h`` per side)."""
    lo = model.layout
    return mode_form(lo.n_a) @ model.h_a, mode_form(lo.n_b) @ model.h_b


# -- JSON reading ---------------------------------------------------------------
#
# Each config value is checked by the code that reads it: a missing, mistyped or
# out-of-range value raises FieldError naming its JSON path from the config
# root.  Non-finite numbers pass here and are judged where they are used.

_ABSENT = object()


class FieldError(ValueError):
    """A config value missing, mistyped or out of range; the message reads
    ``at <json/path>: expected <what>, got <value>``."""


def _field_error(path: tuple, expected: str, got=_ABSENT) -> FieldError:
    shown = "nothing" if got is _ABSENT else json.dumps(got, default=repr)
    shown = shown if len(shown) <= 60 else shown[:57] + "..."
    where = "/".join(map(str, path)) or "<root>"
    return FieldError(f"at {where}: expected {expected}, got {shown}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


class Fields:
    """A JSON object and its path from the config root, read key by key.

    Each reader returns the checked value at ``key``, or ``default`` when the
    key is absent and a default is given.
    """

    def __init__(self, data, path: tuple = ()):
        if not isinstance(data, dict):
            raise _field_error(path, "an object", data)
        self.data, self.path = data, tuple(path)

    def read(self, key, expected: str, ok, convert=float, default=_ABSENT):
        """The value at ``key`` if ``ok`` accepts it, passed through ``convert``."""
        value = self.data.get(key, _ABSENT)
        if value is _ABSENT and default is not _ABSENT:
            return default
        if not ok(value):
            raise _field_error((*self.path, key), expected, value)
        return convert(value)

    def object(self, key, default=_ABSENT) -> Fields:
        path = (*self.path, key)
        return self.read(key, "an object", lambda v: True, lambda v: Fields(v, path), default)

    def array(self, key) -> Fields:
        """The non-empty array at ``key``, its elements keyed by index."""
        items = self.read(key, "a non-empty array", lambda v: isinstance(v, list) and v, list)
        return Fields(dict(enumerate(items)), (*self.path, key))

    def number(self, key, default=_ABSENT) -> float:
        return self.read(key, "a number", _is_number, default=default)

    def positive(self, key, default=_ABSENT) -> float:
        ok = lambda v: _is_number(v) and 0 < v < np.inf
        return self.read(key, "a finite number > 0", ok, default=default)

    def integer(self, key, minimum: int, default=_ABSENT) -> int:
        ok = lambda v: _is_number(v) and float(v).is_integer() and v >= minimum
        return self.read(key, f"an integer >= {minimum}", ok, int, default)

    def choice(self, key, options: tuple, default=_ABSENT) -> str:
        expected = 'one of "' + '", "'.join(options) + '"'
        return self.read(key, expected, lambda v: v in options, str, default)

    def numbers(self, key, ndim: int = 1, default=_ABSENT) -> np.ndarray:
        """The non-empty, rectangular ``ndim``-deep array of numbers at ``key``."""
        if key not in self.data and default is not _ABSENT:
            return default
        seq = self.array(key)
        rows = [seq.numbers(i, ndim - 1) if ndim > 1 else seq.number(i) for i in seq.data]
        if len(set(map(np.shape, rows))) > 1:
            raise _field_error(seq.path, "rows of equal length", self.data[key])
        return np.array(rows)


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


def model_from_dict(d: dict, path: tuple = ()) -> SystemModel:
    """The model a JSON dict describes; ``path`` locates ``d`` in its config
    for the :class:`FieldError` a malformed value raises."""
    fields = Fields(d, path)
    lo = fields.object("layout")
    layout = ModeLayout(lo.integer("n_a", 1), lo.integer("n_b", 1))
    h_a, h_b = fields.numbers("hamiltonian_a", 2), fields.numbers("hamiltonian_b", 2)
    c = fields.object("coupling")
    if c.choice("kind", ("rank1", "general")) == "rank1":
        coupling = Rank1Coupling(
            strength=c.number("strength"), vec_a=c.numbers("vec_a"), vec_b=c.numbers("vec_b")
        )
    else:
        coupling = GeneralCoupling(matrix=c.numbers("matrix", 2))
    n = fields.object("noise")
    if n.choice("kind", ("scalar_white", "matrix_white")) == "scalar_white":
        noise = ScalarWhiteNoise(
            s_a=n.number("s_a"), s_b=n.number("s_b"), s_ab=n.number("s_ab", 0.0)
        )
    else:
        noise = MatrixWhiteNoise(q_a=n.numbers("q_a", 2), q_b=n.numbers("q_b", 2))
    return SystemModel(
        layout=layout,
        h_a=h_a,
        h_b=h_b,
        coupling=coupling,
        noise=noise,
    )
