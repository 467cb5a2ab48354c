"""Command-line front end.

Loads JSON configs, runs threshold checks, covariance evolutions, protocol
verifications, and parameter sweeps, and emits CSV or plain-text reports.
Exit codes: 0 success/bound satisfied, 1 error, 2 bound violated, 3 protocol
infeasible.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .dynamics import evolve, shape_functions, transition_blocks
from .fock import (
    _taylor_schedule,
    fock_generator_from_model,
    lindblad_integrate,
    protocol_kraus_step,
)
from .generators import build_generator, model_from_dict
from .locc import (
    InfeasibleProtocolError,
    build_rank1_protocol,
    damped_bound,
    effective_generator,
    ohmic_d_coefficients,
    run_protocol,
    solve_correlated,
    synthesize_general,
)
from .separability import (
    MARGIN_TOL,
    ppt_multimode,
    stringent_ns_check,
    threshold,
)
from .symplectic import CovarianceMatrix, is_physical

_LOG = logging.getLogger("gausep")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATED = 2
EXIT_INFEASIBLE = 3


class ConfigError(ValueError):
    """Raised for malformed or inconsistent config files."""


# -- config loading ------------------------------------------------------------

_NUMBER = {"type": "number"}
_VECTOR = {"type": "array", "items": _NUMBER, "minItems": 1}
_MATRIX = {"type": "array", "items": _VECTOR, "minItems": 1}

_MODEL_SCHEMA = {
    "type": "object",
    "required": ["layout", "hamiltonian_a", "hamiltonian_b", "coupling", "noise"],
    "properties": {
        "layout": {
            "type": "object",
            "required": ["n_a", "n_b"],
            "properties": {
                "n_a": {"type": "integer", "minimum": 1},
                "n_b": {"type": "integer", "minimum": 1},
            },
        },
        "hamiltonian_a": _MATRIX,
        "hamiltonian_b": _MATRIX,
        "coupling": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["rank1", "general"]}},
        },
        "noise": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["scalar_white", "matrix_white"]}},
        },
    },
}

_AXIS_SCHEMA = {
    "type": "object",
    "required": ["path", "min", "max", "points"],
    "properties": {
        "path": {"type": "string", "minLength": 1},
        "min": _NUMBER,
        "max": _NUMBER,
        "points": {"type": "integer", "minimum": 2},
        "scale": {"enum": ["lin", "log"]},
    },
}

_OUTPUT_NAMES = ["margin", "nu_tilde_minus", "log_negativity", "feasibility"]

_SWEEP_SCHEMA = {
    "type": "object",
    "required": ["model", "sweep"],
    "properties": {
        "model": _MODEL_SCHEMA,
        "sweep": {
            "type": "object",
            "required": ["axes", "outputs"],
            "properties": {
                "axes": {"type": "array", "items": _AXIS_SCHEMA, "minItems": 1},
                "outputs": {
                    "type": "array",
                    "items": {"enum": _OUTPUT_NAMES},
                    "minItems": 1,
                },
                "time": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}

_RUN_SCHEMA = {
    "type": "object",
    "required": ["model"],
    "properties": {
        "model": _MODEL_SCHEMA,
        "initial_covariance": _MATRIX,
        "memory": {
            "type": "object",
            "required": ["c2"],
            "properties": {"c2": _NUMBER},
        },
        "stringent_horizon": {"type": "number", "exclusiveMinimum": 0},
        "branch": {"enum": ["plus", "minus"]},
        "oracle_cutoff": {"type": "integer", "minimum": 2},
    },
}


_VALIDATORS: dict[int, object] = {}


def _validator(schema: dict):
    """Validator for ``schema``, checked against its metaschema once and kept.

    Keyed by identity: each validator holds its schema, so the id stays taken.
    """
    if id(schema) not in _VALIDATORS:
        cls = validator_for(schema)
        cls.check_schema(schema)
        _VALIDATORS[id(schema)] = cls(schema)
    return _VALIDATORS[id(schema)]


def load_config(path: str, schema: dict) -> dict:
    """Read and schema-validate a JSON config, with positional diagnostics.

    Errors are chosen by ``best_match`` exactly as ``jsonschema.validate``
    chooses them.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    error = best_match(_validator(schema).iter_errors(data))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"{path}: at {where}: {error.message}") from error
    return data


def _model_from_config(data: dict):
    try:
        return model_from_dict(data["model"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


# -- CSV emission --------------------------------------------------------------


def format_value(x: float) -> str:
    """Format a double losslessly with 17 significant digits."""
    return f"{float(x):.17g}"


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _csv_writer(stream):
    # RFC-4180 line endings regardless of destination.
    return csv.writer(stream, lineterminator="\r\n")


# -- threshold command ---------------------------------------------------------


def _verdict_line(verdict) -> str:
    state = "satisfied" if verdict.satisfied else "violated"
    line = f"{verdict.bound_kind.value}: {state} margin={format_value(verdict.margin)}"
    if verdict.necessary_and_sufficient:
        line += " (necessary and sufficient)"
    if verdict.reason:
        line += f" ({verdict.reason})"
    return line


def cmd_threshold(args) -> int:
    data = load_config(args.config, _RUN_SCHEMA)
    model = _model_from_config(data)
    verdicts = [threshold(model, tol=args.tol)]
    horizon = data.get("stringent_horizon")
    if horizon is not None:
        if not model.is_rank1:
            raise ConfigError("stringent bound applies to the rank-1 variant only")
        shapes = shape_functions(model, float(horizon))
        n = model.noise
        verdicts.append(
            stringent_ns_check(
                shapes, n.s_a, n.s_b, model.coupling.strength, n.s_ab, tol=args.tol
            )
        )
    memory = data.get("memory")
    if memory is not None:
        coeffs = ohmic_d_coefficients(model, float(memory["c2"]))
        verdicts.append(damped_bound(model, coeffs, tol=args.tol))
    for verdict in verdicts:
        print(_verdict_line(verdict))
    return EXIT_OK if all(v.satisfied for v in verdicts) else EXIT_VIOLATED


# -- evolve command ------------------------------------------------------------


def _initial_state(data: dict, layout) -> CovarianceMatrix:
    raw = data.get("initial_covariance")
    if raw is None:
        return CovarianceMatrix.vacuum(layout)
    mat = np.array(raw, dtype=float)
    if mat.shape != (layout.dim, layout.dim):
        raise ConfigError(
            f"initial covariance must be {layout.dim}x{layout.dim}, got {mat.shape}"
        )
    try:
        return CovarianceMatrix(0.5 * (mat + mat.T), layout)
    except ValueError as exc:
        raise ConfigError(f"initial_covariance: {exc}") from exc


def cmd_evolve(args) -> int:
    data = load_config(args.config, _RUN_SCHEMA)
    model = _model_from_config(data)
    gen = build_generator(model)
    v0 = _initial_state(data, model.layout)
    if args.t < 0:
        raise ConfigError("--t must be nonnegative")
    if args.steps < 1:
        raise ConfigError("--steps must be at least 1")
    # one exact transition over t/steps, iterated row to row
    step = transition_blocks(gen.drift, gen.diffusion, args.t / args.steps)
    stream, owned = _open_out(args.out)
    try:
        writer = _csv_writer(stream)
        writer.writerow(["t", "min_sympl_eig_pt", "log_negativity", "physical"])
        v = v0
        for i in range(args.steps + 1):
            t_i = args.t * i / args.steps
            if i:
                v = CovarianceMatrix(step.apply(v.matrix), model.layout)
            ppt = ppt_multimode(v)
            writer.writerow(
                [
                    format_value(t_i),
                    format_value(ppt.min_sympl_eig),
                    format_value(ppt.log_negativity),
                    "1" if is_physical(v) else "0",
                ]
            )
    finally:
        if owned:
            stream.close()
    return EXIT_OK


# -- locc-verify command -------------------------------------------------------


def _generator_residual(protocol, target) -> float:
    eff = effective_generator(protocol)
    return float(
        max(
            np.abs(eff.drift - target.drift).max(),
            np.abs(eff.diffusion - target.diffusion).max(),
        )
    )


# Above this many steps the roundoff allowance below passes 1e-3 of max|V|,
# so no Trotter error the command could print would be resolved.
MAX_TROTTER_STEPS = 10**12
# The step map is rounded once and applied ``steps`` times, so the roundoff of
# the protocol's covariance grows with the step count: on lab-scale models it
# stays under 0.8 eps max|V| per step from 100 to 1e9 steps, and ``evolve``
# and the 2 log2(steps) compositions add a few eps max|V| more.
TROTTER_ROUNDOFF_ULPS = 4


def _trotter_steps(t: float, dt: float) -> tuple[int, int]:
    """Step counts at ``dt`` and ``dt/2``, refused above ``MAX_TROTTER_STEPS``
    or when the finer slice ``t / steps`` underflows to zero."""
    ratio = t / dt
    if not 2.0 * ratio <= MAX_TROTTER_STEPS:
        raise ConfigError(
            f"--t / --dt = {ratio:.3g} needs more Trotter steps than the cap "
            f"of {MAX_TROTTER_STEPS:.0e}"
        )
    steps = max(1, round(ratio)), max(1, round(2.0 * ratio))
    if not t / steps[1] > 0:
        raise ConfigError(
            f"the dt/2 slice --t / {steps[1]} = {t:.3g} / {steps[1]} underflows to 0"
        )
    return steps


def _trotter_orders(protocol, target, t: float, steps: tuple[int, int]):
    """Global Trotter errors at both step counts against the exact semigroup.

    The third value is ``None`` when the error at the finer step is at most
    ``TROTTER_ROUNDOFF_ULPS`` eps max|V| per step, below what double
    precision resolves, and the observed order ``log2(e1 / e2)`` otherwise.
    """
    v0 = CovarianceMatrix.vacuum(target.layout)
    exact = evolve(target, v0, t).matrix
    e1, e2 = (
        float(np.abs(run_protocol(v0, protocol, t, n).matrix - exact).max())
        for n in steps
    )
    floor = TROTTER_ROUNDOFF_ULPS * steps[1] * np.finfo(float).eps * np.abs(exact).max()
    return e1, e2, (None if e2 <= floor else float(np.log2(e1 / e2)))


def cmd_locc_verify(args) -> int:
    data = load_config(args.config, _RUN_SCHEMA)
    model = _model_from_config(data)
    if args.t <= 0 or args.dt <= 0:
        raise ConfigError("--t and --dt must be positive")
    steps = _trotter_steps(args.t, args.dt)
    # the oracle is built and its step scheduled first, so an unsupported
    # layout or a step over the work cap fails before any output
    cutoff = int(data.get("oracle_cutoff", 12))
    fgen = None
    if args.oracle:
        fgen = fock_generator_from_model(model, cutoff)
        _taylor_schedule(fgen, args.dt)
    target = build_generator(model)
    try:
        if model.is_rank1:
            protocol = build_rank1_protocol(model, branch=data.get("branch", "plus"))
        else:
            protocol = synthesize_general(model, tol=args.tol)
    except InfeasibleProtocolError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    residual = _generator_residual(protocol, target)
    e1, e2, order = _trotter_orders(protocol, target, args.t, steps)
    print(f"channels: {len(protocol.channels)}")
    print(f"generator_residual: {format_value(residual)}")
    print(f"trotter_error_dt: {format_value(e1)}")
    print(f"trotter_error_dt_half: {format_value(e2)}")
    # "exact": the splitting error is below what double precision resolves
    print(f"trotter_order: {'exact' if order is None else format_value(order)}")
    if fgen is not None:
        rho0 = fgen.space.vacuum()
        semigroup = lindblad_integrate(fgen, rho0, args.dt)
        stepped, defect = protocol_kraus_step(fgen.space, rho0, protocol, args.dt)
        residual = float(np.abs(stepped - semigroup).max())
        print(f"oracle_cutoff: {fgen.space.cutoff}")
        print(f"oracle_channel_residual: {format_value(residual)}")
        print(f"oracle_trace_defect: {format_value(defect)}")
    return EXIT_OK


# -- sweep command -------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    path: str
    lo: float
    hi: float
    points: int
    scale: str

    def values(self) -> np.ndarray:
        if self.scale == "log":
            if self.lo <= 0:
                raise ConfigError(f"axis {self.path}: log scale needs min > 0")
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[SweepAxis, ...]
    outputs: tuple[str, ...]
    time: float | None

    @classmethod
    def from_config(cls, raw: dict) -> "SweepSpec":
        axes = []
        for a in raw["axes"]:
            if not a["min"] < a["max"]:
                raise ConfigError(f"axis {a['path']}: min must be below max")
            axes.append(
                SweepAxis(
                    path=a["path"],
                    lo=float(a["min"]),
                    hi=float(a["max"]),
                    points=int(a["points"]),
                    scale=a.get("scale", "lin"),
                )
            )
        outputs = tuple(raw["outputs"])
        time = raw.get("time")
        needs_state = {"nu_tilde_minus", "log_negativity"} & set(outputs)
        if needs_state and time is None:
            raise ConfigError(
                "sweep outputs "
                + ", ".join(sorted(needs_state))
                + " need an evolution 'time'"
            )
        return cls(axes=tuple(axes), outputs=outputs, time=time)


def set_by_path(tree: dict, path: str, value: float) -> None:
    """Assign a number at a dotted path; integer segments index lists."""
    node = tree
    parts = path.split(".")
    for part in parts[:-1]:
        try:
            node = node[int(part)] if isinstance(node, list) else node[part]
        except (KeyError, IndexError, ValueError) as exc:
            raise ConfigError(f"no such parameter path: {path}") from exc
    last = parts[-1]
    try:
        if isinstance(node, list):
            node[int(last)] = value
        else:
            if last not in node:
                raise KeyError(last)
            node[last] = value
    except (KeyError, IndexError, ValueError) as exc:
        raise ConfigError(f"no such parameter path: {path}") from exc


def _feasibility(model) -> float:
    try:
        if model.is_rank1:
            n = model.noise
            solve_correlated(n.s_a, n.s_b, model.coupling.strength, n.s_ab)
        else:
            synthesize_general(model)
    except InfeasibleProtocolError:
        return 0.0
    return 1.0


def evaluate_point(model_dict: dict, spec: SweepSpec, values: tuple) -> list[float]:
    """Pure per-grid-point evaluation; safe to run in a worker process."""
    local = json.loads(json.dumps(model_dict))
    for axis, value in zip(spec.axes, values):
        set_by_path(local, axis.path, float(value))
    model = model_from_dict(local)
    row = []
    ppt = None
    if {"nu_tilde_minus", "log_negativity"} & set(spec.outputs):
        gen = build_generator(model)
        ppt = ppt_multimode(
            evolve(gen, CovarianceMatrix.vacuum(model.layout), spec.time)
        )
    for name in spec.outputs:
        if name == "margin":
            row.append(threshold(model).margin)
        elif name == "nu_tilde_minus":
            row.append(ppt.min_sympl_eig)
        elif name == "log_negativity":
            row.append(ppt.log_negativity)
        elif name == "feasibility":
            row.append(_feasibility(model))
    return row


def _sweep_worker(payload):
    model_dict, spec, values = payload
    return evaluate_point(model_dict, spec, values)


def _config_digest(data: dict) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _load_checkpoint(ckpt_path: Path, out_path: Path, digest: str) -> int:
    if not (ckpt_path.exists() and out_path.exists()):
        return 0
    try:
        state = json.loads(ckpt_path.read_text())
    except (OSError, json.JSONDecodeError):
        return 0
    if state.get("config_sha256") != digest:
        return 0
    return int(state.get("rows_done", 0))


def cmd_sweep(args) -> int:
    data = load_config(args.config, _SWEEP_SCHEMA)
    spec = SweepSpec.from_config(data["sweep"])
    model_dict = data["model"]
    # Validate the base model and axis paths up front so typos fail before
    # any output file is touched.
    _model_from_config(data)
    scratch = json.loads(json.dumps(model_dict))
    for axis in spec.axes:
        set_by_path(scratch, axis.path, axis.lo)
    grids = [axis.values() for axis in spec.axes]
    points = list(itertools.product(*grids))
    digest = _config_digest(data)

    out_path = Path(args.out)
    ckpt_path = out_path.with_name(out_path.name + ".ckpt")
    done = _load_checkpoint(ckpt_path, out_path, digest)
    if done > len(points):
        done = 0
    mode = "a" if done else "w"
    if done:
        _LOG.info("resuming sweep at row %d of %d", done, len(points))

    remaining = points[done:]
    payloads = [(model_dict, spec, values) for values in remaining]
    with open(out_path, mode, newline="") as stream:
        writer = _csv_writer(stream)
        if not done:
            writer.writerow([axis.path for axis in spec.axes] + list(spec.outputs))
        if args.jobs > 1 and payloads:
            pool = ProcessPoolExecutor(max_workers=args.jobs)
            chunk = max(1, len(payloads) // (args.jobs * 4))
            results = pool.map(_sweep_worker, payloads, chunksize=chunk)
        else:
            pool = None
            results = map(_sweep_worker, payloads)
        try:
            for values, row in zip(remaining, results):
                writer.writerow(
                    [format_value(v) for v in values] + [format_value(r) for r in row]
                )
                stream.flush()
                done += 1
                ckpt_path.write_text(
                    json.dumps({"config_sha256": digest, "rows_done": done}) + "\n"
                )
        finally:
            if pool is not None:
                pool.shutdown()
    ckpt_path.unlink(missing_ok=True)
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def _finite(text: str) -> float:
    # the sign of a time is checked by its command, which knows its domain
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are errors (1), not bound violations (2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gausep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_thresh = sub.add_parser("threshold", help="closed-form separability bounds")
    p_thresh.add_argument("--config", required=True)
    p_thresh.add_argument("--tol", type=_tolerance, default=MARGIN_TOL)

    p_evolve = sub.add_parser("evolve", help="covariance time series as CSV")
    p_evolve.add_argument("--config", required=True)
    p_evolve.add_argument("--t", type=_finite, required=True)
    p_evolve.add_argument("--steps", type=int, default=100)
    p_evolve.add_argument("--out", default=None)

    p_locc = sub.add_parser("locc-verify", help="synthesize and check a protocol")
    p_locc.add_argument("--config", required=True)
    p_locc.add_argument("--t", type=_finite, default=0.1)
    p_locc.add_argument("--dt", type=_finite, default=1e-3)
    p_locc.add_argument("--oracle", action="store_true")
    p_locc.add_argument("--tol", type=_tolerance, default=MARGIN_TOL)

    p_sweep = sub.add_parser("sweep", help="cartesian parameter sweep as CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    return parser


def _configure_logging() -> None:
    level = os.environ.get("GAUSEP_LOG", "warning").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR"):
        level = "WARNING"
    logging.basicConfig(
        level=getattr(logging, level),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused; it never changes."""
    return build_parser()


def main(argv=None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    # looked up per call, so a rebound ``cmd_*`` (a tracing wrapper) is what runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
