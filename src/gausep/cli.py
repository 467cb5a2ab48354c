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
import io
import itertools
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import evolve, shape_functions, transition_blocks
from .generators import FieldError, Fields, build_generator, model_from_dict
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

# The top-level objects each command requires, also passed by bench/setup_probe.py;
# every value inside them is checked by the code that reads it.
_RUN_SCHEMA = ("model",)
_SWEEP_SCHEMA = ("model", "sweep")


def load_config(path: str, required: tuple[str, ...]) -> dict:
    """Read a JSON config whose root is an object holding the ``required``
    objects, with positional diagnostics for parse errors."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        # an integer literal of 300 digits or more reads as the float it rounds
        # to, inf past double range, as a float literal does
        data = json.loads(text, parse_int=lambda t: int(t) if len(t) < 300 else float(t))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    for key in required:
        Fields(data).object(key)
    return data


def _model_from_config(data: dict):
    try:
        return model_from_dict(data["model"], ("model",))
    except FieldError:
        raise
    except ValueError as exc:
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
    config = Fields(data)
    horizon = config.positive("stringent_horizon", None)
    memory = config.object("memory", None)
    c2 = None if memory is None else memory.number("c2")
    verdicts = [threshold(model, tol=args.tol)]
    if horizon is not None:
        if not model.is_rank1:
            raise ConfigError("stringent bound applies to the rank-1 variant only")
        shapes = shape_functions(model, horizon)
        n = model.noise
        verdicts.append(
            stringent_ns_check(
                shapes, n.s_a, n.s_b, model.coupling.strength, n.s_ab, tol=args.tol
            )
        )
    if c2 is not None:
        coeffs = ohmic_d_coefficients(model, c2)
        verdicts.append(damped_bound(model, coeffs, tol=args.tol))
    for verdict in verdicts:
        print(_verdict_line(verdict))
    return EXIT_OK if all(v.satisfied for v in verdicts) else EXIT_VIOLATED


# -- evolve command ------------------------------------------------------------


def _initial_state(data: dict, layout) -> CovarianceMatrix:
    mat = Fields(data).numbers("initial_covariance", 2, None)
    if mat is None:
        return CovarianceMatrix.vacuum(layout)
    try:
        # a square matrix is read as its symmetric part; CovarianceMatrix
        # names any other shape
        if mat.shape == (layout.dim, layout.dim):
            mat = 0.5 * (mat + mat.T)
        return CovarianceMatrix(mat, layout)
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
    # refuse an overflowing run before any row; each row's finite check stays
    with np.errstate(over="ignore", invalid="ignore"):
        end = transition_blocks(gen.drift, gen.diffusion, args.t).apply(v0.matrix)
    if not np.isfinite(end).all():
        raise ValueError(f"the covariance overflows before --t = {args.t:g}")
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
            try:
                ppt = ppt_multimode(v)
            except ValueError as exc:  # an unresolved spectrum: name its row
                raise ValueError(f"at t = {t_i:g}: {exc}") from None
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
    # the oracle is built and its step scheduled first, so a cutoff over the
    # layout's cap or a step over the work cap fails before any output
    config = Fields(data)
    cutoff = config.integer("oracle_cutoff", 2, 12)
    branch = config.choice("branch", ("plus", "minus"), "plus")
    fgen = None
    if args.oracle:
        # the dense oracle, and scipy with it, loads only when asked for
        from .fock import FockSpace, _taylor_schedule, fock_generator_from_model
        from .fock import lindblad_integrate, protocol_kraus_step
        try:
            FockSpace(cutoff, model.layout)
        except ValueError as exc:
            raise ConfigError(f"oracle_cutoff: {exc}") from None
        fgen = fock_generator_from_model(model, cutoff)
        _taylor_schedule(fgen, args.dt)
    target = build_generator(model)
    try:
        if model.is_rank1:
            protocol = build_rank1_protocol(model, branch=branch)
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


_OUTPUT_NAMES = ("margin", "nu_tilde_minus", "log_negativity", "feasibility")


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
        """The spec of a config's ``sweep`` object."""
        sweep = Fields(raw, ("sweep",))
        axes = []
        listed = sweep.array("axes")
        is_path = lambda v: isinstance(v, str) and v
        for i in listed.data:
            a = listed.object(i)
            axis = SweepAxis(
                path=a.read("path", "a non-empty string", is_path, str),
                lo=a.number("min"),
                hi=a.number("max"),
                points=a.integer("points", 2),
                scale=a.choice("scale", ("lin", "log"), "lin"),
            )
            if not axis.lo < axis.hi:
                raise ConfigError(f"axis {axis.path}: min must be below max")
            axes.append(axis)
        listed = sweep.array("outputs")
        outputs = tuple(listed.choice(i, _OUTPUT_NAMES) for i in listed.data)
        time = sweep.positive("time", None)
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
    *parents, last = path.split(".")
    node = tree
    try:
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        if isinstance(node, list):
            node[int(last)] = value
        elif last in node:
            node[last] = value
        else:
            raise KeyError(last)
    # TypeError: a segment past a number, which has no keys or items
    except (KeyError, IndexError, ValueError, TypeError) as exc:
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


def point_model(model_dict: dict, spec: SweepSpec, values: tuple):
    """The model at one grid point: ``model_dict`` with each axis set to its value."""
    local = json.loads(json.dumps(model_dict))
    for axis, value in zip(spec.axes, values):
        set_by_path(local, axis.path, float(value))
    return model_from_dict(local, ("model",))


def evaluate_point(model, spec: SweepSpec) -> list[float]:
    """Pure per-grid-point evaluation; safe to run in a worker process."""
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
    return evaluate_point(*payload)


def _config_digest(data: dict) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _header_line(header: list[str]) -> bytes:
    """The CSV header row as the sweep writes it."""
    buffer = io.StringIO()
    _csv_writer(buffer).writerow(header)
    return buffer.getvalue().encode("utf-8")


def _resume_rows(
    ckpt_path: Path, out_path: Path, digest: str, header: bytes, total: int
) -> tuple[int, int]:
    """``(rows, size)``: the complete rows an interrupted sweep left in its
    CSV and the bytes they end at, or ``(0, 0)`` to start over.

    The checkpoint only ties the CSV to its config.  The rows are counted in
    the CSV itself, so a row written just before an interruption is never
    written twice, and a trailing partial row lies beyond ``size``; a header
    or a row count that does not fit the grid starts the sweep over.
    """
    if not (ckpt_path.exists() and out_path.exists()):
        return 0, 0
    try:
        state = json.loads(ckpt_path.read_text())
    except (OSError, ValueError):
        return 0, 0
    if not isinstance(state, dict) or state.get("config_sha256") != digest:
        return 0, 0
    data = out_path.read_bytes()
    if not data.startswith(header):
        return 0, 0
    # the header ends in a line break, so the last complete line is found
    size = data.rfind(b"\r\n") + 2
    rows = data.count(b"\r\n", len(header), size)
    return (rows, size) if rows <= total else (0, 0)


def cmd_sweep(args) -> int:
    data = load_config(args.config, _SWEEP_SCHEMA)
    spec = SweepSpec.from_config(data["sweep"])
    model_dict = data["model"]
    _model_from_config(data)
    grids = [axis.values() for axis in spec.axes]
    points = list(itertools.product(*grids))
    digest = _config_digest(data)
    header = [axis.path for axis in spec.axes] + list(spec.outputs)

    out_path = Path(args.out)
    ckpt_path = out_path.with_name(out_path.name + ".ckpt")
    header_line = _header_line(header)
    done, size = _resume_rows(ckpt_path, out_path, digest, header_line, len(points))
    if done:
        _LOG.info("resuming sweep at row %d of %d", done, len(points))

    remaining = points[done:]
    # each remaining grid point's model is built before any output is touched,
    # so a bad axis path or a value no model accepts fails first
    payloads = [(point_model(model_dict, spec, values), spec) for values in remaining]
    if done:
        os.truncate(out_path, size)  # a trailing partial row goes
    else:
        ckpt_path.write_text(json.dumps({"config_sha256": digest}) + "\n")
    with open(out_path, "a" if done else "w", newline="", encoding="utf-8") as stream:
        writer = _csv_writer(stream)
        if not done:
            writer.writerow(header)
        # the pool forks all its workers at once, so never more than there
        # are points to run or cores to run them on
        workers = min(args.jobs, len(payloads), os.cpu_count() or 1)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=workers)
            chunk = max(1, len(payloads) // (workers * 4))
            results = pool.map(_sweep_worker, payloads, chunksize=chunk)
        else:
            pool = None
            results = map(_sweep_worker, payloads)
        try:
            for values, row in zip(remaining, results):
                writer.writerow(
                    [format_value(v) for v in values] + [format_value(r) for r in row]
                )
                # a complete row on disk is a row done: the resume counts them
                stream.flush()
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
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
    p_sweep.add_argument("--jobs", type=_positive_int, default=1)
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
        _LOG.debug("%s failed", args.command, exc_info=True)
        # a FieldError locates its value in the config; the file completes it
        where = f"{args.config}: " if isinstance(exc, FieldError) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_ERROR
