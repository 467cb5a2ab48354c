"""Tests for the command-line front end."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gausep import cli, fock, gravity
from gausep.cli import main
from gausep.dynamics import evolve
from gausep.generators import build_generator, model_from_dict, model_to_dict
from gausep.separability import PPT_RESOLVED_BANDS, log_negativity, ppt_multimode
from gausep.symplectic import CovarianceMatrix

FREE_MASS = {
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


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def model_config(strength=1.0, **noise):
    model = json.loads(json.dumps(FREE_MASS))
    model["coupling"]["strength"] = strength
    model["noise"].update(noise)
    return {"model": model}


def read_csv(path):
    with open(path, newline="") as stream:
        return list(csv.reader(stream))


def test_threshold_satisfied_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, model_config(1.0))
    assert main(["threshold", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "rank1: satisfied" in out
    assert "margin=3" in out


def test_threshold_saturated_margin_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, model_config(2.0))
    assert main(["threshold", "--config", cfg]) == 0
    assert "margin=0" in capsys.readouterr().out


def test_threshold_violated_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, model_config(3.0))
    assert main(["threshold", "--config", cfg]) == 2
    assert "violated" in capsys.readouterr().out


def test_threshold_reports_all_requested_bounds(tmp_path, capsys):
    payload = model_config(1.0)
    payload["stringent_horizon"] = 0.05
    payload["memory"] = {"c2": 0.1}
    cfg = write_config(tmp_path, payload)
    assert main(["threshold", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "stringent_ns" in out and "necessary and sufficient" in out
    assert "damped" in out


def test_malformed_config_exits_one_with_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"model": \n  oops}')
    assert main(["threshold", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "bad.json:2:" in err


def test_schema_violation_reports_the_offending_path(tmp_path, capsys):
    payload = model_config(1.0)
    payload["model"]["layout"]["n_a"] = 0
    cfg = write_config(tmp_path, payload)
    assert main(["threshold", "--config", cfg]) == 1
    assert "layout/n_a" in capsys.readouterr().err


def invalid_configs():
    wrong_type = model_config(1.0)
    wrong_type["model"]["layout"] = {"n_a": "one", "n_b": 0}
    unknown_kind = model_config(1.0)
    unknown_kind["model"]["noise"]["kind"] = "pink"
    del unknown_kind["model"]["coupling"]
    return [
        (wrong_type, 'model/layout/n_a: expected an integer >= 1, got "one"'),
        (unknown_kind, "model/coupling: expected an object, got nothing"),
        ({"model": [1, 2]}, "model: expected an object, got [1, 2]"),
        ({"branch": "both"}, "model: expected an object, got nothing"),
    ]


@pytest.mark.parametrize(
    "payload, message", invalid_configs(), ids=[f"payload{i}" for i in range(4)]
)
def test_schema_errors_read_as_jsonschema_validate_reports_them(
    tmp_path, capsys, payload, message
):
    """The first malformed value in reading order is named by its JSON path."""
    cfg = write_config(tmp_path, payload)
    assert main(["threshold", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}: at {message}\n"


GENERAL = {
    **FREE_MASS,
    "coupling": {"kind": "general", "matrix": [[0.5, 0.0], [0.0, 0.0]]},
    "noise": {"kind": "matrix_white", "q_a": np.eye(2).tolist(), "q_b": np.eye(2).tolist()},
}


@pytest.mark.parametrize("value", [True, "1.0", None], ids=["bool", "string", "null"])
@pytest.mark.parametrize(
    "field",
    [
        "coupling/strength",
        "coupling/vec_a/0",
        "coupling/vec_b/1",
        "noise/s_a",
        "noise/s_b",
        "noise/s_ab",
        "coupling/matrix/0/1",
        "noise/q_a/1/1",
        "noise/q_b/0/0",
    ],
)
def test_non_number_model_input_exits_one(tmp_path, capsys, field, value):
    general = "matrix" in field or "q_" in field
    model = json.loads(json.dumps(GENERAL if general else FREE_MASS))
    *parents, last = field.split("/")
    node = model
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[int(last) if isinstance(node, list) else last] = value
    cfg = write_config(tmp_path, {"model": model})
    assert main(["threshold", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = f"at model/{field}: expected a number, got {json.dumps(value)}"
    assert captured.err == f"error: {cfg}: {expected}\n"


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("locc-verify", {"branch": "both"},
         'branch: expected one of "plus", "minus", got "both"'),
        ("locc-verify", {"oracle_cutoff": 1}, "oracle_cutoff: expected an integer >= 2, got 1"),
        ("locc-verify", {"oracle_cutoff": 12.5},
         "oracle_cutoff: expected an integer >= 2, got 12.5"),
        ("threshold", {"stringent_horizon": -1.0},
         "stringent_horizon: expected a finite number > 0, got -1.0"),
        ("threshold", {"memory": {}}, "memory/c2: expected a number, got nothing"),
        ("threshold", {"memory": 0.1}, "memory: expected an object, got 0.1"),
        ("evolve", {"initial_covariance": [[0.5, 0.0], []]},
         "initial_covariance/1: expected a non-empty array, got []"),
        ("evolve", {"initial_covariance": [[0.5, 0.0], [0.5]]},
         "initial_covariance: expected rows of equal length, got [[0.5, 0.0], [0.5]]"),
        ("evolve", {"model": {**FREE_MASS, "layout": {"n_a": 1}}},
         "model/layout/n_b: expected an integer >= 1, got nothing"),
    ],
)
def test_run_config_errors_name_their_path(tmp_path, capsys, command, extra, message):
    cfg = write_config(tmp_path, {**model_config(1.0), **extra})
    out = tmp_path / "series.csv"
    argv = [command, "--config", cfg]
    if command == "evolve":
        argv += ["--t", "0.1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}: at {message}\n"
    assert not out.exists()


def test_integer_past_double_range_reads_as_infinity(tmp_path, capsys):
    cfg = write_config(tmp_path, model_config(10**400))
    assert main(["threshold", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid model: coupling strength must be finite\n"


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["threshold", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_evolve_initial_row_is_the_initial_state(tmp_path):
    cfg = write_config(tmp_path, model_config(3.0))
    out = tmp_path / "series.csv"
    assert main(["evolve", "--config", cfg, "--t", "0.05", "--steps", "5",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["t", "min_sympl_eig_pt", "log_negativity", "physical"]
    assert len(rows) == 7
    assert float(rows[1][0]) == 0.0
    np.testing.assert_allclose(float(rows[1][1]), 0.5, atol=1e-12)
    assert float(rows[1][2]) == 0.0
    assert rows[1][3] == "1"


def test_evolve_entangling_run_grows_log_negativity(tmp_path):
    cfg = write_config(tmp_path, model_config(3.0))
    out = tmp_path / "series.csv"
    main(["evolve", "--config", cfg, "--t", "0.05", "--steps", "10", "--out", str(out)])
    log_neg = [float(r[2]) for r in read_csv(out)[1:]]
    assert log_neg[0] == 0.0
    assert log_neg[-1] > 1e-4
    assert all(b >= a - 1e-12 for a, b in zip(log_neg, log_neg[1:]))


def test_evolve_saturated_run_stays_separable(tmp_path):
    cfg = write_config(tmp_path, model_config(2.0))
    out = tmp_path / "series.csv"
    main(["evolve", "--config", cfg, "--t", "0.05", "--steps", "10", "--out", str(out)])
    log_neg = [float(r[2]) for r in read_csv(out)[1:]]
    assert max(log_neg) < 1e-9


def test_evolve_rows_match_evolving_each_time_from_the_start(tmp_path):
    payload = ray_model_config(3.0, 2.0)
    payload["model"]["hamiltonian_b"] = [[1.0, 0.2], [0.2, 0.5]]
    payload["initial_covariance"] = [
        [0.8, 0.1, 0.0, 0.0],
        [0.1, 0.6, 0.0, 0.05],
        [0.0, 0.0, 0.5, 0.0],
        [0.0, 0.05, 0.0, 0.7],
    ]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "series.csv"
    assert main(["evolve", "--config", cfg, "--t", "0.8", "--steps", "40",
                 "--out", str(out)]) == 0
    gen = build_generator(model_from_dict(payload["model"]))
    v0 = CovarianceMatrix(np.array(payload["initial_covariance"]), gen.layout)
    rows = read_csv(out)[1:]
    assert len(rows) == 41
    for row in rows:
        v = evolve(gen, v0, float(row[0]))
        assert abs(float(row[1]) - ppt_multimode(v).min_sympl_eig) < 1e-12
        assert abs(float(row[2]) - log_negativity(v)) < 1e-12
    assert float(rows[-1][2]) > 0.0


def test_locc_verify_reports_small_residual(tmp_path, capsys):
    cfg = write_config(tmp_path, model_config(1.0))
    assert main(["locc-verify", "--config", cfg, "--t", "0.05", "--dt", "1e-3"]) == 0
    out = capsys.readouterr().out
    residual = float(out.split("generator_residual: ")[1].splitlines()[0])
    assert residual < 1e-12
    assert "trotter_order" in out


CONFIGS = Path(__file__).parents[1] / "configs"


def lab_model_config(coupling: float, noise_ratio: float) -> dict:
    """Two 0.1 kg masses 1 cm apart, nondimensionalized by ``gravity.to_model``.

    The reference frequency makes the dimensionless coupling ``coupling`` and
    the damping makes each thermal drive ``noise_ratio`` times it.
    """
    mass, separation, temperature = 0.1, 1e-2, 1e-3
    omega = np.sqrt(gravity.coupling_constant(mass, mass, separation) / (mass * coupling))
    gamma = (
        noise_ratio * coupling * gravity.REDUCED_PLANCK * omega**2
        / (2.0 * gravity.BOLTZMANN * temperature)
    )
    scenario = gravity.TwoMassScenario(mass, mass, separation, gamma, gamma, temperature)
    model, _ = gravity.to_model(scenario, omega)
    return {"model": model_to_dict(model)}


def trotter_report(capsys) -> dict:
    lines = capsys.readouterr().out.splitlines()
    return dict(line.split(": ", 1) for line in lines if line.startswith("trotter"))


def test_trotter_order_is_exact_below_the_roundoff_of_the_step_map(tmp_path, capsys):
    """A lab-scale splitting error is roundoff, an O(1) model's is first order."""
    cfg = write_config(tmp_path, lab_model_config(1e-11, 1.5))
    assert main(["locc-verify", "--config", cfg]) == 0
    report = trotter_report(capsys)
    assert report["trotter_order"] == "exact"
    assert 0.0 < float(report["trotter_error_dt_half"]) < 1e-13
    assert main(["locc-verify", "--config", str(CONFIGS / "locc_harmonic.json")]) == 0
    assert abs(float(trotter_report(capsys)["trotter_order"]) - 1.0) < 1e-3


def test_locc_verify_powers_a_billion_steps(capsys):
    cfg = str(CONFIGS / "locc_harmonic.json")
    assert main(["locc-verify", "--config", cfg, "--t", "1e-3", "--dt", "1e-12"]) == 0
    assert trotter_report(capsys)["trotter_order"] == "exact"


@pytest.mark.parametrize(
    "t, dt",
    [
        ("1", "1e-309"),  # t / dt overflows to infinity
        ("10", "1e-300"),  # finite, far above the cap
        ("1e300", "1e-10"),  # overflows, with a time evolve cannot reach
    ],
)
def test_unresolvable_step_count_exits_one_without_output(capsys, t, dt):
    cfg = str(CONFIGS / "locc_harmonic.json")
    assert main(["locc-verify", "--config", cfg, "--t", t, "--dt", dt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Trotter steps than the cap" in captured.err


def test_underflowing_trotter_slice_is_named_as_the_cause(capsys):
    """--dt is positive, but the dt/2 slice 5e-324 / 2 is 0 in double."""
    cfg = str(CONFIGS / "locc_harmonic.json")
    assert main(["locc-verify", "--config", cfg, "--t", "5e-324", "--dt", "5e-324"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dt/2 slice" in captured.err and "underflows to 0" in captured.err


def test_locc_verify_infeasible_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path, model_config(3.0))
    assert main(["locc-verify", "--config", cfg]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_sweep_grid_row_count_and_order(tmp_path):
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [
                {"path": "noise.s_a", "min": 1.0, "max": 2.0, "points": 2},
                {"path": "coupling.strength", "min": 0.5, "max": 1.5, "points": 2},
            ],
            "outputs": ["margin"],
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["noise.s_a", "coupling.strength", "margin"]
    assert len(rows) == 5
    # row-major cartesian order, first axis slowest
    np.testing.assert_allclose([float(r[0]) for r in rows[1:]], [1.0, 1.0, 2.0, 2.0])
    np.testing.assert_allclose([float(r[1]) for r in rows[1:]], [0.5, 1.5, 0.5, 1.5])
    np.testing.assert_allclose(float(rows[1][2]), 2.0 * 1.0 - 0.25)


def test_sweep_log_axis_spacing_is_geometric(tmp_path):
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [
                {"path": "coupling.strength", "min": 0.1, "max": 10.0,
                 "points": 5, "scale": "log"},
            ],
            "outputs": ["margin"],
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "grid.csv"
    main(["sweep", "--config", cfg, "--out", str(out)])
    ks = [float(r[0]) for r in read_csv(out)[1:]]
    ratios = [b / a for a, b in zip(ks, ks[1:])]
    np.testing.assert_allclose(ratios, np.sqrt(10.0) * np.ones(4), rtol=1e-12)


def test_sweep_rerun_is_byte_identical(tmp_path):
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [{"path": "coupling.strength", "min": 0.5, "max": 2.5,
                      "points": 7, "scale": "log"}],
            "outputs": ["margin", "log_negativity", "feasibility"],
            "time": 0.02,
        },
    }
    cfg = write_config(tmp_path, payload)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", cfg, "--out", str(first)])
    main(["sweep", "--config", cfg, "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exits_one_before_any_output(tmp_path, capsys, jobs):
    cfg = str(CONFIGS / "sweep_onset.json")
    out = tmp_path / "onset.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--config", cfg, "--out", str(out), f"--jobs={jobs}"])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cores, expected", [(64, 7), (3, 3)])
def test_sweep_pool_has_no_more_workers_than_points_or_cores(
    tmp_path, monkeypatch, cores, expected
):
    """A stand-in pool records its size and runs the points in this process."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [{"path": "coupling.strength", "min": 0.5, "max": 2.5, "points": 7}],
            "outputs": ["margin"],
        },
    }
    cfg = write_config(tmp_path, payload)
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    assert sizes == []
    argv = ["sweep", "--config", cfg, "--out", str(pooled), "--jobs", "1000000"]
    assert main(argv) == 0
    assert sizes == [expected]
    assert pooled.read_bytes() == serial.read_bytes()


def test_sweep_with_two_worker_processes_matches_the_serial_run(tmp_path):
    cfg = str(CONFIGS / "sweep_onset.json")
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(["sweep", "--config", cfg, "--out", str(serial), "--jobs", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(pooled), "--jobs", "2"]) == 0
    assert pooled.read_bytes() == serial.read_bytes()


def test_sweep_resumes_from_the_row_checkpoint(tmp_path):
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [{"path": "coupling.strength", "min": 0.5, "max": 2.5,
                      "points": 9}],
            "outputs": ["margin", "feasibility"],
        },
    }
    cfg = write_config(tmp_path, payload)
    full = tmp_path / "full.csv"
    main(["sweep", "--config", cfg, "--out", str(full)])
    # truncate to header + 4 rows and plant a matching checkpoint
    lines = full.read_bytes().split(b"\r\n")
    part = tmp_path / "part.csv"
    part.write_bytes(b"\r\n".join(lines[:5]) + b"\r\n")
    import hashlib

    digest = hashlib.sha256(
        json.dumps(json.loads((tmp_path / "config.json").read_text()),
                   sort_keys=True).encode()
    ).hexdigest()
    (tmp_path / "part.csv.ckpt").write_text(
        json.dumps({"config_sha256": digest, "rows_done": 4})
    )
    assert main(["sweep", "--config", cfg, "--out", str(part)]) == 0
    assert part.read_bytes() == full.read_bytes()
    assert not (tmp_path / "part.csv.ckpt").exists()


def interrupted_sweep(tmp_path, rows_in_csv, tail=b""):
    """A finished sweep, and the same sweep cut after ``rows_in_csv`` rows.

    The cut CSV ends in ``tail``, the start of a row not yet complete, and
    its checkpoint says one row fewer, as a run interrupted between writing
    a row and updating a per-row count would leave it.
    """
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [{"path": "coupling.strength", "min": 0.5, "max": 2.5,
                      "points": 9}],
            "outputs": ["margin", "feasibility"],
        },
    }
    cfg = write_config(tmp_path, payload)
    full = tmp_path / "full.csv"
    main(["sweep", "--config", cfg, "--out", str(full)])
    lines = full.read_bytes().split(b"\r\n")
    part = tmp_path / "part.csv"
    part.write_bytes(b"\r\n".join(lines[: rows_in_csv + 1]) + b"\r\n" + tail)
    config = json.loads((tmp_path / "config.json").read_text())
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    (tmp_path / "part.csv.ckpt").write_text(
        json.dumps({"config_sha256": digest, "rows_done": rows_in_csv - 1})
    )
    return cfg, full, part


def test_sweep_resumes_after_the_rows_in_the_csv_not_the_checkpoint_count(tmp_path):
    cfg, full, part = interrupted_sweep(tmp_path, 5)
    assert main(["sweep", "--config", cfg, "--out", str(part)]) == 0
    assert part.read_bytes() == full.read_bytes()
    assert not (tmp_path / "part.csv.ckpt").exists()


def test_sweep_resume_cuts_a_trailing_partial_row(tmp_path):
    cfg, full, part = interrupted_sweep(tmp_path, 5, tail=b"1.75,0.4")
    assert main(["sweep", "--config", cfg, "--out", str(part)]) == 0
    assert part.read_bytes() == full.read_bytes()


def test_sweep_with_a_foreign_header_or_too_many_rows_starts_over(tmp_path):
    cfg, full, part = interrupted_sweep(tmp_path, 5)
    ckpt = (tmp_path / "part.csv.ckpt").read_text()
    part.write_bytes(b"other,header\r\n" + part.read_bytes().split(b"\r\n", 1)[1])
    assert main(["sweep", "--config", cfg, "--out", str(part)]) == 0
    assert part.read_bytes() == full.read_bytes()
    (tmp_path / "part.csv.ckpt").write_text(ckpt)
    part.write_bytes(full.read_bytes() + full.read_bytes().split(b"\r\n", 1)[1])
    assert main(["sweep", "--config", cfg, "--out", str(part)]) == 0
    assert part.read_bytes() == full.read_bytes()


def test_sweep_checkpoint_is_written_once_before_the_first_row(tmp_path, monkeypatch):
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [{"path": "coupling.strength", "min": 0.5, "max": 2.5,
                      "points": 4}],
            "outputs": ["margin"],
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "grid.csv"
    seen = []
    worker = cli._sweep_worker

    def watching_worker(item):
        seen.append(json.loads((tmp_path / "grid.csv.ckpt").read_text()))
        return worker(item)

    monkeypatch.setattr(cli, "_sweep_worker", watching_worker)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len(seen) == 4 and all(state == seen[0] for state in seen)
    assert set(seen[0]) == {"config_sha256"}
    assert not (tmp_path / "grid.csv.ckpt").exists()


def test_sweep_feasibility_flips_at_the_threshold(tmp_path):
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [{"path": "coupling.strength", "min": 1.6, "max": 2.4,
                      "points": 5}],
            "outputs": ["feasibility"],
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "grid.csv"
    main(["sweep", "--config", cfg, "--out", str(out)])
    flags = [float(r[1]) for r in read_csv(out)[1:]]
    assert flags == [1.0, 1.0, 1.0, 0.0, 0.0]


def test_sweep_stale_checkpoint_is_ignored(tmp_path):
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [{"path": "coupling.strength", "min": 0.5, "max": 2.5,
                      "points": 4}],
            "outputs": ["margin"],
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "grid.csv"
    main(["sweep", "--config", cfg, "--out", str(out)])
    reference = out.read_bytes()
    (tmp_path / "grid.csv.ckpt").write_text(
        json.dumps({"config_sha256": "not-this-config", "rows_done": 2})
    )
    main(["sweep", "--config", cfg, "--out", str(out)])
    assert out.read_bytes() == reference
    assert not (tmp_path / "grid.csv.ckpt").exists()


def test_sweep_rejects_inverted_axis(tmp_path, capsys):
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [{"path": "coupling.strength", "min": 2.0, "max": 1.0,
                      "points": 4}],
            "outputs": ["margin"],
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "g.csv")]) == 1
    assert "min must be below max" in capsys.readouterr().err


def test_sweep_rejects_unknown_parameter_path(tmp_path, capsys):
    payload = {
        "model": json.loads(json.dumps(FREE_MASS)),
        "sweep": {
            "axes": [{"path": "coupling.does_not_exist", "min": 1.0, "max": 2.0,
                      "points": 2}],
            "outputs": ["margin"],
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "g.csv")]) == 1
    assert "parameter path" in capsys.readouterr().err


def sweep_config(**sweep):
    axis = {"path": "coupling.strength", "min": 0.5, "max": 1.5, "points": 3}
    block = {"axes": [axis], "outputs": ["margin", "log_negativity"], "time": 0.1}
    return {"model": json.loads(json.dumps(FREE_MASS)), "sweep": {**block, **sweep}}


@pytest.mark.parametrize(
    "sweep, message",
    [
        ({"time": float("nan")}, "sweep/time: expected a finite number > 0, got NaN"),
        ({"time": float("inf")}, "sweep/time: expected a finite number > 0, got Infinity"),
        ({"time": 0}, "sweep/time: expected a finite number > 0, got 0"),
        ({"axes": []}, "sweep/axes: expected a non-empty array, got []"),
        ({"outputs": ["margin", "purity"]},
         'sweep/outputs/1: expected one of "margin", "nu_tilde_minus", '
         '"log_negativity", "feasibility", got "purity"'),
        ({"axes": [{"path": "", "min": 0.5, "max": 1.5, "points": 3}]},
         'sweep/axes/0/path: expected a non-empty string, got ""'),
        ({"axes": [{"path": "coupling.strength", "min": "0.5", "max": 1.5, "points": 3}]},
         'sweep/axes/0/min: expected a number, got "0.5"'),
        ({"axes": [{"path": "coupling.strength", "min": 0.5, "max": 1.5, "points": 1}]},
         "sweep/axes/0/points: expected an integer >= 2, got 1"),
        ({"axes": [{"path": "coupling.strength", "min": 0.5, "max": 1.5, "points": 3,
                    "scale": "cubic"}]},
         'sweep/axes/0/scale: expected one of "lin", "log", got "cubic"'),
        ({"axes": [{"path": "layout.n_a", "min": 1, "max": 2, "points": 3}]},
         "model/layout/n_a: expected an integer >= 1, got 1.5"),
    ],
)
def test_sweep_config_errors_name_their_path_before_any_output(
    tmp_path, capsys, sweep, message
):
    cfg = write_config(tmp_path, sweep_config(**sweep))
    out = tmp_path / "g.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}: at {message}\n"
    assert not out.exists()


def test_sweep_path_past_a_number_exits_one_before_any_output(tmp_path, capsys):
    axis = {"path": "coupling.strength.x", "min": 0.5, "max": 1.5, "points": 2}
    cfg = write_config(tmp_path, sweep_config(axes=[axis]))
    out = tmp_path / "g.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: no such parameter path: coupling.strength.x\n"
    assert not out.exists()


def ray_model_config(strength, s):
    """1+1 model with ``h = sigma_x`` on both sides, which keeps the x ray."""
    payload = model_config(strength, s_a=s, s_b=s)
    for side in ("hamiltonian_a", "hamiltonian_b"):
        payload["model"][side] = [[0.0, 1.0], [1.0, 0.0]]
    return payload


def test_lab_scale_bounds_agree_on_a_violated_model(tmp_path, capsys):
    """All three bounds share the margin -7.5e-17 and must all say violated."""
    payload = ray_model_config(1e-8, 5e-9)
    payload["stringent_horizon"] = 1.0
    payload["memory"] = {"c2": 0.0}
    cfg = write_config(tmp_path, payload)
    assert main(["threshold", "--config", cfg]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["rank1", "stringent_ns", "damped"]
    assert all(line.split()[1] == "violated" for line in lines)


def test_lab_scale_general_bound_agrees_with_synthesis(tmp_path, capsys):
    payload = model_config()
    payload["model"]["coupling"] = {"kind": "general", "matrix": [[2e-12, 0.0], [0.0, 0.0]]}
    payload["model"]["noise"] = {
        "kind": "matrix_white",
        "q_a": [[1e-12, 0.0], [0.0, 1e-12]],
        "q_b": [[1e-12, 0.0], [0.0, 1e-12]],
    }
    cfg = write_config(tmp_path, payload)
    assert main(["threshold", "--config", cfg]) == 2
    assert "general_matrix: violated" in capsys.readouterr().out
    assert main(["locc-verify", "--config", cfg]) == 3
    assert "exceeds one" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["s_a", "s_ab", "strength"])
def test_non_finite_model_input_exits_one(tmp_path, capsys, field, value):
    payload = model_config(1.0)
    section = "coupling" if field == "strength" else "noise"
    payload["model"][section][field] = value
    cfg = write_config(tmp_path, payload)
    for command in ("threshold", "locc-verify"):
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err


@pytest.mark.parametrize(
    "extra",
    [
        {"stringent_horizon": float("nan")},
        {"stringent_horizon": float("inf")},
        {"memory": {"c2": float("nan")}},
    ],
)
def test_non_finite_bound_parameter_exits_one(tmp_path, capsys, extra):
    payload = ray_model_config(1.0, 2.0)
    payload.update(extra)
    cfg = write_config(tmp_path, payload)
    assert main(["threshold", "--config", cfg]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_initial_covariance_exits_one_before_output(tmp_path, capsys, value):
    payload = model_config(1.0)
    payload["initial_covariance"] = np.diag([0.5, 0.5, value, 0.5]).tolist()
    cfg = write_config(tmp_path, payload)
    assert main(["evolve", "--config", cfg, "--t", "0.1", "--steps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "initial_covariance" in captured.err
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "matrix, reason",
    [
        ([[0.5, 0.0], [0.0, 0.5]], "covariance matrix must have shape (4, 4), got (2, 2)"),
        ([[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
         "covariance matrix must have shape (4, 4), got (2, 4)"),
    ],
)
def test_unusable_initial_covariance_exits_one_before_output(tmp_path, capsys, matrix, reason):
    cfg = write_config(tmp_path, {**model_config(1.0), "initial_covariance": matrix})
    assert main(["evolve", "--config", cfg, "--t", "0.1", "--steps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: initial_covariance: {reason}\n"


def test_initial_covariance_is_read_as_its_symmetric_part(tmp_path, capsys):
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 0.4, -0.4
    base = np.diag([0.8, 0.6, 0.5, 0.7])
    series = []
    for matrix in (base, base + skew):
        cfg = write_config(tmp_path, {**model_config(1.0), "initial_covariance": matrix.tolist()})
        assert main(["evolve", "--config", cfg, "--t", "0.1", "--steps", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        series.append(captured.out)
    assert series[0] == series[1]


@pytest.mark.parametrize("command", ["threshold", "locc-verify"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
def test_invalid_tolerance_exits_one_before_any_verdict(tmp_path, capsys, command, tol):
    payload = ray_model_config(1.0, 2.0)
    payload["stringent_horizon"] = 1.0
    payload["memory"] = {"c2": 0.0}
    cfg = write_config(tmp_path, payload)
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", cfg, f"--tol={tol}"])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


def wider_free_mass(n_a, n_b):
    """``FREE_MASS`` with ``n_a`` modes on side A and ``n_b`` on B, coupled on the first."""
    model = json.loads(json.dumps(FREE_MASS))
    model["layout"] = {"n_a": n_a, "n_b": n_b}
    for side, n in (("a", n_a), ("b", n_b)):
        model[f"hamiltonian_{side}"] = np.eye(2 * n).tolist()
        model["coupling"][f"vec_{side}"] = [1.0] + [0.0] * (2 * n - 1)
    return model


def test_oracle_cutoff_over_the_layout_cap_exits_one_naming_the_key(
    tmp_path, capsys, monkeypatch
):
    """The default cutoff 12 is over the cap of 1+2 (10) and 2+2 (5): the key
    is named, and the cap is checked before a generator is built."""
    def no_generator(*args, **kwargs):
        raise AssertionError("the oracle built a generator")

    monkeypatch.setattr(fock, "fock_generator_from_model", no_generator)
    for layout, cutoff in (((1, 2), None), ((1, 2), 40), ((2, 2), None), ((2, 2), 6)):
        payload = {"model": wider_free_mass(*layout)}
        if cutoff is not None:
            payload["oracle_cutoff"] = cutoff
        cfg = write_config(tmp_path, payload)
        assert main(["locc-verify", "--config", cfg, "--oracle"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: oracle_cutoff: cutoff must be from 2 to")


@pytest.mark.parametrize("layout", [(1, 2), (2, 2)])
def test_oracle_runs_the_kraus_step_on_more_modes_a_side(tmp_path, capsys, layout):
    cfg = write_config(tmp_path, {"model": wider_free_mass(*layout), "oracle_cutoff": 4})
    assert main(["locc-verify", "--config", cfg, "--oracle"]) == 0
    report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert report["oracle_cutoff"] == "4"
    assert float(report["oracle_channel_residual"]) < 1e-5
    assert float(report["oracle_trace_defect"]) < 1e-12


def test_oracle_cross_checks_the_mediator_config(capsys):
    """The 1 K mediator model (1+2) is above threshold, and its LOCC step
    tracks the dense semigroup."""
    cfg = str(Path(__file__).parents[1] / "configs" / "mediator.json")
    assert main(["threshold", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["locc-verify", "--config", cfg, "--t", "0.1", "--oracle"]) == 0
    report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert report["oracle_cutoff"] == "6"
    assert float(report["oracle_channel_residual"]) < 1e-5
    assert abs(float(report["trotter_order"]) - 1.0) < 0.05


@pytest.mark.parametrize("step",[["--t", "-0.1"], ["--dt", "0"]])
def test_locc_verify_rejects_a_bad_step_before_any_output(tmp_path, capsys, step):
    cfg = write_config(tmp_path, model_config(1.0))
    assert main(["locc-verify", "--config", cfg, *step]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be positive" in captured.err


@pytest.mark.parametrize("dt", ["1e10", "1e300"])
def test_oracle_step_over_the_work_cap_exits_one_before_any_work(
    capsys, monkeypatch, dt
):
    def no_work(*args, **kwargs):
        raise AssertionError("the oracle started integrating")

    monkeypatch.setattr(fock, "lindblad_rhs", no_work)
    cfg = str(Path(__file__).parents[1] / "configs" / "locc_harmonic.json")
    argv = ["locc-verify", "--config", cfg, "--t", "0.1", "--dt", dt, "--oracle"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Taylor products" in captured.err


def test_underflowing_squared_coupling_is_unresolved(tmp_path, capsys):
    """k = 1e-170 with no noise violates the bound, but k**2 is 0 in double."""
    cfg = write_config(tmp_path, model_config(1e-170, s_a=0.0, s_b=0.0))
    assert main(["threshold", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unresolved" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["locc-verify", "--t", "0.1", "--dt", "inf", "--oracle"],
        ["locc-verify", "--t", "0.1", "--dt", "nan", "--oracle"],
        ["locc-verify", "--t", "inf"],
        ["locc-verify", "--t", "nan", "--oracle"],
        ["evolve", "--t", "inf"],
        ["evolve", "--t", "nan"],
    ],
)
def test_non_finite_time_exits_one_without_output(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, model_config(1.0))
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--config", cfg])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch, request):
    built = []
    original = cli.build_parser

    def counting_build():
        built.append(None)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    request.addfinalizer(cli._parser.cache_clear)
    cfg = write_config(tmp_path, model_config(1.0))
    assert main(["threshold", "--config", cfg]) == 0
    assert main(["evolve", "--config", cfg, "--t", "0.1", "--steps", "2"]) == 0
    assert len(built) == 1


def test_main_runs_the_command_bound_at_call_time(tmp_path, capsys, monkeypatch):
    """A command rebound after the parser was built is the one that runs."""
    cfg = write_config(tmp_path, model_config(1.0))
    assert main(["threshold", "--config", cfg]) == 0
    seen = []
    original = cli.cmd_threshold

    def wrapped(args):
        seen.append(args.config)
        return original(args)

    monkeypatch.setattr(cli, "cmd_threshold", wrapped)
    assert main(["threshold", "--config", cfg]) == 0
    assert seen == [cfg]


def test_stringent_bound_at_a_long_horizon_prints_a_verdict(tmp_path, capsys):
    """Rates 1 and -0.5 over t = 400 give rho^2 = 8 exp(-400), though the
    shape on side A grows to exp(400)."""
    payload = ray_model_config(1.0, 0.9)
    payload["model"]["hamiltonian_b"] = [[0.0, -0.5], [-0.5, 0.0]]
    payload["stringent_horizon"] = 400.0
    cfg = write_config(tmp_path, payload)
    assert main(["threshold", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "rank1: violated margin=-0.18999999999999995",
        "stringent_ns: satisfied margin=0.81000000000000005",
    ]
    assert captured.err == ""


def test_zero_coupling_vector_exits_one(tmp_path, capsys):
    payload = model_config(1.0, s_a=0.9, s_b=0.9)
    payload["model"]["coupling"]["vec_b"] = [0.0, 0.0]
    cfg = write_config(tmp_path, payload)
    assert main(["threshold", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid model: coupling vec_b must be nonzero\n"


def test_evolve_overflow_exits_one_before_any_row(tmp_path, capsys):
    """sigma_x grows the covariance like exp(2t), past double range by t = 800."""
    cfg = write_config(tmp_path, ray_model_config(1.0, 2.0))
    out = tmp_path / "series.csv"
    argv = ["evolve", "--config", cfg, "--steps", "4"]
    assert main([*argv, "--t", "800", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the covariance overflows before --t = 800\n"
    assert not out.exists()
    assert main([*argv, "--t", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    # at t = 300 the rows are finite, but from t = 75 on their PT spectrum
    # is not resolved (nu~_min is within a band of 1e15 or more of 1/2)
    assert main([*argv, "--t", "300"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["0,0.50000000000000011,0,1"]
    assert captured.err.startswith("error: at t = 75: unresolved")


@pytest.mark.parametrize("t", ["1e300", "1.7e308"])
def test_evolve_overflow_at_an_extreme_time_is_one_error_line(t):
    """At 1.7e308 even ``drift t`` overflows; both refuse, with no traceback."""
    result = subprocess.run(
        [sys.executable, "-m", "gausep", "evolve", "--t", t,
         "--config", str(CONFIGS / "entangling.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: the covariance overflows before --t = {float(t):g}\n"


def last_evolve_row(capsys, argv):
    """Exit code and the last CSV row (``None`` on exit 1) of an ``evolve`` run."""
    code = main(["evolve", *argv])
    captured = capsys.readouterr()
    if code == 1:
        assert "unresolved" in captured.err
        return code, None
    assert code == 0 and captured.err == ""
    return code, captured.out.splitlines()[-1].split(",")


@pytest.mark.parametrize("t", [f"1e{p}" for p in range(2, 13)])
def test_entangling_config_at_long_horizons_is_right_or_unresolved(capsys, t):
    """nu~ tends to 1/3 (log-negativity log2(3/2) = 0.58496): with each mode's
    variances balanced before the spectrum, a row prints that or exits 1,
    never the log-negativity 0 of a band that swamps the gap."""
    argv = ["--config", str(CONFIGS / "entangling.json"), "--t", t, "--steps", "1"]
    code, row = last_evolve_row(capsys, argv)
    if code == 0:
        assert 0.58 <= float(row[2]) <= 0.585


@pytest.mark.parametrize("r", range(1, 21))
def test_two_mode_squeezed_vacuum_is_right_or_unresolved(tmp_path, capsys, r):
    """The log-negativity of a two-mode squeezed vacuum is ``2r / ln 2``; a row
    prints it within ``log2(C / (C - 1))`` (``nu~_min`` exceeds ``C`` bands,
    ``C = PPT_RESOLVED_BANDS``) or exits 1."""
    cosh, sinh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    squeezed = [
        [cosh, 0.0, sinh, 0.0],
        [0.0, cosh, 0.0, -sinh],
        [sinh, 0.0, cosh, 0.0],
        [0.0, -sinh, 0.0, cosh],
    ]
    cfg = write_config(tmp_path, {**model_config(1.0), "initial_covariance": squeezed})
    code, row = last_evolve_row(capsys, ["--config", cfg, "--t", "0", "--steps", "1"])
    if code == 0:
        c = PPT_RESOLVED_BANDS
        assert abs(float(row[2]) - 2 * r / math.log(2)) <= math.log2(c / (c - 1))
    if r <= 7:  # resolved up to r = 7 (nu~_min / band = 197 there)
        assert code == 0


def loaded_modules(argv, out):
    """Modules a fresh interpreter has loaded after importing ``gausep.cli``
    (and so ``gausep``) and, when ``argv`` is given, running it, with the
    command's stdout dropped; ``{configs}`` and ``{out}`` in ``argv`` are
    filled in."""
    argv = [a.format(configs=CONFIGS, out=out) for a in argv]
    code = (
        "import contextlib, io, json, sys, gausep.cli\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert gausep.cli.main(sys.argv[1:]) in (0, 2)\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )
    return set(json.loads(result.stdout))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["threshold", "--config", "{configs}/entangling.json"],
        ["evolve", "--t", "0.5", "--steps", "4", "--config", "{configs}/entangling.json"],
        ["sweep", "--config", "{configs}/sweep_onset.json", "--out", "{out}"],
        ["locc-verify", "--t", "0.1", "--config", "{configs}/locc_harmonic.json"],
    ],
    ids=["import", "threshold", "evolve", "sweep", "locc-verify"],
)
def test_cold_start_and_gaussian_commands_load_no_scipy(tmp_path, argv):
    modules = loaded_modules(argv, tmp_path / "out.csv")
    assert "gausep.cli" in modules
    assert not {m for m in modules if m.split(".")[0] in ("scipy", "jsonschema")}
    forbidden = {"gausep.fock", "gausep.gravity", "multiprocessing", "concurrent.futures.process"}
    assert not forbidden & modules


def test_gravity_front_end_loads_no_scipy():
    """The laboratory verdicts come from ``separability``, on numpy alone."""
    code = "import json, sys, gausep.gravity\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    modules = set(json.loads(result.stdout))
    assert "gausep.separability" in modules
    assert not {m for m in modules if m.split(".")[0] == "scipy"}


def test_oracle_loads_the_sparse_kernels_but_not_scipy_linalg():
    argv = ["locc-verify", "--t", "0.1", "--oracle", "--config", "{configs}/locc_harmonic.json"]
    modules = loaded_modules(argv, None)
    assert {"gausep.fock", "scipy.sparse"} <= modules
    assert not {m for m in modules if m == "scipy.linalg" or m.startswith("scipy.linalg.")}


@pytest.mark.parametrize("level", ["debug", None])
def test_debug_logging_adds_the_traceback_to_the_error_line(tmp_path, level):
    cfg = write_config(tmp_path, {"model": [1, 2]})
    env = {k: v for k, v in os.environ.items() if k != "GAUSEP_LOG"}
    if level is not None:
        env["GAUSEP_LOG"] = level
    result = subprocess.run(
        [sys.executable, "-m", "gausep", "threshold", "--config", cfg],
        capture_output=True, text=True, env=env,
    )
    line = f"error: {cfg}: at model: expected an object, got [1, 2]\n"
    assert result.returncode == 1
    assert result.stdout == ""
    if level is None:
        assert result.stderr == line
    else:
        assert result.stderr.startswith("DEBUG gausep: threshold failed\nTraceback")
        assert "FieldError" in result.stderr
        assert result.stderr.endswith(line)
