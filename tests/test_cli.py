"""Tests for the command-line front end."""

import csv
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gausep import cli, fock, gravity
from gausep.cli import main
from gausep.dynamics import evolve
from gausep.generators import build_generator, model_from_dict, model_to_dict
from gausep.separability import log_negativity, ppt_multimode
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
    return [wrong_type, unknown_kind, {"model": [1, 2]}, {"branch": "both"}]


@pytest.mark.parametrize("payload", invalid_configs())
def test_schema_errors_read_as_jsonschema_validate_reports_them(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload)
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(payload, cli._RUN_SCHEMA)
    where = "/".join(str(p) for p in info.value.absolute_path) or "<root>"
    assert main(["threshold", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: at {where}: {info.value.message}\n"


def test_metaschema_is_checked_once_per_schema(tmp_path, monkeypatch):
    schema_cls = jsonschema.validators.validator_for(cli._RUN_SCHEMA)
    check = schema_cls.check_schema
    checked = []

    def counting_check(schema, *args, **kwargs):
        checked.append(id(schema))
        return check(schema, *args, **kwargs)

    monkeypatch.setattr(schema_cls, "check_schema", counting_check)
    monkeypatch.setattr(cli, "_VALIDATORS", {})
    run_cfg = write_config(tmp_path, model_config(1.0), "run.json")
    sweep = {
        "axes": [{"path": "coupling.strength", "min": 0.5, "max": 1.5, "points": 2}],
        "outputs": ["margin"],
    }
    sweep_cfg = write_config(tmp_path, {**model_config(1.0), "sweep": sweep}, "sweep.json")
    for _ in range(3):
        cli.load_config(run_cfg, cli._RUN_SCHEMA)
        cli.load_config(sweep_cfg, cli._SWEEP_SCHEMA)
    assert sorted(checked) == sorted([id(cli._RUN_SCHEMA), id(cli._SWEEP_SCHEMA)])


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


def test_oracle_on_two_modes_per_side_exits_one_without_output(tmp_path, capsys):
    model = json.loads(json.dumps(FREE_MASS))
    model["layout"] = {"n_a": 2, "n_b": 2}
    model["hamiltonian_a"] = model["hamiltonian_b"] = np.eye(4).tolist()
    model["coupling"]["vec_a"] = model["coupling"]["vec_b"] = [1.0, 0.0, 0.0, 0.0]
    cfg = write_config(tmp_path, {"model": model})
    assert main(["locc-verify", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["locc-verify", "--config", cfg, "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "one mode per side" in captured.err


@pytest.mark.parametrize("step", [["--t", "-0.1"], ["--dt", "0"]])
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
