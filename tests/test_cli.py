"""Tests for the command-line front end."""

import csv
import json

import numpy as np
import pytest

from gausep.cli import main

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


def test_locc_verify_reports_small_residual(tmp_path, capsys):
    cfg = write_config(tmp_path, model_config(1.0))
    assert main(["locc-verify", "--config", cfg, "--t", "0.05", "--dt", "1e-3"]) == 0
    out = capsys.readouterr().out
    residual = float(out.split("generator_residual: ")[1].splitlines()[0])
    assert residual < 1e-12
    assert "trotter_order" in out


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
