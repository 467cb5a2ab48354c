"""One untraced pass of each benchmark workload in ``bench/workloads.py``.

The benchmark calls gausep through names the rest of the suite may not use
(``SeparabilityCertificate.decomposition_residual``,
``fock.extract_covariance``, ...), so deleting or breaking one of them
fails here rather than only in a benchmark run.  The module is loaded from
its file and not edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache under bench/
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, n_items", [("Verify", 103), ("DenseEvolve", 4)])
def test_one_pass_of_each_workload_fails_no_item(monkeypatch, tmp_path, name, n_items):
    workloads = load_workloads(monkeypatch)
    result = getattr(workloads, name)(2201, tmp_path).run_pass()
    assert result.failures == {}
    assert result.n_items == n_items


def test_one_dense_evolve_pass_makes_a_fixed_number_of_oracle_calls(monkeypatch, tmp_path):
    """Two models at two cutoffs, five chunks each: every chunk takes ten
    right-hand sides and one log-negativity, for every seed."""
    from gausep import fock

    counts = {"lindblad_rhs": 0, "log_negativity_dense": 0}
    for name in counts:
        original = getattr(fock, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fock, name, spy)
    workloads = load_workloads(monkeypatch)
    result = workloads.DenseEvolve(2201, tmp_path).run_pass()
    assert result.failures == {}
    assert counts == {"lindblad_rhs": 200, "log_negativity_dense": 20}
