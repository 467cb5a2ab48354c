"""Byte-for-byte replay of the CLI on ``configs/`` against recorded outputs.

A refactor of the numerics must leave what the commands print unchanged.
``tests/golden/cli.json`` holds, for each command line, the exit code, the
stdout and, for ``sweep``, the bytes of the CSV file, together with the numpy
and scipy versions that produced them.  On other versions the replay is
skipped: another numpy or LAPACK build may move a last printed digit of the
in-package matrix exponential or the linear algebra around it, and another
scipy one of the dense oracle's sparse products.

Re-record after an intended change of output with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from gausep.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden") / "cli.json"

RUN_COMMANDS = (
    ["threshold"],
    ["evolve", "--t", "0.5", "--steps", "20"],
    ["locc-verify", "--t", "0.1", "--oracle"],
    ["locc-verify", "--t", "1e-3", "--dt", "1e-12"],
)
CASES = [
    [*command, "--config", f"configs/{name}.json"]
    for name in ("entangling", "locc_harmonic", "two_mass_free", "mediator")
    for command in RUN_COMMANDS
] + [["sweep", "--config", "configs/sweep_onset.json", "--out", "{out}"]]


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def replay(argv: list[str], work: Path) -> dict:
    """Exit code, stdout and CSV bytes (if ``--out`` is given) of one run."""
    out = work / "out.csv"
    resolved = [
        str(ROOT / a) if a.startswith("configs/") else a.format(out=out) for a in argv
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    record = {"argv": argv, "exit": code, "stdout": stdout.getvalue()}
    if "--out" in argv:
        record["csv"] = out.read_bytes().decode("ascii")
    return record


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv))
def test_cli_output_is_byte_identical_to_the_record(argv, tmp_path):
    golden = _golden()
    if golden["versions"] != versions():
        pytest.skip(f"recorded with {golden['versions']}, running {versions()}")
    expected = next(r for r in golden["runs"] if r["argv"] == argv)
    assert replay(argv, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        runs = [replay(argv, Path(work)) for argv in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"versions": versions(), "runs": runs}, indent=1) + "\n")
    sys.exit(0)
