"""The functions the benchmark traces must exist.

``bench/run.py --trace 1`` reports a ``<module>.<fn>.calls`` metric for each
public, module-level function of ``gausep.<module>`` and raises ``KeyError``
when a metric that ``BENCHMARK.json`` lists is missing, so deleting or
renaming a listed function breaks the traced benchmark.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_every_traced_call_count_names_a_public_function():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    missing = []
    for name in names:
        parts = name.split(".")
        if len(parts) != 3 or parts[2] != "calls":
            continue
        module_name, fn_name, _ = parts
        module = importlib.import_module(f"gausep.{module_name}")
        fn = vars(module).get(fn_name)
        if (
            fn_name.startswith("_")
            or not inspect.isfunction(fn)
            or fn.__module__ != module.__name__
        ):
            missing.append(name)
    assert not missing
