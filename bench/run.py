"""gausep benchmark entry point.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 45 --trace 0

It pins OpenBLAS to one thread, builds the workload's inputs from ``--seed``,
measures ``setup_s`` in fresh interpreters, runs one untimed warm-up pass,
then repeats timed passes over the same items until ``--seconds`` have
passed (the first pass always runs to the end, later ones stop at the
deadline).  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it splits the time between untraced and
traced passes and reports the per-layer metrics, including the tracing
overhead.  Every metric is printed as
``name value unit``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results (per
item failures, provenance, all layer statistics) and, when tracing, every
span go to ``.bench_out/<workload>-seed<seed>-trace<trace>/``.

``attempted`` counts the items of one pass and ``failed`` those that raised
or failed an output check in any pass; ``correct`` is false when an item's
outputs differ between passes.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- provenance ----------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` in the checkout, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    out = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# -- measurement -----------------------------------------------------------------


def measure_setup(workload, workdir: Path) -> list[float]:
    listing = workdir / "setup_configs.json"
    listing.write_text(json.dumps(workload.config_files()))
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src"), str(listing)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return samples


def timed_passes(workload, seconds: float, count: int | None = None, on_item=None,
                 whole: bool = False):
    """Run passes for ``seconds``: the first runs every item, the later ones
    stop at the first item due to start after the deadline, unless
    ``whole``, so a run measures ``seconds`` whatever a pass costs.  With
    ``count``, run exactly that many whole passes instead."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()  # every pass starts from a collected heap
        if count is not None:
            passes.append(workload.run_pass(on_item=on_item))
            if len(passes) == count:
                return passes
        else:
            cut = None if whole or not passes else deadline
            passes.append(workload.run_pass(deadline=cut))
            if time.perf_counter() >= deadline:
                return passes


def item_latencies(passes) -> dict[str, float]:
    """Each item's median latency over the timed passes that ran it, so one
    pass slowed by the machine moves no item."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for item_id, latency in p.latencies.items():
            samples.setdefault(item_id, []).append(latency)
    return {item_id: statistics.median(values) for item_id, values in samples.items()}


def end_to_end(passes, setup_samples) -> dict[str, float]:
    latencies = list(item_latencies(passes).values())
    p50, p90 = (
        statistics.quantiles(latencies, n=10, method="inclusive")[i] for i in (4, 8)
    )
    return {
        "setup_s": statistics.median(setup_samples),
        # items over the time they take, each at its median latency, so a last
        # pass cut short at the deadline adds samples without favouring the
        # items that come first in a pass
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": 1e3 * p50,
        "item_p90_ms": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(stats, tracer, traced, untraced) -> dict[str, float]:
    """Layer statistics per traced pass, plus work counts and overhead."""
    n = len(traced)
    out = {}
    module_self: dict[str, float] = {}
    for name, stat in stats.items():
        for key, value in stat.items():
            out[f"{name}.{key}"] = value / n
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + stat["self_s"] / n
    for module, value in module_self.items():
        out[f"{module}.self_s"] = value
    for name, values in tracer.probe_values.items():
        out[f"{name}.order_mean"] = statistics.fmean(values)
    out.setdefault("fock.kraus_average_step.order_mean", 0.0)
    untraced_s = statistics.fmean(p.wall_s for p in untraced)
    traced_s = statistics.fmean(p.wall_s for p in traced)
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    out["trace.spans"] = len(tracer) / n
    out["work.items"] = traced[0].n_items
    out["oracle_max_dev"] = max(p.extra.get("oracle_max_dev", 0.0) for p in traced)
    return out


# -- reporting ---------------------------------------------------------------------


def failure_listing(passes) -> dict[str, dict]:
    listing: dict[str, dict] = {}
    for p in passes:
        for item_id, reasons in p.failures.items():
            listing.setdefault(item_id, {"passes": 0, "reasons": reasons})["passes"] += 1
    return listing


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gausep" / "__init__.py").is_file():
        print(f"error: no gausep sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one BLAS thread, inherited by the set-up probes: OpenBLAS's idle
    # workers spin, so a second thread would keep both of a small machine's
    # cores busy, while the benchmark is meant to run on one
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import gausep

    if not Path(gausep.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: gausep was imported from {gausep.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "inputs").mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "inputs")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {"provenance": provenance(args.workload, args.seed)}
    workload.run_pass(warmup=True)
    if args.trace:
        # whole passes, so traced and untraced passes do the same work
        untraced = timed_passes(workload, args.seconds / 2, whole=True)
        tracer = tracing.Tracer(
            probes={"fock.kraus_average_step": lambda ret: ret[1][0]}
        )

        def on_item(index):
            tracer.item = index

        tracer.install(gausep)
        try:
            traced = timed_passes(workload, 0.0, len(untraced), on_item)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        result["layers"] = tracer.summary()
        values = per_layer(result["layers"], tracer, traced, untraced)
        tracer.write(workdir / "spans.tsv.gz")
        result["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    else:
        setup_samples = measure_setup(workload, workdir)
        passes = timed_passes(workload, args.seconds)
        values = end_to_end(passes, setup_samples)
        result["setup_samples_s"] = setup_samples
        result["passes"] = {"untraced": len(passes)}
        result["pass_wall_s"] = [p.wall_s for p in passes]
        result["item_latency_ms"] = {
            item_id: 1e3 * value for item_id, value in item_latencies(passes).items()
        }
        result["passes"]["latency_samples"] = len(result["item_latency_ms"])

    # every pass repeats the first pass's items, so an item counts once
    # however many passes ran it, and fails if it failed in any of them
    attempted = passes[0].n_items
    failures = failure_listing(passes)
    failed = len(failures)
    correct = not any(
        workloads.DIFFERS in reason
        for entry in failures.values()
        for reason in entry["reasons"]
    )
    values["failed_frac"] = failed / attempted
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise KeyError(f"benchmark produced no metric {metric['name']!r}")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}

    result.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        failures=failures,
        metrics=metrics,
        all_values=values,
    )
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    for item_id, entry in failures.items():
        print(f"failed {item_id} in {entry['passes']} pass(es): {'; '.join(entry['reasons'])}")
    print(f"passes {json.dumps(result['passes'])}")
    print(f"failed_frac {failed / attempted} ({failed} of {attempted} distinct items)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
