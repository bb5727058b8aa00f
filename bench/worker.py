"""Child process of the benchmark: one workload in a fresh interpreter.

    python3 bench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
    python3 bench/worker.py capture --workdir DIR     # rewrite reference.json
    python3 bench/worker.py self-test --workdir DIR   # every check rejects a corrupted output

``bench/run.py`` starts it with ``PYTHONPATH=src`` and one BLAS thread.
``measure`` prints one JSON object to stdout, which ``run.py`` reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from calibrate import calibration_seconds, to_reference
from selftest import run_self_test
from tracer import LAYERS, ROOT, Tracer, wrapped_bindings
from workloads import (
    KERNEL_CALLS,
    REFERENCE_PATH,
    REFERENCE_SEEDS,
    WORKLOADS,
    Kernels,
    RodTrace,
    Train,
    Verify,
)

# A traced pass may not account for more or less than this share of its
# wall time in span self times.
SELF_SUM_TOLERANCE = 0.03


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_passes(wl, budget_s: float, tracer: Tracer | None = None) -> list[dict]:
    """Whole passes until the next one would end after ``budget_s``; at least one.

    The calibration runs before the first pass and after every pass; each
    pass records the mean of the two calibrations around it.
    """
    passes = []
    start = time.perf_counter()
    cal_before = calibration_seconds()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            prog_s, attempted, failures = wl.run_pass()
        else:
            tracer.normalized_bases.clear()
            before = tracer.calls["split.normalize"]
            with tracer.span(ROOT):
                prog_s, attempted, failures = wl.run_pass()
            graphs = len(tracer.normalized_bases)
            calls = tracer.calls["split.normalize"] - before
        wall = time.perf_counter() - t0
        cal_after = calibration_seconds()
        entry = {"prog_s": prog_s, "wall_s": wall, "cal_s": (cal_before + cal_after) / 2,
                 "attempted": attempted, "failures": failures}
        cal_before = cal_after
        if tracer is not None:
            entry["normalize_per_graph"] = calls / graphs if graphs else 0.0
        passes.append(entry)
        elapsed = time.perf_counter() - start
        if elapsed + max(p["wall_s"] + cal_after for p in passes) > budget_s:
            return passes


def items_per_s(wl, passes: list[dict], raw: bool = False) -> float:
    """Median over passes of items per second inside mrsplit, in reference
    seconds unless ``raw``."""
    return statistics.median(
        wl.items_per_pass / (p["prog_s"] if raw else to_reference(p["prog_s"], p["cal_s"]))
        for p in passes
    )


def layer_metrics(wl, tracer: Tracer, passes: list[dict], untraced_ips: float) -> dict:
    k = len(passes)
    out = {}
    for mod, fns in LAYERS.items():
        mod_self = 0.0
        for fn in fns:
            name = f"{mod}.{fn}"
            out[f"{name}.self_s"] = (tracer.self_s[name] / k, "s")
            out[f"{name}.calls"] = (tracer.calls[name] / k, "count")
            mod_self += tracer.self_s[name] / k
        out[f"{mod}.self_s"] = (mod_self, "s")
    costs = wl.costs() if isinstance(wl, Kernels) else {}
    for kernel, _ in KERNEL_CALLS:
        flop, nbytes = costs.get(kernel, (0.0, 0.0))
        out[f"convolution.{kernel}.flop_per_call"] = (flop, "flop")
        out[f"convolution.{kernel}.bytes_per_call"] = (nbytes, "B")
    forward = tracer.calls["trainer.forward"] / k
    out["trainer.forward.calls_per_epoch"] = (
        forward / wl.model_epochs_per_pass if wl.model_epochs_per_pass else 0.0, "count")
    out["split.normalize.calls_per_graph"] = (
        statistics.fmean(p["normalize_per_graph"] for p in passes), "count")
    out["trace.overhead_ratio"] = (untraced_ips / items_per_s(wl, passes), "ratio")
    return out


def measure(args) -> int:
    workdir = Path(args.workdir)
    if wrapped_bindings():
        print("tracing wrappers present before the untraced run", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload](args.seed, workdir)
    result = {"workload": wl.name, "props": wl.props, "env": environment(),
              "integrity": []}
    start = time.perf_counter()
    untraced = run_passes(wl, args.seconds / 2 if args.trace else args.seconds)
    passes = list(untraced)
    result["items_per_s"] = items_per_s(wl, untraced)
    result["raw_items_per_s"] = items_per_s(wl, untraced, raw=True)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = run_passes(wl, args.seconds - (time.perf_counter() - start), tracer)
        problems = tracer.restore()
        if problems:
            result["integrity"].append(f"bindings still wrapped: {problems}")
        wall = sum(p["wall_s"] for p in traced)
        share = sum(tracer.self_s.values()) / wall
        result["self_sum_share"] = share
        if abs(share - 1.0) > SELF_SUM_TOLERANCE:
            result["integrity"].append(f"span self times cover {share:.4f} of traced wall time")
        result["traced_items_per_s"] = items_per_s(wl, traced)
        result["layers"] = layer_metrics(wl, tracer, traced, result["items_per_s"])
        result["edges"] = sorted(
            ([p or "-", c, n] for (p, c), n in tracer.edges.items()),
            key=lambda e: -tracer.total_s[e[1]],
        )
        passes += traced
    else:
        result["setup_extra_s"] = wl.setup_extra_s
        result["raw_setup_extra_s"] = wl.raw_setup_extra_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["passes"] = [{k: v for k, v in p.items() if k != "failures"} for p in passes]
    result["attempted"] = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    result["failed"] = len(failures)
    result["failures"] = failures[:20]
    print(json.dumps(result))
    return 0


def capture(args) -> int:
    """Record the reference digests of the current program for every
    program seed. Run only on a commit whose outputs are known good."""
    workdir = Path(args.workdir)
    refs: dict = {}
    for cls in (RodTrace, Train, Kernels):
        refs[cls.name] = {}
        for s in range(REFERENCE_SEEDS):
            wl = cls(s, workdir)
            wl.reference = None
            _, _, failures = wl.run_pass()
            unexpected = [f for f in failures if "no reference" not in f]
            if unexpected:
                print(f"{cls.name} seed {s}: {unexpected[0]}", file=sys.stderr)
                return 1
            refs[cls.name][str(s)] = wl.last_digest
            print(f"captured {cls.name} seed {s}", file=sys.stderr)
    for s in range(REFERENCE_SEEDS):
        _, _, failures = Verify(s, workdir).run_pass()
        if failures:
            print(f"verify seed {s}: {failures[0]}", file=sys.stderr)
            return 1
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("measure", "capture", "self-test"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    if args.mode == "capture":
        return capture(args)
    if args.mode == "self-test":
        return run_self_test(Path(args.workdir))
    if args.workload is None:
        ap.error("measure needs --workload")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
