"""Benchmark of the mrsplit package: five seeded workloads, timed from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test            # each output check rejects a corrupted output
    python3 bench/run.py --capture-references   # rewrite bench/reference.json

Run it from the repository root; it imports ``mrsplit`` from ``src/``.
Every workload runs in a fresh child interpreter with one BLAS thread. With
``--trace 0`` it reports the end-to-end metrics (``items_per_s``,
``setup_s``, ``peak_rss_mb``), with times in reference seconds (see
``calibrate.py``); with ``--trace 1`` it reports the per-layer metrics of a
traced run. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Failures count
operations (one CLI invocation or one kernel call) that exited nonzero,
raised, or produced output that failed its check; ``failed / attempted``
is the fail ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import to_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("split-large", "rod-trace", "train", "verify", "kernels")
IMPORT_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
DEADLINE_S = 170.0

_PROBE = """\
import json, sys, time
t = time.perf_counter()
import mrsplit
s = time.perf_counter() - t
sys.path.insert(0, {bench!r})
from calibrate import calibration_seconds
print(json.dumps({{"s": s, "cal": calibration_seconds(), "file": mrsplit.__file__}}))
""".format(bench=str(BENCH))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_seconds(env: dict) -> tuple[float, float]:
    """Median time for a fresh interpreter to import mrsplit from src/, in
    reference seconds and as measured.

    One untimed import first, so byte-code compilation is not measured.
    Each probe runs the calibration after its import."""
    ref, raw = [], []
    for k in range(IMPORT_PROBES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        probe = json.loads(out.stdout)
        if not Path(probe["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"mrsplit imported from {probe['file']}, not {SRC}")
        if k:
            ref.append(to_reference(probe["s"], probe["cal"]))
            raw.append(probe["s"])
    return statistics.median(ref), statistics.median(raw)


def source_record() -> dict:
    """Git revision (read from .git when present) and a digest of src/."""
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def run_worker(mode, extra, env, workdir, timeout=None, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, "--workdir", workdir, *extra],
        env=env, cwd=ROOT, stdout=stdout, text=True, timeout=timeout,
    )


def report(args, res: dict, metrics: dict) -> None:
    print(f"workload {res['workload']}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print("input " + json.dumps(res["props"], sort_keys=True))
    for p in res["passes"]:
        print(f"pass prog_s={p['prog_s']:.4f} wall_s={p['wall_s']:.4f} "
              f"calibration_s={p['cal_s']:.4f} ops={p['attempted']}")
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} ({res['failed']}/{res['attempted']} operations)")
    for msg in res["failures"] + res["integrity"]:
        print(f"FAILED {msg}")
    if args.trace:
        print(f"traced run: items_per_s untraced {res['items_per_s']:.6g}, "
              f"traced {res['traced_items_per_s']:.6g}; span self times cover "
              f"{res['self_sum_share']:.4f} of traced wall time")
        for parent, child, calls in res["edges"]:
            print(f"span {parent} -> {child}: {calls} calls")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def measure(args) -> int:
    env = child_env()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        import_s, raw_import_s = (None, None) if args.trace else import_seconds(env)
        extra = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = run_worker("measure", extra, env, workdir,
                          DEADLINE_S - (time.perf_counter() - started))
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().split("\n")[-1])
    res["env"].update(source_record())
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "items_per_s": {"value": res["items_per_s"], "unit": "1/s"},
            "setup_s": {"value": import_s + res["setup_extra_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    report(args, res, metrics)
    if not args.trace:
        print(f"as measured, not in reference seconds: items_per_s {res['raw_items_per_s']:.6g} 1/s, "
              f"setup_s {raw_import_s + res['raw_setup_extra_s']:.6g} s")
    correct = res["failed"] == 0 and not res["integrity"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--capture-references", action="store_true")
    args = ap.parse_args()
    if not (SRC / "mrsplit" / "__init__.py").is_file():
        print(f"error: no mrsplit package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test or args.capture_references:
        mode = "self-test" if args.self_test else "capture"
        with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
            return run_worker(mode, [], child_env(), workdir, stdout=None).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
