#!/usr/bin/env python3
"""hetclust benchmark: one workload per run, or every workload with ``all``.

    python3 perfbench/run.py --workload mc_sparse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The run builds its inputs from ``--seed``, repeats whole rounds of the
workload for ``--seconds``, checks the outputs against computations made
apart from the program, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Each run uses one BLAS thread and min(2, nproc) Monte Carlo workers, so
# workers x BLAS threads never exceeds the CPUs the run may use.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_WORKERS = 2
# set-up is repeated this many times per run and reported as its median
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import hetclust; print(time.perf_counter() - t)"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                found[Path(path).name] = int(fn())
                break
    return found


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_seconds() -> list[float]:
    """Time `import hetclust` in fresh interpreters (numpy and scipy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def cpu_seconds() -> float:
    """CPU time of this process and its finished children (workers included)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import scipy

    import checks
    import hetclust
    import workloads as wl

    workload = wl.WORKLOADS[name]
    workers = max(1, min(MAX_WORKERS, nproc() // BLAS_THREADS))
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)

    build_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        models = [wl.build_model(spec) for spec in workload.specs(seed)]
        build_times.append(time.perf_counter() - t0)
    ctx = wl.Context(seed=seed, workers=workers, outdir=outdir, models=models)

    log = checks.CheckLog()
    rounds, round_times, round_cpu, layer_rounds = [], [], [], []

    def one_round() -> None:
        t0, c0 = time.perf_counter(), cpu_seconds()
        rounds.append(workload.round(ctx))
        round_times.append(time.perf_counter() - t0)
        round_cpu.append(cpu_seconds() - c0)

    start = time.perf_counter()
    if not trace:
        while not round_times or time.perf_counter() - start < seconds:
            one_round()
        peak = peak_rss_mb()
    else:
        # one round gives the operations that are counted and checked
        one_round()
        decomp_model = wl.decomposition_model(workload, ctx)
        while not layer_rounds or time.perf_counter() - start < seconds:
            layer_rounds.append(wl.probe_round(workload, ctx, decomp_model))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    log.record(f"{name}.rounds_byte_identical", all(r.emitted == rounds[0].emitted for r in rounds),
               f"{len(rounds)} rounds")
    # failed calls are counted in `failed`; the checks cover the calls that returned
    workload.check(ctx, rounds[-1], log)
    import_times = import_seconds()

    if trace:
        metrics = {
            key: metric(statistics.median(r[key] for r in layer_rounds),
                        "count" if key == "sampling.edges" else "bytes" if key.endswith("_bytes") else "s")
            for key in sorted(layer_rounds[0])
        }
    else:
        metrics = {
            "wall_s": metric(statistics.median(round_times), "s"),
            "ops_per_s": metric((attempted - failed) / sum(round_times), "1/s"),
            "setup_s": metric(statistics.median(import_times) + statistics.median(build_times), "s"),
            "peak_rss_mb": metric(peak, "MB"),
        }
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "workers": workers, "blas_threads": blas_threads(), "blas_threads_pinned": BLAS_THREADS,
        "nproc": nproc(), "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "hetclust": hetclust.__version__,
        "rounds": len(round_times), "round_s": round_times, "round_cpu_s": round_cpu, "probe_rounds": len(layer_rounds),
        "import_s": import_times, "build_s": build_times,
    }
    for line in log.lines:
        print(line)
    print(json.dumps({"run_info": info}))
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    return {"correct": log.ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in turn, each in its own interpreter so that its peak
    memory is its own; metric names gain the workload as prefix."""
    import workloads as wl

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc_sparse", "mc_dense", "theory_rank1", "decompose_cubic", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hetclust" / "__init__.py").is_file():
        print(f"error: no hetclust sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
