#!/usr/bin/env python3
"""Run two independent sets of benchmark runs of the same code and report,
per workload and end-to-end metric, whether they agree within the bounds
in BENCHMARK.json.

    python3 perfbench/compare.py --runs 10

Set A uses seeds first..first+runs-1 and set B the next `runs` seeds; each
set runs every workload in BENCHMARK.json in turn.  A metric agrees when
the quartile spread of each set, as a share of its median, is within the
bound, and the two medians differ, either way, by at most the bound as a
share of set A's median.  The failed share of operations must be the same
in both sets.  Raw results go to perfbench/out/compare.json.  Exits 1 if
anything disagrees or a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - t0
    result.update(json.loads(next(x for x in lines if x.startswith('{"run_info"'))))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set (>= 2)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results: dict[str, dict[str, list[dict]]] = {name: {"A": [], "B": []} for name in names}
    for k, label in enumerate(("A", "B")):
        for name in names:
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                res = run_once(bench, name, seed, seconds)
                results[name][label].append(res)
                print(f"set {label} {name} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} run {res['run_s']:.1f}s "
                      + " ".join(f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()),
                      flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "compare.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"\n{'workload':16} {'metric':12} {'bound':>6} {'med A':>11} {'med B':>11} "
          f"{'spr A':>7} {'spr B':>7} {'pooled':>7} {'diff':>7}  verdict")
    for name in names:
        sets = results[name]
        runs = sets["A"] + sets["B"]
        ok &= all(r["correct"] for r in runs)
        shares = {label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for label, rs in sets.items()}
        if shares["A"] != shares["B"]:
            ok = False
            print(f"{name}: failed share differs, A {shares['A']} B {shares['B']}")
        for m in bench["end_to_end"]:
            key, bound = m["name"], m["bound"]
            a = [r["metrics"][key]["value"] for r in sets["A"]]
            b = [r["metrics"][key]["value"] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = (med_b - med_a) / med_a
            sa, sb, sp = spread(a), spread(b), spread(a + b)
            agree = abs(diff) <= bound and sa <= bound and sb <= bound
            ok &= agree
            note = "agree" if agree else "DISAGREE"
            if key != "setup_s" and sp > bound / 3:
                note += " (pooled spread above a third of the bound)"
            print(f"{name:16} {key:12} {bound:6.2f} {med_a:11.5g} {med_b:11.5g} "
                  f"{sa:7.3f} {sb:7.3f} {sp:7.3f} {diff:+7.3f}  {note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
