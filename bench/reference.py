"""Reference figures: run the benchmark once per seed and summarise.

    python3 bench/reference.py --seeds 1..10 [--trace 0|1]

It runs every workload of BENCHMARK.json at its run_seconds.  For every
workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Runs go one after another, never in
parallel; the raw results are kept in bench/out/reference-*.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def environment():
    code = "import numpy; c = numpy.show_config(mode='dicts'); print(numpy.__version__, c['Build Dependencies']['blas'].get('version'))"
    numpy_version, blas = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                         check=True).stdout.split()
    return dict(nproc=os.cpu_count(), python=platform.python_version(), numpy=numpy_version,
                openblas=blas, blas_threads="pinned to 1 (OPENBLAS_NUM_THREADS=1)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1..10", help="A..B")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    lo, hi = (int(x) for x in args.seeds.split(".."))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment()
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(lo, hi + 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        failures = " ".join(f"{r['failed']}/{r['attempted']}" for r in runs)
        print(f"\n{workload}: seeds {lo}..{hi}, {seconds} s runs, failed/attempted {failures}")
        print("| metric | median | q1 | q3 | spread | bound |\n| --- | --- | --- | --- | --- | --- |")
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            summary[name] = dict(values=values, median=median, q1=q1, q3=q3, spread=spread)
            print(f"| {name} | {median:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bounds[name]} |")
        out = os.path.join(HERE, "out", f"reference-{workload}-seeds{lo}-{hi}-trace{args.trace}.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(dict(environment=env, runs=runs, summary=summary), handle, indent=1)


if __name__ == "__main__":
    main()
