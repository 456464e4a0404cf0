"""Benchmark of the hahn_lsq CLI: three workloads run in-process through
`hahn_lsq.cli.main`, every output checked against bench/oracle.py.

    python3 bench/run.py --workload sweep|fit-large|tables --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
The last line of stdout is one JSON object: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  The lines before it say what was run.  Set-up and end-to-end
figures come from untraced work only; a traced run alternates untraced
and traced rounds, and their difference is the tracing overhead.
"""

import argparse
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import threading
from time import perf_counter, time

# One BLAS thread everywhere, set before numpy is imported here or in a
# child: on a small shared machine threads add noise, not speed.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import check  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0
MIN_ROUNDS = 3
# The tail is taken per block of at least 40 ops.  Larger blocks put the
# tail of tables among its two basis ops per round, whose latency swings
# with the host by twice as much as the rest (spread 0.31 over ten runs).
BLOCK_OPS = 40
# Set-up launches per run, spread evenly over its rounds: the host's
# speed drifts over tens of seconds, and 30 launches made one after
# another at the start still spread 0.12-0.15 over ten runs.
SETUP_LAUNCHES = 30
# A fresh interpreter until hahn_lsq.cli is imported: what every CLI call pays.
SETUP_CODE = """\
import sys, time
wall = time.time()
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import hahn_lsq.cli
t2 = time.perf_counter()
print(wall, t1 - t0, t2 - t1, hahn_lsq.cli.__file__, flush=True)
"""


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def launch_setup(env):
    """One fresh launch: (set-up s, interpreter ms, numpy ms, hahn_lsq ms)."""
    src = os.path.join(ROOT, "src")
    wall, start = time(), perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    timer = threading.Timer(60.0, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready = perf_counter()
    proc.communicate()
    timer.cancel()
    if proc.returncode != 0 or not line:
        fail(f"set-up launch exited with code {proc.returncode}")
    child_wall, numpy_s, package_s, path = line.split(" ", 3)
    if not path.strip().startswith(src + os.sep):
        fail(f"set-up launch imported hahn_lsq from {path.strip()}, not from {src}")
    return (ready - start, (float(child_wall) - wall) * 1e3,
            float(numpy_s) * 1e3, float(package_s) * 1e3)


def tail(rounds):
    """(value, percentile, samples per block, blocks).  The rounds are cut
    into blocks of consecutive rounds with at least BLOCK_OPS ops (all
    rounds if there are fewer); in each block the tail is the highest
    percentile with at least ten ops beyond it, and the value is the
    median over the blocks.  One tail over the whole run would sit
    further out with every round and measure the host's worst stalls;
    per block it stays at a fixed percentile."""
    size = -(-BLOCK_OPS // len(rounds[0]["latencies"]))
    blocks = [sorted(x for r in rounds[i:i + size] for x in r["latencies"])
              for i in range(0, len(rounds) - size + 1, size)]
    blocks = blocks or [sorted(x for r in rounds for x in r["latencies"])]
    count = len(blocks[0])
    return (statistics.median(b[count - 11] for b in blocks), 100.0 * (count - 10) / count,
            count, len(blocks))


def check_round(result, ops, expect):
    """Check a round's outputs here, in the launcher, and keep only the verdict."""
    outputs = result.pop("outputs")
    failed, problems, dev = 0, [], 0.0
    for op_id, code, text, err in outputs:
        found, op_dev = check.check(ops[op_id], code, text, expect[op_id])
        dev = max(dev, op_dev)
        if found:
            failed += 1
            problems.append((" ".join(ops[op_id].argv), found[:3], err.strip()[-300:]))
    result.update(failed=failed, problems=problems[:5], dev=dev,
                  out_bytes=sum(len(text) for _, _, text, _ in outputs))


def run_rounds(args, worker, env):
    """Send rounds to the worker until the next one would end past --seconds.
    After each round, launch fresh interpreters until their number keeps
    pace with the share of --seconds used; their time is not counted in
    it.  Returns the rounds, the repeat share and the set-up medians."""
    order_rng = random.Random(args.seed)
    fresh = args.workload in workloads.FRESH_EACH_ROUND
    rounds, ops, expect, launches = [], None, None, []
    start, launch_s = perf_counter(), 0.0
    while True:
        index = len(rounds)
        send_ops = fresh or index == 0
        if send_ops:
            ops = workloads.ops(args.workload, index)
            cache = {}
            expect = {op.id: check.expect(op, cache) for op in ops}
        order = [op.id for op in ops]
        if index:
            # the first round keeps the listed order: peak RSS is read after it
            order_rng.shuffle(order)
        traced = bool(args.trace) and index % 2 == 1
        pickle.dump(dict(ops=ops if send_ops else None, order=order, traced=traced), worker.stdin)
        worker.stdin.flush()
        result = pickle.load(worker.stdout)
        check_round(result, ops, expect)
        result.update(traced=traced, ops=len(order))
        rounds.append(result)
        elapsed = perf_counter() - start - launch_s
        done = len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds
        share = 1.0 if done else min(1.0, elapsed / args.seconds)
        launched = perf_counter()
        while len(launches) < SETUP_LAUNCHES * share:
            launches.append(launch_setup(env))
        launch_s += perf_counter() - launched
        if done:
            setup = [statistics.median(column) for column in zip(*launches)]
            return rounds, workloads.repeat_share(ops), setup


def end_to_end(rounds, setup):
    timed = [r for r in rounds if not r["traced"]]
    latencies = [x for r in timed for x in r["latencies"]]
    value, level, count, blocks = tail(timed)
    print(f"op_tail_ms is the p{level:.2f} of {count} op latencies, median over {blocks} blocks")
    return {
        "wall_s": statistics.median(sum(r["latencies"]) for r in timed),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": rounds[0]["peak_rss_mb"],
        "setup_s": setup[0],
        # every run completes MIN_ROUNDS rounds, and they are the same ops in every run
        "max_rel_err": max(r["dev"] for r in rounds[:MIN_ROUNDS]),
    }


def per_layer(rounds, final, setup):
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    per_round = 1.0 / len(traced)
    layers = final["layers"]
    inclusive, own, calls, counts = (layers[k] for k in ("inclusive", "own", "calls", "counts"))
    out = {}
    for name, kind in tracer.SPAN_METRICS:
        seconds = (inclusive if kind == "ms" else own)[name]
        out[f"{name}.{kind}"] = seconds * 1e3 * per_round
    for name in tracer.CALL_METRICS:
        out[f"{name}.calls"] = calls[name] * per_round
    for name in tracer.COUNT_METRICS:
        out[name] = counts[name] * per_round
    sups = calls["lsq.sup"]
    out["lsq.polish.useful_ratio"] = counts["lsq.polish.useful"] / sups if sups else 0.0
    out["cli.out_bytes"] = statistics.mean(r["out_bytes"] for r in traced)
    out["process.interp_ms"], out["process.import_numpy_ms"], out["process.import_hahn_lsq_ms"] = setup[1:]
    out["trace.overhead_s"] = (statistics.median(sum(r["latencies"]) for r in traced)
                               - statistics.median(sum(r["latencies"]) for r in untraced))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "hahn_lsq", "cli.py")):
        fail(f"no hahn_lsq sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        print(f"oracle self-test: {oracle.self_test()} checks passed")
        correct = True
    except AssertionError as exc:
        print(f"oracle self-test failed: {exc}")
        correct = False

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    launch_setup(env)  # fills the bytecode and file caches; not counted

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    watchdog = threading.Timer(DEADLINE_S - (perf_counter() - started), worker.kill)
    watchdog.start()
    try:
        pickle.dump(dict(root=ROOT, trace=args.trace,
                         spans_path=os.path.join(OUT, f"spans-{tag}.csv")), worker.stdin)
        rounds, repeats, setup = run_rounds(args, worker, env)
        pickle.dump(None, worker.stdin)
        worker.stdin.flush()
        final = pickle.load(worker.stdout)
        worker.wait()
    except (EOFError, BrokenPipeError, pickle.UnpicklingError) as exc:
        worker.kill()
        worker.wait()
        fail(f"worker ended early ({exc!r}, exit code {worker.returncode})")
    finally:
        watchdog.cancel()
        if worker.poll() is None:  # a failed set-up launch exits with the worker still up
            worker.kill()
            worker.wait()
    if worker.returncode != 0:
        fail(f"worker exited with code {worker.returncode}")

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of {rounds[0]['ops']} ops, "
          f"{repeats:.1%} of (alpha, beta, N) uses in a round repeat an earlier one")
    for problem in {p[0]: p for r in rounds for p in r["problems"]}.values():
        print(f"failed op: {problem}")
    if args.trace:
        values, wanted = per_layer(rounds, final, setup), spec["per_layer"]
    else:
        values, wanted = end_to_end(rounds, setup), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = dict(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(result, round_latencies=[r["latencies"] for r in rounds]), handle)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
