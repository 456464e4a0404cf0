"""Workload process: runs rounds of ops through `hahn_lsq.cli.main`.

Started by run.py, one process per workload run.  It reads pickled
messages on stdin and answers on stdout: an init message, then one
message per round (the ops when they change, and the order to run
them in), then None.  Only the CLI call is timed.  The outputs go back
to the launcher, which checks them: no checking code runs here, so the
memory read after the timed loop is what the CLI calls and their
captured outputs hold.
"""

import gc
import io
import os
import pickle
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from tracer import Tracer


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from hahn_lsq import bounds, cli, hahn, jacobi, lsq, registry

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"hahn_lsq was imported from {cli.__file__}, not from {src}")
    return cli, (cli, hahn, lsq, bounds, jacobi, registry)


def peak_rss_mb():
    """Peak resident memory of this process since it was exec'd.  VmHWM
    starts afresh at exec; ru_maxrss would carry the launcher's peak over
    from the fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(cli, tracer, ops, order):
    gc.collect()
    latencies, outputs = [], []
    if tracer is not None:
        tracer.install()
    try:
        for op_id in order:
            argv = list(ops[op_id].argv)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                code = cli.main(argv) if tracer is None else tracer.run_op(op_id, cli.main, argv)
                latencies.append(perf_counter() - start)
            outputs.append((op_id, code, out.getvalue(), err.getvalue()))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return dict(latencies=latencies, outputs=outputs, peak_rss_mb=peak_rss_mb())


def main():
    inbox, outbox = sys.stdin.buffer, sys.stdout.buffer
    init = pickle.load(inbox)
    cli, modules = _import_package(init["root"])
    tracer = Tracer(*modules) if init["trace"] else None
    ops = None
    while True:
        message = pickle.load(inbox)
        if message is None:
            break
        if message["ops"] is not None:
            ops = {op.id: op for op in message["ops"]}
        result = run_round(cli, tracer if message["traced"] else None, ops, message["order"])
        pickle.dump(result, outbox)
        outbox.flush()
    final = {}
    if tracer is not None:
        final["layers"] = tracer.totals()
        tracer.write(init["spans_path"])
    pickle.dump(final, outbox)
    outbox.flush()


if __name__ == "__main__":
    main()
