"""Runs one workload's ctscreen commands in a process of its own.

    python3 bench/worker.py PLAN.json RESULT.json

PLAN holds the commands of one round, the run length and whether to trace.
The worker imports ctscreen from the checkout's `src`, then runs whole
rounds through `ctscreen.cli.main`, with the arguments a user would type,
until the run length is used up. It stops before a round that would end
more than half a round past the run length. RESULT gets the round times,
the command counts, the peak resident memory, the printed output of the
last round and, when traced, the per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_command(cli, argv):
    """(exit code, stdout, stderr) of one command; a traceback counts as 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc(file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, SRC)
    from ctscreen import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ctscreen imported from {cli.__file__}, not {SRC}")

    tracer = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    walls, cpus, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = len(walls)
        t0, c0 = time.perf_counter(), time.process_time()
        outputs = []
        for argv in plan["commands"]:
            code, out, err = run_command(cli, argv)
            attempted += 1
            if code != 0:
                failed += 1
                failures.append(f"{' '.join(argv)} -> exit {code}: {err.strip()[-2000:]}")
            outputs.append(out)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if time.perf_counter() - start + walls[-1] / 2 > plan["seconds"]:
            break

    result = {
        "walls": walls, "cpus": cpus, "attempted": attempted, "failed": failed,
        "failures": failures[:10], "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.write(plan["trace_path"])
        result["layers"] = tracer.metrics(len(walls), sum(cpus) / sum(walls))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
