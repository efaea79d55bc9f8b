"""The ctscreen benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload {train_ladder,screen,cohort} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout. It writes the workload's inputs from the
seed under `.bench_work/<workload>/` (three times, timing each: `setup_s`),
runs the ctscreen commands of whole rounds for about S seconds in a worker
process of their own, checks the outputs of the last round apart from the
program, and prints as its last line a JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones from a traced run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".bench_work"
SETUP_REPEATS = 3
# a round runs for at most about half a minute; a worker that has not
# finished well after the run length has hung
WORKER_GRACE_S = 120


def setup(workload, seed, work):
    """Write the inputs SETUP_REPEATS times; (plan, median seconds)."""
    inputs_dir = os.path.join(work, "inputs")
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs_dir, ignore_errors=True)
        os.makedirs(inputs_dir)
        start = time.perf_counter()
        plan = inputs.SETUPS[workload](inputs_dir, os.path.join(work, "out"), seed)
        times.append(time.perf_counter() - start)
    return plan, statistics.median(times)


def run_worker(plan, work, seconds, trace):
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": plan["commands"], "seconds": seconds, "trace": trace,
                   "trace_path": os.path.join(work, "trace.jsonl")}, fh)
    # one process, at most nproc threads: BLAS gets the cores the jobs leave
    threads = str(max(1, len(os.sched_getaffinity(0)) // plan["jobs"]))
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           plan_path, result_path], env=env, cwd=ROOT,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ctscreen", "cli.py")):
        print(f"error: no ctscreen sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    plan, setup_s = setup(args.workload, args.seed, work)
    result = run_worker(plan, work, args.seconds, bool(args.trace))

    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    problems = checks.CHECKS[args.workload](plan, result, args.seed)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    rounds = len(result["walls"])
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "items_per_s": {"value": plan["items_per_round"] * rounds
                            / sum(result["walls"]), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload}: {rounds} rounds, {result['attempted']} commands, "
          f"round walls {[round(w, 3) for w in result['walls']]}")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
