"""Benchmark of the cpe pipeline: one workload per run, one JSON line out.

Run from the root of a source checkout:

    python3 bench/run.py --workload long-1024 --seed 1 --seconds 15 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` wraps every
public function of the cpe modules, reports the per-layer metrics together
with the tracing overhead, and leaves the spans under .bench_runs/traces/.
The last line of standard output is {"correct", "attempted", "failed",
"metrics"}; progress and check results go to standard error. The program is imported from ./src of the working
directory, so the run measures the checkout it is started in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import util  # noqa: E402

util.limit_threads()  # before anything imports numpy

WORKLOADS = ("hier-pipeline", "long-1024", "hier-1024")


def log(line):
    print(line, file=sys.stderr, flush=True)


def import_program(root):
    """Import cpe from <root>/src, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cpe", "__init__.py")):
        raise SystemExit(f"error: no cpe sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import cpe

    if os.path.dirname(os.path.dirname(os.path.abspath(cpe.__file__))) != src:
        raise SystemExit(f"error: imported cpe from {cpe.__file__}, not from {src}")
    return src


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = import_program(root)
    runs = os.path.join(root, ".bench_runs")
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(runs, "traces", f"{args.workload}-s{args.seed}-{os.getpid()}")
        os.makedirs(trace_dir)
        log(f"spans go to {trace_dir}")
    if args.workload == "hier-pipeline":
        import workload_pipeline

        workdir = os.path.join(runs, f"{args.workload}-s{args.seed}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            result = workload_pipeline.run(src, workdir, args.seed, args.seconds, trace_dir, log)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        import workload_longdoc

        objective = {"long-1024": "cpe-long", "hier-1024": "cpe-hier"}[args.workload]
        result = workload_longdoc.run(objective, args.seed, args.seconds, trace_dir, log)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
