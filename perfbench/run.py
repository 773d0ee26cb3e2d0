"""Benchmark of the safebc pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload transport-fit --seed 1 --seconds 36 \
        --trace 0

Workloads are described in pipeline.py. With --trace 0 the run measures the
end-to-end metrics: it starts pipeline.WORKERS measuring processes of this
script one after another, each with an equal share of --seconds, and waits
for each to end; nothing else runs meanwhile. With --trace 1 it runs set-up
plus one round three times in this process (warm-up, untraced, traced;
--seconds is not used) and reports the per-layer metrics and the tracing
overhead. The environment and sample counts are printed first, then every
metric by name with its unit and direction; the last line of standard
output is one JSON object with the metrics BENCHMARK.json lists. A failed
correctness check prints CHECK FAILED on standard error and exits 1. Work
files go to .perfbench_work/ under the repository root."""

import os

# Pin BLAS threads before numpy loads: one thread is the steadiest setting
# on a machine whose other cores belong to other jobs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# every worker must have ended this long after the run started
RUN_TIMEOUT_S = 170
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def environment():
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def run_worker(args, plan, work, import_s):
    """Worker process: measure its share of the run, write result.json."""
    import pipeline
    d = os.path.join(work, f"w{args.worker}")
    try:
        result = pipeline.worker(plan, args.seed, args.seconds, d,
                                 args.worker,
                                 args.worker == pipeline.WORKERS - 1)
    except pipeline.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["import_s"] = import_s
    with open(os.path.join(d, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def measure(args, plan, work):
    """Untraced run: WORKERS fresh processes, one after another, each with
    an equal share of --seconds; their samples are pooled. On a shared host
    a process tends to keep its speed for its lifetime while fresh ones
    differ by up to ~35%, so with one process per run the run-to-run spread
    would mostly be a matter of which process the run got."""
    import pipeline
    results = []
    for k in range(pipeline.WORKERS):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / pipeline.WORKERS),
               "--trace", "0", "--worker", str(k)]
        left = RUN_TIMEOUT_S - (time.perf_counter() - START)
        try:
            # on timeout, subprocess.run kills the worker and waits for it
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise pipeline.StageError(f"worker {k} still running "
                                      f"{RUN_TIMEOUT_S} s into the run")
        if proc.returncode != 0:
            raise pipeline.StageError(
                f"worker {k} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-2000:]}")
        with open(os.path.join(work, f"w{k}", "result.json")) as fh:
            results.append(json.load(fh))
    return pipeline.aggregate(plan, results, work)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "safebc", "__init__.py")):
        print(f"error: no safebc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pipeline
    import_s = time.perf_counter() - START

    import safebc
    if not os.path.abspath(safebc.__file__).startswith(SRC + os.sep):
        print(f"error: imported safebc from {safebc.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    units = pipeline.per_layer_units() if args.trace \
        else pipeline.END_TO_END
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    for m in declared:
        if units.get(m["name"], (None,))[0] != m["unit"]:
            print(f"error: BENCHMARK.json lists {m['name']} in {m['unit']}, "
                  f"which the benchmark does not measure", file=sys.stderr)
            return 2

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    plan = pipeline.WORKLOADS[args.workload]
    if args.worker is not None:
        return run_worker(args, plan, work, import_s)
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            result = pipeline.traced(plan, args.seed, work)
        else:
            result = measure(args, plan, work)
    except pipeline.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, attempted, failed, failures, notes = result

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(environment()))
    for note in notes:
        print(note)
    print(f"operations attempted {attempted} failed {failed}")
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"  {name:48s} {value:>16.6g} {unit:6s} ({better} is better)")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in declared}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
