"""Benchmark of the hdgeig package, driven from outside through ``hdg-eig``.

Run from the root of a source checkout (see README.md beside this file):

    python3 perfbench/run.py --workload study_k2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1             # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # per-layer numbers
    python3 perfbench/run.py --smoke                             # self-test, seconds
    python3 perfbench/run.py --write-reference                   # rebuild reference.json

Every pass runs in a fresh worker process (``worker.py``) with OpenBLAS
pinned to one thread; this process only starts workers one after the
other (a closed loop with one client), collects their records, prints
the metrics and writes the records to ``.bench_out/`` in the checkout.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# one BLAS thread: the single-threaded baseline, and the second core stays free
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-up-only processes started per run, half before the passes and half
# after, on top of one per pass; spreading them over the run keeps a short
# slow spell of the machine from setting the median
SETUP_SAMPLES = 4
# a run stops starting passes after this long, under the 180 s it may take
RUN_LIMIT_S = 150.0


class WorkerFailed(RuntimeError):
    pass


def spawn(mode, workload, seed, deadline, trace=False, smoke=False, perturb=False):
    """Start one worker process, wait for it and return its record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    cmd += [flag for flag, on in (("--trace", trace), ("--smoke", smoke),
                                  ("--perturb", perturb)) if on]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=dict(os.environ, **BLAS_ENV),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker for %s timed out" % (mode, workload))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed("%s worker for %s exited %d" % (mode, workload, proc.returncode))
    record = json.loads(proc.stdout.splitlines()[-1])
    record["process_s"] = time.monotonic() - t0
    return record


def measure(workload, seed, seconds, trace, smoke=False, setup_samples=SETUP_SAMPLES):
    """One run of a workload: passes for ``seconds``, between set-up samples.

    Passes alternate untraced and traced when ``trace`` is set, so a
    traced run has at least one of each and can report the overhead.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn("setup", workload, seed, deadline, smoke=smoke)
              for _ in range(setup_samples // 2)]
    plain, traced = [], []
    expected = workloads.expected_results(workloads.calls(workload, seed, smoke))
    attempted = failed = 0
    start = time.monotonic()
    while True:
        use_trace = trace and len(traced) < len(plain)
        try:
            record = spawn("pass", workload, seed, deadline, trace=use_trace, smoke=smoke)
        except WorkerFailed as exc:
            print(exc, file=sys.stderr)
            attempted += expected
            failed += expected
            break
        (traced if use_trace else plain).append(record)
        attempted += record["attempted"]
        failed += record["failed"]
        for reason in record["failures"]:
            print("check failed: %s" % reason, file=sys.stderr)
        now = time.monotonic()
        typical = statistics.median(r["process_s"] for r in plain + traced)
        if (not trace or traced) and now - start + typical > seconds:
            break
        if now + typical > deadline:
            break
    if not plain or (trace and not traced):
        raise WorkerFailed("no complete pass of %s" % workload)
    setups += [spawn("setup", workload, seed, deadline, smoke=smoke)
               for _ in range(setup_samples - setup_samples // 2)]
    result = {"workload": workload, "attempted": attempted, "failed": failed,
              "passes": len(plain), "traced_passes": len(traced),
              "setup_samples": len(setups) + len(plain),
              "env": plain[0]["env"], "records": setups + plain + traced}
    if trace:
        result["metrics"] = layer_metrics(plain, traced)
    else:
        result["metrics"] = {
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in plain), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in setups + plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    return result


def layer_metrics(plain, traced):
    """Medians of the traced passes' per-layer numbers, plus the overhead."""
    out = {}
    for name in traced[0]["layers"]:
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        out[name] = (statistics.median(r["layers"][name] for r in traced), unit)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
    return out


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed, env):
    return dict(env, nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
                blas_env=BLAS_ENV, commit=git_commit(), seed=seed)


def report(results, seed, trace):
    """Print the metrics, write the records and return the result line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(seed, results[0]["env"])
    print("environment: %s" % json.dumps(env, sort_keys=True))
    single = len(results) == 1
    metrics = {}
    for res in results:
        name = res["workload"]
        ratio = res["failed"] / res["attempted"]
        print("%s: %d passes, %d traced passes, %d set-up samples; failed_ratio %d/%d = %g"
              % (name, res["passes"], res["traced_passes"], res["setup_samples"],
                 res["failed"], res["attempted"], ratio))
        for metric, (value, unit) in res["metrics"].items():
            shown = "%16d" % value if unit == "count" else "%16.6f" % value
            print("  %-32s %s %s" % (metric, shown, unit))
            metrics[metric if single else "%s.%s" % (name, metric)] = {"value": value, "unit": unit}
        path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (name, seed, int(trace)))
        with open(path, "w") as fh:
            json.dump(dict(res, env=env), fh)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke(seed):
    """Each workload on its coarsest levels, untraced and traced, then once
    against a perturbed reference, which must fail.  Returns an exit code."""
    ok = True
    deadline = time.monotonic() + 600
    for name in workloads.WORKLOADS:
        res = measure(name, seed, 0, trace=True, smoke=True, setup_samples=1)
        layers = {m: v for m, (v, _) in res["metrics"].items()}
        missing = [m for m in ("eigensolve.nonlinear_s", "assembly.assemble_s", "cli.self_s")
                   if not layers.get(m, 0) > 0]
        bad = spawn("pass", name, seed, deadline, smoke=True, perturb=True)
        checks = {
            "results correct (%d/%d failed)" % (res["failed"], res["attempted"]): res["failed"] == 0,
            "layer times present": not missing,
            "perturbed reference fails (%d/%d failed)" % (bad["failed"], bad["attempted"]):
                bad["failed"] == bad["attempted"],
        }
        for label, passed in checks.items():
            print("smoke %-14s %-45s %s" % (name, label, "ok" if passed else "FAILED"))
            ok = ok and passed
    return 0 if ok else 1


def write_reference():
    # reference mode runs every workload; the workload argument is a placeholder
    record = spawn("reference", "study_k2", 0, time.monotonic() + 1800)
    data = {"commit": git_commit(), "blas_env": BLAS_ENV, "env": record["env"],
            "results": record["results"]}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d reference results to %s" % (len(data["results"]), workloads.REFERENCE_PATH))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long; every run makes at least one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hdgeig", "__init__.py")):
        print("no hdgeig sources under %s; run from a source checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if not os.path.isfile(workloads.REFERENCE_PATH):
        print("missing %s" % workloads.REFERENCE_PATH, file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)

    names = [args.workload]
    if args.workload == "all":
        names = sorted(workloads.WORKLOADS)
        random.Random(args.seed).shuffle(names)
    try:
        results = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except WorkerFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(report(results, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
