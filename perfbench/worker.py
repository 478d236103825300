"""One fresh process of the hdgeig benchmark.

Started by ``run.py``; not meant to be run by hand.  It imports hdgeig,
builds the workload's arguments and reports the set-up time, measured
from the moment the orchestrator started this process.  In ``pass`` mode
it then runs the workload once, checks every result and reports the
pass's wall and CPU time and the process's peak RSS.  It prints exactly
one JSON object on stdout.
"""

import argparse
import json
import os
import resource
import sys
import time

import workloads

# numpy and scipy wheels ship prefixed OpenBLAS builds, numpy's with 64-bit ints
_BLAS_SYMBOLS = [(p + "_get_config" + s, p + "_get_num_threads" + s)
                 for p in ("scipy_openblas", "openblas") for s in ("64_", "")]


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def blas_info():
    """Version and thread count of every OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for config_name, threads_name in _BLAS_SYMBOLS:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config, threads = getattr(lib, config_name), getattr(lib, threads_name)
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                out.append({"library": os.path.basename(path),
                            "config": config().decode(), "threads": threads()})
                break
    return out


def run_pass(main_fn, work, reference):
    """Run every call and check every result.

    Returns (results attempted, failure reasons, modes reported).
    """
    attempted, failures, reported = 0, [], 0
    for call in work:
        try:
            code, text = workloads.run_call(main_fn, call)
            got = workloads.parse_output(call, code, text)
        except Exception as exc:  # a raising call fails its results; the pass goes on
            print("call %s raised %r" % (" ".join(call.argv), exc), file=sys.stderr)
            got = {}
        for key in call.result_keys():
            attempted += 1
            value = got.get(key)
            if value is not None:
                reported += len(value["condensed"]) if call.kind == "oracle" else 1
            reason = workloads.check(key, value, reference.get(key))
            if reason is not None:
                failures.append("%s: %s" % (key, reason))
    return attempted, failures, reported


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the orchestrator started this process")
    parser.add_argument("--mode", choices=("setup", "pass", "reference"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", action="store_true",
                        help="check against a reference with every eigenvalue moved")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import numpy
    import scipy

    import hdgeig.cli

    work = workloads.calls(args.workload, args.seed, args.smoke)
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s}

    if args.mode == "reference":
        record["results"] = {}
        for smoke in (False, True):
            for name in workloads.WORKLOADS:
                for call in workloads.calls(name, 0, smoke):
                    code, text = workloads.run_call(hdgeig.cli.main, call)
                    if code != 0:
                        raise SystemExit("reference call %s exited %d" % (call.argv, code))
                    record["results"].update(workloads.parse_output(call, code, text))
    elif args.mode == "pass":
        reference = workloads.load_reference()
        if args.perturb:
            reference = workloads.perturbed(reference)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.instrument(tracer)
        main_fn = hdgeig.cli.main  # looked up after instrument() wraps it
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        if tracer is None:
            attempted, failures, reported = run_pass(main_fn, work, reference)
        else:
            attempted, failures, reported = tracer.call(
                "bench.self", "pass", run_pass, (main_fn, work, reference), {})
        record.update(wall_s=time.perf_counter() - start, cpu_s=_cpu_seconds() - cpu0,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      attempted=attempted, failed=len(failures), failures=failures[:20])
        if tracer is not None:
            record["layers"] = tracer.metrics(reported)
            record["spans"] = tracer.spans
    record["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
