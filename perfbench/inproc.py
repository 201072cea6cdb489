"""Child process of the in-process workloads.

Usage: ``inproc.py PAYLOAD RESULT --seconds S --round-jobs R --min-jobs
J [--setup-only] [--trace]``.  Imports ``repro``, reads the job
payload, and prints ``ready`` on stdout: the parent's ``setup_s`` clock
stops there.  It then runs the jobs in order, one
``repro.harness.runner.run`` call each, in rounds of *R* jobs, and
stops at the first round boundary after *S* seconds and *J* jobs, so
every run measures whole rounds of the same mix.  Peak RSS is read
after *J* jobs, so it does not depend on how fast the jobs ran.  It
writes one JSON result to *RESULT*.

With ``--trace`` every job runs twice, once under the layer tracer and
once without it, in alternating order, so the tracer's overhead is
measured on the same jobs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.harness.runner import run

#: Time the calibration kernel before every this many jobs, and once
#: after the last, so every block of jobs lies between two timings.
CALIBRATE_EVERY = 8


def calibration_kernel() -> int:
    """A fixed pure-Python loop: its time tracks the host's speed.  It
    calls no repo code, so no change to the repo can slow it."""
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    return total


def kernel_ms(repeats: int = 1) -> float:
    """The median time of *repeats* runs of the kernel, in ms."""
    took = []
    for _ in range(repeats):
        tick = time.perf_counter()
        calibration_kernel()
        took.append((time.perf_counter() - tick) * 1000.0)
    return statistics.median(took)


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_job(runner, texts, job) -> list:
    """``[seconds, answer, steps, sup_space, consumption]`` or
    ``[seconds, {"error": ...}]``."""
    clock = time.perf_counter
    start = clock()
    try:
        result = runner(
            texts[job["text"]],
            job["argument"],
            machine=job["machine"],
            meter=job["meter"] or False,
            linked=job["linked"],
            fixed_precision=job["fixed_precision"],
        )
    except Exception as error:  # noqa: BLE001 - recorded as a miss
        return [clock() - start, {"error": f"{type(error).__name__}: {error}"}]
    return [clock() - start, result.answer, result.steps, result.sup_space,
            result.consumption]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("payload")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--round-jobs", type=int, required=True)
    parser.add_argument("--min-jobs", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.payload) as handle:
        payload = json.load(handle)
    texts, jobs = payload["texts"], payload["jobs"]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = traced_run = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        traced_run = tracer.wrap("harness.run", run)
    records = []
    traced_s = untraced_s = 0.0
    calibration = []
    kernel_s = 0.0
    rss_mb = None
    clock = time.perf_counter
    start = clock()
    for index, job in enumerate(jobs):
        if index % args.round_jobs == 0 and index >= args.min_jobs and \
                clock() - start >= args.seconds:
            break
        if index % CALIBRATE_EVERY == 0:
            calibration.append(kernel_ms())
            kernel_s += calibration[-1] / 1000.0
        if tracer is None:
            records.append(run_job(run, texts, job))
        else:
            untraced = None
            for traced in ((False, True) if index % 2 else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        record = run_job(traced_run, texts, job)
                    finally:
                        tracer.uninstall()
                    traced_s += record[0]
                else:
                    untraced = run_job(run, texts, job)
                    untraced_s += untraced[0]
            records.append(record if untraced[1:] == record[1:]
                           else [record[0], {"error": "traced run differs"}])
        if index + 1 == args.min_jobs:
            rss_mb = peak_rss_mb()
    wall = clock() - start - kernel_s
    calibration.append(kernel_ms())
    result = {
        "records": records,
        "wall_s": wall,
        "rss_mb": rss_mb,
        "calibration_ms": calibration,
    }
    if tracer is not None:
        result["layers"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "traced_s": traced_s,
            "untraced_s": untraced_s,
        }
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
