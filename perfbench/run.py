"""The repo benchmark: seeded workloads, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus-answers --seed 1 \
        --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``corpus-answers``: unmetered ``runner.run`` from source text over
  the corpus on five machines, plus Theorem 26 P_k texts that never
  repeat.
- ``space-hierarchy``: exact-metered delta-engine runs of the Theorem
  25 separators on the six reference machines, flat and linked, plus
  Theorem 26 P_k.
- ``serve-mix``: a live ``repro serve --workers 2`` under seeded
  open-loop arrivals.  It is not in ``BENCHMARK.json``: its four
  processes on two cores slow down by a quarter or more whenever the
  host lends them one core, and the calibration kernel cannot see
  that, so its timings do not hold the benchmark's bounds.  Run it by
  hand to measure the serving layers.

Each workload runs in fresh processes.  ``setup_s`` is the median of
several spawns, each timed from spawn to its first job being ready
(for ``serve-mix``: until ``/healthz`` answers with the workers up).
Every job's outcome is checked against the preserved oracles
(``oracle.py``).  The last line of standard output is the JSON result;
the line before it carries run metadata: the raw timings, the host
calibration kernel's timings and the workload's properties.  ``--trace
1`` reports the per-layer metrics instead of the end-to-end ones.

Times are reported at a reference host speed (units ``ref-ms`` and
``1/ref-s``; ``setup_s`` too, in ``s``): a time taken while the
calibration kernel, a fixed pure-Python loop that calls no repo code,
ran in *k* ms is scaled by ``KERNEL_REF_MS / k``.  A shared host runs
phases, seconds to minutes long, in which everything, the kernel
included, is up to 1.7 times slower; a job's time divided by the
kernel's stays within a few percent across them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
INPROC = os.path.join(HERE, "inproc.py")
TMP_DIR = ".perfbench_tmp"

WORKLOADS = ("corpus-answers", "space-hierarchy", "serve-mix")
#: Extra processes spawned for the ``setup_s`` median before and after
#: the one that runs the jobs, so the median samples the host at both
#: ends of the run.
SETUP_SPAWNS_EACH_SIDE = 3
#: In-process runs go on past ``--seconds`` until this many jobs are
#: done, so every percentile has enough samples beyond it, and
#: ``peak_rss_mb`` is read after this many jobs, so it does not depend
#: on how fast the jobs ran.
MIN_JOBS = 200
#: Open-loop arrival rate of serve-mix, in submits per second.
SERVE_RATE = 8.0
CHILD_TIMEOUT_S = 150.0
#: Kernel time, in ms, of the reference host speed times are scaled to.
KERNEL_REF_MS = 1.5
#: Kernel runs timed just before each spawn; their median scales that
#: spawn's setup time.
SETUP_KERNEL_REPEATS = 5
#: At most this share of the traced jobs' time may be charged to no
#: layer (``harness.run.self_ms``): more means a caller stopped
#: looking up an entry point where ``layers.py`` patches it.
UNCHARGED_TOLERANCE = 0.05
#: The tracer may slow the traced jobs by at most this share.  Wrapping
#: ``Machine.step`` costs about 0.4 on the exact-metered jobs.
OVERHEAD_TOLERANCE = 0.6
#: Layers each in-process workload must reach, by at least one call.
EXPECTED_LAYERS = {
    "corpus-answers": ("reader", "syntax.expand", "syntax.validate",
                       "compiler.prepass", "compiler.lower",
                       "compiler.codegen", "machine.step"),
    "space-hierarchy": ("reader", "syntax.expand", "syntax.validate",
                        "compiler.prepass", "compiler.lower", "machine.step",
                        "space.loop", "space.root_sync", "space.measure",
                        "space.collect"),
}
#: Slack, in ms, for the order of a job's serving events: due, sent,
#: queued (stamped by the server), answered; and queued, start,
#: terminal.  The client and the server read the same clock.
STAGE_TOLERANCE_MS = 1.0
#: Problems kept in the metadata line; a failing run still fails.
MAX_PROBLEMS = 20

END_TO_END_UNITS = {
    # Seconds at the reference host speed, like every time here.
    "setup_s": "s",
    "jobs_per_s": "1/ref-s",
    "latency_p50_ms": "ref-ms",
    "latency_p90_ms": "ref-ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

INPROC_LAYER_UNITS = {
    "compiler.codegen.busy_ms": "ref-ms/job",
    "compiler.codegen.calls": "calls/job",
    "reader.busy_ms": "ref-ms/job",
    "syntax.expand.busy_ms": "ref-ms/job",
    "syntax.validate.busy_ms": "ref-ms/job",
    "compiler.prepass.busy_ms": "ref-ms/job",
    "compiler.lower.busy_ms": "ref-ms/job",
    "machine.steps": "steps/job",
    "machine.step.busy_ms": "ref-ms/job",
    "space.loop.busy_ms": "ref-ms/job",
    "space.root_sync.busy_ms": "ref-ms/job",
    "space.measure.busy_ms": "ref-ms/job",
    "space.collect.busy_ms": "ref-ms/job",
    "space.collect.calls": "calls/job",
    "harness.run.busy_ms": "ref-ms/job",
    "harness.run.self_ms": "ref-ms/job",
    "trace.overhead_share": "share",
}

SERVE_LAYER_UNITS = {
    "serving.submit_ms_p50": "ref-ms",
    "serving.queue_wait_ms_p50": "ref-ms",
    "serving.queue_wait_ms_p90": "ref-ms",
    "serving.worker_run_ms_p50": "ref-ms",
    "serving.worker_run_ms_p90": "ref-ms",
    "serving.artifacts.hit_share": "share",
    "serving.artifacts.evictions": "count",
    "serving.scheduler.deferred_share": "share",
    "serving.quota_kills": "count",
    "serving.rejected": "count",
    "serving.retries": "count",
    "serving.server_rss_mb": "MB",
    "serving.worker_rss_mb": "MB",
    "loadgen.late_p90_ms": "ref-ms",
}

LAYER_UNITS = {"corpus-answers": INPROC_LAYER_UNITS,
               "space-hierarchy": INPROC_LAYER_UNITS,
               "serve-mix": SERVE_LAYER_UNITS}


def percentile(values, share):
    """Nearest-rank percentile; ``None`` unless at least ten samples
    lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(share * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def job_scales(calibration, jobs):
    """Per-job factors to the reference host speed: each block of
    ``CALIBRATE_EVERY`` jobs is scaled by the mean of the kernel
    timings just before and just after it, so a phase change of the
    host within a run moves only the jobs it overlaps."""
    from inproc import CALIBRATE_EVERY

    return [2.0 * KERNEL_REF_MS / (calibration[block] + calibration[block + 1])
            for block in (index // CALIBRATE_EVERY for index in range(jobs))]


def scaled_setup(samples):
    """Median setup time at the reference host speed, from
    ``(seconds, kernel ms just before)`` samples."""
    return statistics.median(seconds * KERNEL_REF_MS / kernel
                             for seconds, kernel in samples)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    if not values:
        return {"n": 0}
    if len(values) < 2:
        return {"n": 1, "median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


class Run:
    """Accumulates one run's verdict, metrics and metadata."""

    def __init__(self, workload, seed, seconds):
        self.meta = {"workload": workload, "seed": seed, "seconds": seconds}
        self.metrics = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name, value, units):
        if value is None:
            self.check(False, f"{name}: fewer than ten samples beyond it")
            value = 0.0
        self.metrics[name] = {"value": value, "unit": units[name]}

    def check(self, condition, problem):
        if not condition and len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def emit(self, trace):
        units = (LAYER_UNITS[self.meta["workload"]] if trace
                 else END_TO_END_UNITS)
        for name in units:
            self.metrics.setdefault(name, {"value": 0.0, "unit": units[name]})
        self.meta["problems"] = self.problems
        print(json.dumps({"perfbench": self.meta}))
        print(json.dumps({
            "correct": self.failed == 0 and not self.problems,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": {name: self.metrics[name] for name in units},
        }))


# -- in-process workloads ----------------------------------------------------


def spawn_child(root, tmp, payload, extra):
    """Start ``inproc.py``; returns ((seconds to ready, kernel ms just
    before the spawn), result or None)."""
    from inproc import kernel_ms
    from serve_mix import read_line

    kernel = kernel_ms(SETUP_KERNEL_REPEATS)
    result_path = os.path.join(tmp, f"result-{time.monotonic_ns()}.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, INPROC, payload, result_path, *extra],
        cwd=root, env=env, stdout=subprocess.PIPE,
    )
    try:
        line = read_line(proc.stdout, start + CHILD_TIMEOUT_S)
        ready = time.perf_counter() - start
        if line.strip() != b"ready":
            raise RuntimeError(f"workload child did not get ready: {line!r}")
        code = proc.wait(timeout=max(1.0, start + CHILD_TIMEOUT_S
                                     - time.perf_counter()))
        if code != 0:
            raise RuntimeError(f"workload child exited with {code}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if not os.path.exists(result_path):
        return (ready, kernel), None
    with open(result_path) as handle:
        return (ready, kernel), json.load(handle)


def run_inprocess(run, root, tmp, workload, seed, seconds, trace):
    import jobs as jobgen
    from oracle import OracleCache, job_key, matches

    generated = (jobgen.corpus_answers(seed) if workload == "corpus-answers"
                 else jobgen.space_hierarchy(seed))
    texts, job_list = generated["texts"], generated["jobs"]
    cache = OracleCache(root)
    tick = time.perf_counter()
    outcomes = cache.fill(texts, job_list)
    run.meta["oracle"] = {"computed": cache.computed,
                          "seconds": time.perf_counter() - tick}
    payload = os.path.join(tmp, "payload.json")
    with open(payload, "w") as handle:
        json.dump({"texts": texts, "jobs": job_list}, handle)
    args = ["--seconds", str(seconds),
            "--round-jobs", str(generated["round_jobs"]),
            "--min-jobs", str(MIN_JOBS)]

    def setup_only():
        return spawn_child(root, tmp, payload, args + ["--setup-only"])[0]

    setups = [setup_only() for _ in range(SETUP_SPAWNS_EACH_SIDE)]
    ready, result = spawn_child(
        root, tmp, payload, args + (["--trace"] if trace else [])
    )
    setups.append(ready)
    setups += [setup_only() for _ in range(SETUP_SPAWNS_EACH_SIDE)]
    if result is None:
        raise RuntimeError("workload child wrote no result")

    records = result["records"]
    scales = job_scales(result["calibration_ms"], len(records))
    raw_latencies = [record[0] * 1000.0 for record in records]
    latencies = [took * scale for took, scale in zip(raw_latencies, scales)]
    # The wall time at the reference speed, weighting each job's scale
    # by its time.
    scale = sum(latencies) / sum(raw_latencies)
    pairs, text_counts = set(), {}
    repeats = 0
    steps = []
    for job, record in zip(job_list, records):
        run.attempted += 1
        if len(record) == 5:
            observed = dict(zip(("answer", "steps", "sup_space",
                                 "consumption"), record[1:]))
            steps.append(observed["steps"])
        else:
            observed = record[1]
        metered = job["meter"] is not None
        if not matches(outcomes[job_key(texts, job)], observed, metered):
            run.failed += 1
            run.check(False, f"{job['name']} on {job['machine']}: "
                             f"{observed} != {outcomes[job_key(texts, job)]}")
        pair = (job["text"], job["machine"])
        repeats += pair in pairs
        pairs.add(pair)
        text_counts[job["text"]] = text_counts.get(job["text"], 0) + 1
    jobs_run = len(records)
    properties = {"jobs": jobs_run, "texts": len(text_counts)}
    if workload == "corpus-answers":
        properties["repeat_share"] = repeats / jobs_run
        properties["unique_text_share"] = sum(
            1 for job in job_list[:jobs_run] if text_counts[job["text"]] == 1
        ) / jobs_run
    properties["rounds"] = jobs_run / generated["round_jobs"]
    run.meta["properties"] = properties
    run.meta["calibration_ms"] = spread(result["calibration_ms"])
    run.meta["setup_samples"] = [{"s": seconds, "kernel_ms": kernel}
                                 for seconds, kernel in setups]
    run.meta["raw"] = {
        "jobs_per_s": jobs_run / result["wall_s"],
        "latency_p50_ms": statistics.median(raw_latencies),
        "latency_p90_ms": percentile(raw_latencies, 0.9) or 0.0,
    }

    if not trace:
        run.metric("setup_s", scaled_setup(setups), END_TO_END_UNITS)
        run.metric("jobs_per_s", jobs_run / (result["wall_s"] * scale),
                   END_TO_END_UNITS)
        run.metric("latency_p50_ms", statistics.median(latencies),
                   END_TO_END_UNITS)
        run.metric("latency_p90_ms", percentile(latencies, 0.9),
                   END_TO_END_UNITS)
        run.metric("ok_share", (run.attempted - run.failed) / run.attempted,
                   END_TO_END_UNITS)
        run.metric("peak_rss_mb", result["rss_mb"], END_TO_END_UNITS)
        return

    layers = result["layers"]
    self_s, calls = layers["self_s"], layers["calls"]
    per_job = 1000.0 * scale / jobs_run

    def busy(layer):
        return self_s.get(layer, 0.0) * per_job

    for layer in ("compiler.codegen", "reader", "syntax.expand",
                  "syntax.validate", "compiler.prepass", "compiler.lower",
                  "machine.step", "space.loop", "space.root_sync",
                  "space.measure", "space.collect"):
        run.metric(f"{layer}.busy_ms", busy(layer), INPROC_LAYER_UNITS)
    for layer in ("compiler.codegen", "space.collect"):
        run.metric(f"{layer}.calls", calls.get(layer, 0) / jobs_run,
                   INPROC_LAYER_UNITS)
    run.metric("machine.steps", sum(steps) / jobs_run, INPROC_LAYER_UNITS)
    run.metric("harness.run.busy_ms", sum(self_s.values()) * per_job,
               INPROC_LAYER_UNITS)
    run.metric("harness.run.self_ms", busy("harness.run"), INPROC_LAYER_UNITS)
    overhead = layers["traced_s"] / layers["untraced_s"] - 1.0
    run.metric("trace.overhead_share", overhead, INPROC_LAYER_UNITS)
    uncharged = self_s["harness.run"] / sum(self_s.values())
    missing = [layer for layer in EXPECTED_LAYERS[workload]
               if not calls.get(layer)]
    run.meta["trace_consistency"] = {
        "uncharged_share": uncharged,
        "uncharged_tolerance": UNCHARGED_TOLERANCE,
        "overhead_tolerance": OVERHEAD_TOLERANCE,
        "layers_not_reached": missing,
    }
    run.check(uncharged <= UNCHARGED_TOLERANCE,
              f"{uncharged:.1%} of the traced time is charged to no layer")
    run.check(overhead <= OVERHEAD_TOLERANCE,
              f"the tracer slows the jobs by {overhead:.1%}")
    run.check(not missing, f"layers never called: {missing}")


# -- serve-mix ---------------------------------------------------------------


def run_serve(run, root, tmp, seed, seconds, trace):
    import jobs as jobgen
    from inproc import kernel_ms
    from oracle import OracleCache, job_key, matches
    from serve_mix import TERMINAL, WORKERS, BootFailed, Server, drive

    generated = jobgen.serve_mix(seed, SERVE_RATE, seconds)
    texts, job_list = generated["texts"], generated["jobs"]
    arrivals = generated["arrivals"]
    cache = OracleCache(root)
    tick = time.perf_counter()
    outcomes = cache.fill(
        texts, [job for job in job_list if job["kind"] != "rejected"]
    )
    run.meta["oracle"] = {"computed": cache.computed,
                          "seconds": time.perf_counter() - tick}
    run.attempted = len(job_list)

    setups = []
    server = None
    survivors = []

    def boot():
        nonlocal server
        server = Server(root, tempfile.mkdtemp(prefix="spool-", dir=tmp))
        kernel = kernel_ms(SETUP_KERNEL_REPEATS)
        setups.append((server.boot(), kernel))

    def boot_and_stop():
        nonlocal survivors
        for _ in range(SETUP_SPAWNS_EACH_SIDE):
            boot()
            survivors += server.stop()

    try:
        boot_and_stop()
        boot()
        observed = drive(server, texts, arrivals)
        server_mb, worker_mb = server.rss_mb()
        survivors += server.stop()
        boot_and_stop()
    except BootFailed as error:
        run.problems.append(f"boot failed: {error}")
        run.failed = run.attempted
        run.metric("ok_share", 0.0, END_TO_END_UNITS)
        return
    finally:
        if server is not None:
            survivors += server.stop()
    run.check(not survivors,
              f"processes outlived the server and were killed: {survivors}")

    scale = KERNEL_REF_MS / statistics.median(observed["calibration_ms"])
    latencies, queue_waits, worker_runs = [], [], []
    settled_at = []
    busy = {}
    kinds = {}
    retries = 0
    over_budget = 0
    by_kind = {}
    for obs in observed["observations"]:
        job = obs["job"]
        due = obs["due"]
        if job["kind"] == "rejected":
            ok = obs["status"] == 400
            kinds["rejected"] = kinds.get("rejected", 0) + 1
            latencies.append((obs["answered"] - due) * 1000.0)
            settled_at.append(obs["answered"])
        else:
            records = obs["records"]
            terminal = next((r for r in reversed(records)
                             if r["kind"] in TERMINAL), None)
            outcome = outcomes[job_key(texts, job)]
            busts = ("budget" in job and "error" not in outcome
                     and outcome["consumption"] > job["budget"])
            over_budget += busts
            if terminal is None:
                ok = False
            else:
                kinds[terminal["kind"]] = kinds.get(terminal["kind"], 0) + 1
                if busts:
                    ok = terminal["kind"] in ("quota", "deferred")
                else:
                    ok = (terminal["kind"] == "result"
                          and matches(outcome, terminal, True))
                retries += sum(r["kind"] == "retried" for r in records)
                latency = (terminal["ts"] - due) * 1000.0
                latencies.append(latency)
                by_kind.setdefault(job["kind"], []).append(latency * scale)
                settled_at.append(terminal["ts"])
                queued = next(r for r in records if r["kind"] == "queued")
                start = next((r for r in reversed(records)
                              if r["kind"] == "start"), None)
                # The worker may start before the 202 reaches the client.
                chains = [[due, obs["sent"], queued["ts"], obs["answered"]],
                          [queued["ts"], terminal["ts"]]]
                if start is not None:
                    queue_waits.append((start["ts"] - queued["ts"]) * 1000.0)
                    worker_runs.append(
                        (terminal["ts"] - start["ts"]) * 1000.0)
                    chains[1].insert(1, start["ts"])
                    # Batch members share one worker run.
                    first, last = busy.get(obs["arrival"],
                                           (start["ts"], terminal["ts"]))
                    busy[obs["arrival"]] = (min(first, start["ts"]),
                                            max(last, terminal["ts"]))
                gaps_ms = [(later - earlier) * 1000.0 for chain in chains
                           for earlier, later in zip(chain, chain[1:])]
                run.check(
                    min(gaps_ms) >= -STAGE_TOLERANCE_MS,
                    f"{obs['id']}: serving events out of order, gaps "
                    f"{gaps_ms} ms (due, sent, queued, answered; queued, "
                    f"start, terminal)",
                )
        if not ok:
            run.failed += 1
            run.check(False, f"{job['name']} on {job['machine']}: status "
                             f"{obs['status']}, last receipt "
                             f"{obs.get('records', [])[-1:]}")

    settled = len(settled_at)
    wall = max(settled_at) - observed["t0"] if settled_at else float("inf")
    # Jobs per second of the workers' capacity: the jobs that ran on a
    # worker over the summed worker-busy time, per worker.  The offered
    # and achieved rates are fixed by the load, so they are metadata.
    worker_jobs = len(worker_runs)
    busy_s = sum(last - first for first, last in busy.values())
    capacity = worker_jobs * WORKERS / busy_s if busy_s else 0.0
    cache_stats = observed["metrics"]["cache"]
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    hit_share = cache_stats.get("hits", 0) / max(lookups, 1)
    jobs_total = len(job_list)
    run.meta["properties"] = {
        "jobs": jobs_total,
        "offered_rate": jobs_total / seconds,
        "achieved_rate": settled / wall,
        "worker_jobs": worker_jobs,
        "artifact_hit_share": hit_share,
        "quota_share": kinds.get("quota", 0) / jobs_total,
        "deferred_share": kinds.get("deferred", 0) / jobs_total,
        "rejected_share": kinds.get("rejected", 0) / jobs_total,
        "terminal_kinds": kinds,
        "latency_p50_ms_by_kind": {kind: statistics.median(values)
                                   for kind, values in by_kind.items()},
        "cache": cache_stats,
    }
    run.meta["calibration_ms"] = spread(observed["calibration_ms"])
    run.meta["setup_samples"] = [{"s": seconds, "kernel_ms": kernel}
                                 for seconds, kernel in setups]
    run.meta["raw"] = {
        "jobs_per_s": capacity,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile(latencies, 0.9) or 0.0,
    }
    latencies = [latency * scale for latency in latencies]
    sends = observed["sends"]

    if not trace:
        run.metric("setup_s", scaled_setup(setups), END_TO_END_UNITS)
        run.metric("jobs_per_s", capacity / scale, END_TO_END_UNITS)
        run.metric("latency_p50_ms", statistics.median(latencies),
                   END_TO_END_UNITS)
        run.metric("latency_p90_ms", percentile(latencies, 0.9),
                   END_TO_END_UNITS)
        run.metric("ok_share", (run.attempted - run.failed) / run.attempted,
                   END_TO_END_UNITS)
        run.metric("peak_rss_mb", server_mb + worker_mb, END_TO_END_UNITS)
        return

    units = SERVE_LAYER_UNITS
    run.metric("serving.submit_ms_p50", statistics.median(
        send["submit_s"] * 1000.0 * scale for send in sends), units)
    queue_waits = [wait * scale for wait in queue_waits]
    worker_runs = [took * scale for took in worker_runs]
    for stage, values in (("queue_wait", queue_waits),
                          ("worker_run", worker_runs)):
        run.metric(f"serving.{stage}_ms_p50", median_or_zero(values), units)
        run.metric(f"serving.{stage}_ms_p90", percentile(values, 0.9), units)
    run.metric("serving.artifacts.hit_share", hit_share, units)
    run.metric("serving.artifacts.evictions",
               cache_stats.get("evictions", 0), units)
    run.metric("serving.scheduler.deferred_share",
               kinds.get("deferred", 0) / max(over_budget, 1), units)
    run.metric("serving.quota_kills", kinds.get("quota", 0), units)
    run.metric("serving.rejected", kinds.get("rejected", 0), units)
    run.metric("serving.retries", retries, units)
    run.metric("serving.server_rss_mb", server_mb, units)
    run.metric("serving.worker_rss_mb", worker_mb, units)
    run.metric("loadgen.late_p90_ms", percentile(
        [send["late_s"] * 1000.0 * scale for send in sends], 0.9), units)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout of the repo "
              "(no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(root, TMP_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, TMP_DIR))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.workload == "serve-mix":
            run_serve(run, root, tmp, args.seed, args.seconds, args.trace)
        else:
            run_inprocess(run, root, tmp, args.workload, args.seed,
                          args.seconds, args.trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.emit(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
