"""Metered-throughput regression gate.

Compares a freshly generated ``BENCH_throughput.json`` against the
checked-in baseline and fails (exit 1) when the metering gap widens:

* each machine's ``metered_ratio`` (unmetered batched rate over the
  exact delta-metered rate — the slowdown of making every
  Definition 21 configuration observable) must not regress past
  ``threshold`` (default 0.9) times the recorded figure.  The ratio is
  a within-session quotient, so it cancels the absolute speed of the
  host — like ``check_step_rate.py``'s normalized mode, the baseline
  can come from different hardware;
* the engine-speedup floor on the gc-vs-tail separator must hold in
  the current run: delta >= ``--engine-floor`` (default 5.0) times the
  reference engine;
* the sampled-meter flagship cell must hold its own recorded gates —
  sampled within ``max_sampled_vs_per_step`` of the per-step unmetered
  loop, and sampled at least ``min_sampled_over_exact`` times the
  exact meter — and neither quotient may regress past ``threshold``
  times the recorded one;
* the serving artifact cache's warm-vs-cold speedup must hold
  ``--cache-floor`` (default 3.0) in the current run;
* the small job (gc-vs-tail N=64 on gc, unmetered, ``runner.run`` from
  source text every run) must run at no less than
  ``SMALL_JOB_SHARE_FLOOR`` of the same program's steady-state step
  rate, measured in the same session, so the share holds across
  hardware.  Front end and gen-3 codegen are what a small job pays on
  top of stepping; without the codegen compile memo the share is
  ~0.034, with it ~0.16.

Usage::

    python benchmarks/check_throughput.py BASELINE.json CURRENT.json
    python benchmarks/check_throughput.py --threshold 0.85 old.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_THRESHOLD = 0.9
DEFAULT_ENGINE_FLOOR = 5.0
DEFAULT_CACHE_FLOOR = 3.0
#: Floor on ``small_job.share_of_steady``: from-source steps/s over
#: steady-state steps/s of the same small program.
SMALL_JOB_SHARE_FLOOR = 0.08


def load_payload(path: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    if not payload.get("steps_per_second"):
        raise SystemExit(f"{path}: no steps_per_second entries")
    return payload


def check_metered_ratio(baseline: dict, current: dict, threshold: float) -> list:
    """Per machine: the metering slowdown must not grow past
    1/threshold times the recorded one.  Lower ratios are better, so
    the gating quotient is recorded/current."""
    recorded = baseline.get("metered_ratio") or {}
    measured = current.get("metered_ratio") or {}
    failures = []
    for name in sorted(recorded):
        entry = measured.get(name)
        if entry is None:
            failures.append(f"metered_ratio/{name}")
            print(f"FAIL metered_ratio/{name}: missing from the current run")
            continue
        quotient = recorded[name] / entry
        status = "ok  " if quotient >= threshold else "FAIL"
        if quotient < threshold:
            failures.append(f"metered_ratio/{name}")
        print(
            f"{status} metered_ratio/{name:7s} {entry:8.2f}x slowdown "
            f"vs baseline {recorded[name]:8.2f}x ({quotient:.2f}x, "
            f"threshold {threshold:.2f}x)"
        )
    return failures


def check_engine_floor(current: dict, floor: float) -> list:
    """The incremental engine's within-session speedup over the seed
    reference engine on the gc-vs-tail separator."""
    entry = current.get("engine_speedup") or {}
    speedup = entry.get("speedup")
    if speedup is None:
        print("FAIL engine_speedup: missing from the current run")
        return ["engine_speedup"]
    status = "ok  " if speedup >= floor else "FAIL"
    print(
        f"{status} engine_speedup {speedup:.2f}x reference "
        f"(floor {floor:.2f}x) on {entry.get('separator')}"
    )
    return [] if speedup >= floor else ["engine_speedup"]


def check_sampled_flagship(
    baseline: dict, current: dict, threshold: float
) -> list:
    """The sampled meter's own recorded gates, plus non-regression of
    both quotients against the baseline."""
    entry = current.get("sampled_flagship")
    recorded = baseline.get("sampled_flagship")
    if not recorded:
        return []
    if not entry:
        print("FAIL sampled_flagship: missing from the current run")
        return ["sampled_flagship"]
    failures = []

    vs_per_step = entry["sampled_vs_per_step"]
    cap = entry.get(
        "max_sampled_vs_per_step", recorded.get("max_sampled_vs_per_step")
    )
    ok = vs_per_step <= cap
    print(
        f"{'ok  ' if ok else 'FAIL'} sampled_vs_per_step "
        f"{vs_per_step:.2f}x (cap {cap:.2f}x)"
    )
    if not ok:
        failures.append("sampled_vs_per_step")
    quotient = recorded["sampled_vs_per_step"] / vs_per_step
    ok = quotient >= threshold
    print(
        f"{'ok  ' if ok else 'FAIL'} sampled_vs_per_step vs baseline "
        f"{recorded['sampled_vs_per_step']:.2f}x ({quotient:.2f}x, "
        f"threshold {threshold:.2f}x)"
    )
    if not ok:
        failures.append("sampled_vs_per_step_regression")

    over_exact = entry["sampled_over_exact"]
    floor = entry.get(
        "min_sampled_over_exact", recorded.get("min_sampled_over_exact")
    )
    ok = over_exact >= floor
    print(
        f"{'ok  ' if ok else 'FAIL'} sampled_over_exact "
        f"{over_exact:.2f}x (floor {floor:.2f}x)"
    )
    if not ok:
        failures.append("sampled_over_exact")
    quotient = over_exact / recorded["sampled_over_exact"]
    ok = quotient >= threshold
    print(
        f"{'ok  ' if ok else 'FAIL'} sampled_over_exact vs baseline "
        f"{recorded['sampled_over_exact']:.2f}x ({quotient:.2f}x, "
        f"threshold {threshold:.2f}x)"
    )
    if not ok:
        failures.append("sampled_over_exact_regression")
    return failures


def check_cache(baseline: dict, current: dict, floor: float) -> list:
    """The serving artifact cache's warm-vs-cold speedup must hold its
    own floor in the current run.  The quotient is within-session
    (cold and warm submissions on the same host), so no cross-baseline
    normalization is needed — only presence is checked against the
    baseline, so a run that silently drops the section fails."""
    entry = current.get("cache")
    recorded = baseline.get("cache")
    if not recorded and not entry:
        return []
    if not entry:
        print("FAIL cache: missing from the current run")
        return ["cache"]
    speedup = entry.get("speedup")
    floor = max(floor, entry.get("min_speedup", floor))
    ok = speedup is not None and speedup >= floor
    print(
        f"{'ok  ' if ok else 'FAIL'} cache warm-vs-cold "
        f"{speedup:.2f}x (floor {floor:.2f}x) on "
        f"{entry.get('workload')}"
    )
    return [] if ok else ["cache"]


def check_small_job(baseline: dict, current: dict) -> list:
    """A small job run from source text must keep at least
    ``SMALL_JOB_SHARE_FLOOR`` of its steady-state step rate.  The share
    is within-session; the baseline is consulted only for presence, so
    a run that silently drops the row fails."""
    entry = current.get("small_job")
    if not entry:
        if not baseline.get("small_job"):
            return []
        print("FAIL small_job: missing from the current run")
        return ["small_job"]
    share = entry["share_of_steady"]
    ok = share >= SMALL_JOB_SHARE_FLOOR
    print(
        f"{'ok  ' if ok else 'FAIL'} small_job {share:.3f} of steady "
        f"state (floor {SMALL_JOB_SHARE_FLOOR:.3f}): "
        f"{entry['steps_per_second']:.0f} vs "
        f"{entry['steady_steps_per_second']:.0f} steps/s on "
        f"{entry.get('workload')}"
    )
    return [] if ok else ["small_job"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="recorded BENCH_throughput.json")
    parser.add_argument(
        "current", help="freshly generated BENCH_throughput.json"
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="minimum non-regression quotient (default 0.9)",
    )
    parser.add_argument(
        "--engine-floor", type=float, default=DEFAULT_ENGINE_FLOOR,
        help="minimum delta/reference engine speedup on the gc-vs-tail "
        "separator (default 5.0)",
    )
    parser.add_argument(
        "--cache-floor", type=float, default=DEFAULT_CACHE_FLOOR,
        help="minimum warm-vs-cold artifact-cache speedup on the "
        "serving workload (default 3.0)",
    )
    args = parser.parse_args(argv)

    baseline = load_payload(args.baseline)
    current = load_payload(args.current)
    failures = []
    failures.extend(check_metered_ratio(baseline, current, args.threshold))
    failures.extend(check_engine_floor(current, args.engine_floor))
    failures.extend(check_sampled_flagship(baseline, current, args.threshold))
    failures.extend(check_cache(baseline, current, args.cache_floor))
    failures.extend(check_small_job(baseline, current))
    if failures:
        print(
            f"metered-throughput regression: {', '.join(failures)}"
        )
        return 1
    print(
        f"metered throughput within {args.threshold}x of the recorded "
        "baseline; engine, sampled, cache and small-job gates hold"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
