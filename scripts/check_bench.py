#!/usr/bin/env python3
"""CI benchmark regression gate.

Compares BENCH_*.json files emitted by the benchmark binaries against the
committed baseline (ci/bench_baseline.json) and fails the job when:

  * a *deterministic* metric changed at all — units "bool", "hash", "ops",
    "count" (coverage flags, framebuffer checksums, op counts: these must be
    bit-stable on every machine, so any drift is a real behaviour change);
  * a *timing* metric regressed more than the hard threshold (default 25%)
    — units "s" and "x_lower" (lower is better: times, overhead ratios),
    "x" and "/s" (higher is better: speedups, rates).
    Regressions between the soft (10%) and hard thresholds only warn, to
    tolerate shared-runner noise; improvements never fail.

Units "threads" (environment-dependent) and metrics absent from the
baseline are reported but never gate.

The baseline carries a `meta` block recording which machine class it was
measured on (cpu count, arch, source). Timing gates against a baseline from
a different machine class are unreliable — the checker prints the recorded
class and soft-warns on a mismatch so a runner-vs-devbox discrepancy is
visible in the log instead of silently gating nonsense. Deterministic
metrics gate exactly regardless of machine.

Usage:
  check_bench.py --baseline ci/bench_baseline.json BENCH_a.json BENCH_b.json
  check_bench.py --skip-timing ...   # deterministic metrics only (e.g. the
                                     # clang matrix leg, whose codegen makes
                                     # timings incomparable to the baseline)
  check_bench.py --update ...        # replace the given BENCH files'
                                     # benchmarks in the baseline and keep
                                     # the rest (run on a quiet machine,
                                     # commit the result); records this
                                     # machine's class in `meta` (the
                                     # latest refresh's) unless
                                     # --machine-class/--source override it.
                                     # CI uploads a ready-to-commit refresh
                                     # as the `bench-baseline-refresh`
                                     # artifact on every gcc main run.
"""

import argparse
import json
import os
import platform
import sys

DETERMINISTIC_UNITS = {"bool", "hash", "ops", "count"}
LOWER_IS_BETTER_UNITS = {"s", "x_lower"}
HIGHER_IS_BETTER_UNITS = {"x", "/s"}
SKIP_UNITS = {"threads"}

HARD_THRESHOLD = 0.25
SOFT_THRESHOLD = 0.10
# Wall-clock metrics shorter than this are below the timer/scheduler noise
# floor even as a min-of-N; report them but never gate on them.
MIN_GATED_SECONDS = 0.005


def load_bench_file(path):
    """Returns (benchmark_name, {metric: {"unit": u, "value": v}})."""
    with open(path) as f:
        data = json.load(f)
    metrics = {
        m["name"]: {"unit": m["unit"], "value": m["value"]}
        for m in data["metrics"]
    }
    return data["benchmark"], metrics


def local_machine_class():
    return f"{os.cpu_count() or '?'}-core {platform.machine()}"


def update_baseline(baseline_path, bench_files, machine_class, source):
    benchmarks = {}
    if os.path.exists(baseline_path):
        with open(baseline_path) as f:
            benchmarks = json.load(f)["benchmarks"]
    for path in bench_files:
        name, metrics = load_bench_file(path)
        benchmarks[name] = metrics
    meta = {
        "machine_class": machine_class or local_machine_class(),
        "cpu_count": os.cpu_count() or 0,
        "source": source,
    }
    with open(baseline_path, "w") as f:
        json.dump({"benchmarks": benchmarks, "meta": meta}, f, indent=2,
                  sort_keys=True)
        f.write("\n")
    print(f"baseline written: {baseline_path} "
          f"({', '.join(sorted(benchmarks))}) "
          f"[machine: {meta['machine_class']}, source: {meta['source']}]")
    return 0


def check(baseline_path, bench_files, skip_timing):
    with open(baseline_path) as f:
        data = json.load(f)
    baseline = data["benchmarks"]
    meta = data.get("meta", {})

    failures = []
    warnings = []
    seen_benchmarks = set()

    machine = meta.get("machine_class", "unknown (baseline predates meta)")
    print(f"baseline machine class: {machine} "
          f"[source: {meta.get('source', 'unknown')}]")
    base_cpus = meta.get("cpu_count", 0)
    if not skip_timing and base_cpus and base_cpus != (os.cpu_count() or 0):
        warnings.append(
            f"baseline was recorded on a {machine} machine but this one has "
            f"{os.cpu_count()} cpus — timing gates may be unreliable; "
            "refresh the baseline from this machine class (CI uploads a "
            "ready-made one as the bench-baseline-refresh artifact)")

    for path in bench_files:
        bench, metrics = load_bench_file(path)
        seen_benchmarks.add(bench)
        base_metrics = baseline.get(bench)
        if base_metrics is None:
            warnings.append(f"[{bench}] not in baseline — add it with "
                            "--update when it should gate")
            continue
        for name, base in sorted(base_metrics.items()):
            label = f"{bench}.{name}"
            cur = metrics.get(name)
            if cur is None:
                failures.append(f"{label}: missing from current run "
                                "(baseline has it — refresh the baseline if "
                                "this metric was deliberately removed)")
                continue
            unit, bval, cval = base["unit"], base["value"], cur["value"]
            if cur["unit"] != unit:
                failures.append(f"{label}: unit changed "
                                f"{unit!r} -> {cur['unit']!r}")
                continue
            if unit in SKIP_UNITS:
                print(f"  skip  {label} = {cval:g} {unit} "
                      "(environment-dependent)")
                continue
            if unit in DETERMINISTIC_UNITS:
                if cval != bval:
                    failures.append(f"{label}: deterministic metric changed "
                                    f"{bval:g} -> {cval:g} [{unit}]")
                else:
                    print(f"  ok    {label} = {cval:g} {unit} (exact)")
                continue
            if skip_timing:
                print(f"  skip  {label} (timing, --skip-timing)")
                continue
            if unit in LOWER_IS_BETTER_UNITS:
                if unit == "s" and max(bval, cval) < MIN_GATED_SECONDS:
                    print(f"  skip  {label} = {cval:g} {unit} "
                          f"(< {MIN_GATED_SECONDS}s noise floor)")
                    continue
                regression = cval / bval - 1.0 if bval > 0 else 0.0
            elif unit in HIGHER_IS_BETTER_UNITS:
                regression = bval / cval - 1.0 if cval > 0 else float("inf")
            else:
                warnings.append(f"{label}: unknown unit {unit!r}, not gated")
                continue
            desc = (f"{label}: {bval:g} -> {cval:g} {unit} "
                    f"({regression:+.1%} vs baseline)")
            if regression > HARD_THRESHOLD:
                failures.append(f"{desc} — exceeds the "
                                f"{HARD_THRESHOLD:.0%} hard threshold")
            elif regression > SOFT_THRESHOLD:
                warnings.append(f"{desc} — soft-warn zone "
                                f"({SOFT_THRESHOLD:.0%}..{HARD_THRESHOLD:.0%})")
            else:
                print(f"  ok    {desc}")

    for bench in sorted(set(baseline) - seen_benchmarks):
        failures.append(f"[{bench}] in baseline but no BENCH file given")

    for w in warnings:
        print(f"  WARN  {w}")
    for f_ in failures:
        print(f"  FAIL  {f_}")
    if failures:
        files = " ".join(f"BENCH_{b}.json" for b in sorted(baseline))
        print(f"\nbench gate: {len(failures)} failure(s). If a legitimate "
              "change moved the numbers, re-run the benches at the size CI "
              "executes (--quick where they take it) and refresh the "
              "baseline:\n"
              f"  python3 scripts/check_bench.py --update --baseline "
              f"{baseline_path} {files}\n"
              "and commit it with an explanation of the speedup/behaviour "
              "change.")
        return 1
    print(f"\nbench gate: ok ({len(warnings)} warning(s))")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="ci/bench_baseline.json")
    ap.add_argument("--skip-timing", action="store_true",
                    help="gate only deterministic metrics")
    ap.add_argument("--update", action="store_true",
                    help="replace the given BENCH files' benchmarks in the "
                         "baseline, keeping the others")
    ap.add_argument("--machine-class", default=None,
                    help="machine class recorded in the baseline meta "
                         "(default: derived from this machine)")
    ap.add_argument("--source", default="local",
                    help="where the BENCH files came from (e.g. 'local', "
                         "'ci:ubuntu-latest')")
    ap.add_argument("bench_files", nargs="+")
    args = ap.parse_args()
    if args.update:
        return update_baseline(args.baseline, args.bench_files,
                               args.machine_class, args.source)
    return check(args.baseline, args.bench_files, args.skip_timing)


if __name__ == "__main__":
    sys.exit(main())
