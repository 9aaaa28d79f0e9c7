#!/usr/bin/env python3
"""Gate on the kernel-benchmark trend file.

Compares the headline events/s of one BENCH_kernel.json entry (the
measurement just taken, e.g. by tools/bench_kernel.sh in CI), or the
wall time of one named row, against a baseline entry and exits
non-zero when it regressed by more than the threshold.

usage: check_bench_regression.py <json> <current-label>
           [--baseline LABEL] [--threshold FRACTION]
           [--benchmark NAME] [--best-of N]

The baseline defaults to the last entry recorded before the current
label (the tracked number committed by the most recent perf PR). The
default threshold of 0.30 is deliberately loose: shared CI runners
are noisy, and the gate exists to catch structural regressions (an
accidental re-virtualization, a quadratic rescan) that cost far more
than run-to-run jitter, not to police single-digit drift - use the
committed BENCH_kernel.json entries for that (see EXPERIMENTS.md).

--best-of N compares the best measurement among up to N repeated
measurements of the current label: the entry labeled LABEL plus any
labeled "LABEL#2" .. "LABEL#N" (record repeats by running
tools/bench_kernel.sh once per suffix). Timing noise on shared
runners is one-sided - a run can only be slowed by interference, never
sped up - so the best over repeats (the maximum rate, or the minimum
wall time) estimates the machine's true speed far better than any
single run, and the gate stops failing on one unlucky measurement.
The baseline stays a single committed entry.

--benchmark gates one named row instead of the headline, on its wall
time per iteration (real_time_ns): each row runs a fixed workload, so
its wall time is the end-to-end cost. Events/s would count a change
that removes events as a slowdown. The row fails when the baseline's
time over the current time drops below 1 - threshold, so a threshold
means the same fractional speed loss as on the headline. CI uses it
with --threshold 0.05 on BM_EndToEndExperiment to enforce that the
telemetry-off hot path stays within 5% of the committed baseline (the
observability hooks must cost nothing when disabled).

A missing baseline is an error (exit 2), never a silent pass: a gate
that passes because the entry it should compare against is absent is
indistinguishable from a gate that ran, and has hidden a mislabeled
trend file before. --self-test exercises the gate against built-in
documents (no file needed) so CI can prove the failure modes stay
loud.
"""

import argparse
import json
import sys


def self_test() -> int:
    """Run the gate against canned documents; 0 when all pass."""
    doc = {
        "entries": [
            {"label": "pr-1", "events_per_second": 1.0e6,
             "benchmarks": {
                 "BM_EndToEndExperiment":
                     {"real_time_ns": 1.0e8,
                      "events_per_second": 2.0e6},
                 "BM_Leaner": {"real_time_ns": 1.0e8,
                               "events_per_second": 2.0e6},
                 "BM_Slower": {"real_time_ns": 1.0e8,
                               "events_per_second": 2.0e6}}},
            {"label": "pr-2", "events_per_second": 0.9e6,
             "benchmarks": {
                 "BM_EndToEndExperiment":
                     {"real_time_ns": 4.0e8,
                      "events_per_second": 0.5e6},
                 # 20% fewer events in 5% less time: events/s drops
                 # 16%, but the fixed workload got faster.
                 "BM_Leaner": {"real_time_ns": 0.95e8,
                               "events_per_second": 1.684e6},
                 # The same events at twice the time.
                 "BM_Slower": {"real_time_ns": 2.0e8,
                               "events_per_second": 1.0e6}}},
            # Repeat runs of pr-2 for the --best-of mode: the first
            # measurement above was unlucky; the repeat was not.
            {"label": "pr-2#2", "events_per_second": 0.99e6,
             "benchmarks": {
                 "BM_EndToEndExperiment":
                     {"real_time_ns": 1.005e8,
                      "events_per_second": 1.99e6}}},
        ]
    }
    cases = [
        # (argv-extras, entries-subset, expected-exit, description)
        (["pr-2"], None, 0, "10% drop passes the loose default"),
        (["pr-2", "--threshold", "0.05"], None, 1,
         "10% drop fails a 5% threshold"),
        (["pr-2", "--benchmark", "BM_EndToEndExperiment"], None, 1,
         "4x row wall time fails"),
        (["pr-2", "--benchmark", "BM_Leaner", "--threshold", "0.05"],
         None, 0, "fewer events in less wall time passes"),
        (["pr-2", "--benchmark", "BM_Slower"], None, 1,
         "same events at 2x the wall time fails"),
        (["pr-2", "--baseline", "nope"], None, 2,
         "explicit missing baseline errors"),
        (["nope"], None, 2, "missing current entry errors"),
        (["pr-1"], [doc["entries"][0]], 2,
         "no baseline entry errors instead of passing"),
        (["pr-2", "--benchmark", "BM_Missing"], None, 2,
         "missing benchmark row errors"),
        # --best-of: the max over repeat entries is what gates.
        (["pr-2", "--threshold", "0.05", "--best-of", "2"], None, 0,
         "best-of-2 rescues an unlucky first run"),
        (["pr-2", "--benchmark", "BM_EndToEndExperiment",
          "--best-of", "2"], None, 0,
         "best-of-2 applies to named rows too"),
        (["pr-2", "--threshold", "0.05", "--best-of", "2",
          "--baseline", "pr-1"], None, 0,
         "best-of-2 with an explicit baseline"),
        # A repeat entry must never be chosen as the implicit
        # baseline for its own label.
        (["pr-2#2", "--threshold", "0.05"], None, 0,
         "naming a repeat directly gates it as its own label"),
        (["pr-2", "--threshold", "0.05", "--best-of", "3"], None, 0,
         "missing repeats degrade to the runs present"),
    ]
    failures = 0
    for extras, subset, expected, description in cases:
        trimmed = doc if subset is None else {"entries": subset}
        got = run_gate(trimmed, parse_args(["<self-test>"] + extras))
        status = "ok" if got == expected else "FAIL"
        if got != expected:
            failures += 1
        print(f"self-test [{status}] {description} "
              f"(exit {got}, want {expected})")
    if failures:
        print(f"self-test: {failures} case(s) failed",
              file=sys.stderr)
        return 1
    print("self-test: all cases passed")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Fail on kernel benchmark regressions.")
    parser.add_argument("json_path", nargs="?", default=None,
                        help="BENCH_kernel.json path (optional with "
                             "--self-test)")
    parser.add_argument("current", nargs="?", default=None,
                        help="label of the new entry")
    parser.add_argument("--baseline", default=None,
                        help="baseline label (default: last entry "
                             "before the current one)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum tolerated fractional drop "
                             "(default 0.30)")
    parser.add_argument("--benchmark", default=None,
                        help="gate this benchmark row's wall time "
                             "(real_time_ns) instead of the entry's "
                             "headline events/s")
    parser.add_argument("--best-of", type=int, default=1,
                        dest="best_of", metavar="N",
                        help="take the best measurement among the "
                             "current label and its '#2'..'#N' repeat "
                             "entries (default 1: the single entry)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in behavioral checks and "
                             "exit")
    return parser.parse_args(argv)


def run_gate(doc, args) -> int:
    entries = doc.get("entries", [])
    by_label = {e["label"]: e for e in entries}

    if args.current not in by_label:
        print(f"error: no entry labeled '{args.current}' in "
              f"{args.json_path} (have: "
              f"{', '.join(sorted(by_label)) or 'none'})",
              file=sys.stderr)
        return 2
    current = by_label[args.current]

    # Repeat entries for --best-of: "<label>", "<label>#2", ...
    repeat_labels = [args.current] + [
        f"{args.current}#{i}" for i in range(2, args.best_of + 1)]
    repeats = [by_label[lbl] for lbl in repeat_labels
               if lbl in by_label]
    if args.best_of > 1 and len(repeats) < args.best_of:
        missing = [lbl for lbl in repeat_labels
                   if lbl not in by_label]
        print(f"note: --best-of {args.best_of} found "
              f"{len(repeats)} run(s); missing {', '.join(missing)}")

    if args.baseline is not None:
        if args.baseline not in by_label:
            print(f"error: no baseline entry '{args.baseline}' in "
                  f"{args.json_path} (have: "
                  f"{', '.join(sorted(by_label)) or 'none'})",
                  file=sys.stderr)
            return 2
        baseline = by_label[args.baseline]
    else:
        # Never gate a label against its own repeat runs, whatever
        # --best-of says: "<label>#k" entries are measurements of the
        # same code, not a baseline.
        previous = [e for e in entries
                    if e["label"] != args.current
                    and not e["label"].startswith(args.current + "#")]
        if not previous:
            print(f"error: no baseline entry before '{args.current}' "
                  f"in {args.json_path}; a gate with nothing to "
                  "compare against must not pass (record a baseline "
                  "entry or name one with --baseline)",
                  file=sys.stderr)
            return 2
        baseline = previous[-1]

    # A row is judged on wall time (lower is better), the headline on
    # events/s (higher is better).
    if args.benchmark is not None:
        def measure(entry):
            row = entry.get("benchmarks", {}).get(args.benchmark)
            return None if row is None else row.get("real_time_ns")
        best, unit = min, "ns"
        what = args.benchmark
    else:
        def measure(entry):
            return entry.get("events_per_second")
        best, unit = max, "events/s"
        what = "headline"

    runs = [m for m in (measure(e) for e in repeats) if m]
    cur = best(runs, default=None)
    base = measure(baseline)
    if not cur or not base:
        print(f"error: entries '{args.current}' / "
              f"'{baseline['label']}' lack a {unit} value for "
              f"'{what}'", file=sys.stderr)
        return 2

    # Speed relative to the baseline: above 1 is faster.
    ratio = base / cur if args.benchmark is not None else cur / base
    best_note = (f", best of {len(runs)} run(s)"
                 if args.best_of > 1 else "")
    print(f"[{what}] {args.current}: {cur:.3e} {unit} vs "
          f"{baseline['label']}: {base:.3e} {unit} "
          f"({ratio:.2f}x speed, threshold {1 - args.threshold:.2f}x"
          f"{best_note})")
    if ratio < 1.0 - args.threshold:
        print(f"FAIL: more than {args.threshold:.0%} below baseline",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


def main() -> int:
    args = parse_args(sys.argv[1:])
    if args.self_test:
        return self_test()
    if args.json_path is None or args.current is None:
        print("error: a trend file path and a current entry label "
              "are required", file=sys.stderr)
        return 2
    with open(args.json_path) as f:
        doc = json.load(f)
    return run_gate(doc, args)


if __name__ == "__main__":
    sys.exit(main())
