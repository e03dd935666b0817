#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the purcat command line.

    python3 bench/run.py --workload probes --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38

Run from the root of a checkout.  The benchmark writes a seeded corpus
of workspace files under .bench_build/, runs each item through
purcat.cli.main in a fresh forked process (one client, closed loop),
checks every answer against the outcome known from how the item was
built, prints every metric by name and unit, and ends with one JSON
line.  --trace 1 reports the per-layer metrics instead; see README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import items
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build")

# fresh interpreters started per run to time set-up, spread evenly over
# the run so their median sees the same machine as the items; the median
# is reported
SETUP_REPEATS = 11

# An untraced run passes over its corpus again and again until --seconds
# have passed (the first pass always completes).  Every timing is scaled
# to reference speed (calibrate.py), and an item's time is the median of
# its scaled times over the passes.  A traced run makes one pass over the
# same corpus.
#
# Corpus rounds per second of --seconds, per workload (a round is one item
# of each kind).  On a quiet 2-core 2.1 GHz VM a run makes about three
# passes over the probes and certify corpora and two over the adjunction
# corpus, whose tail percentile needs more distinct items to settle.
CORPUS_ROUNDS_PER_S = {"probes": 0.41, "certify": 0.45, "adjunction": 0.6}

# a program slow enough to need longer than this for its first pass is
# reported on the items done so far, so a run ends in time
MAX_RUN_S = 120

END_TO_END = (  # name, unit, gated in BENCHMARK.json and the final JSON line
    ("setup_s", "s", True),
    ("items_per_s", "1/s", True),
    ("item_p50_s", "s", True),
    ("item_tail_s", "s", True),
    ("peak_rss_mb", "MB", True),
    ("report_kb", "kB", True),
    ("recheck_s", "s", False),
    ("failed_frac", "ratio", False),
)


def time_setup() -> float:
    """Time from a fresh interpreter until purcat.cli is imported."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import purcat.cli"],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return time.perf_counter() - start


def generate(workload: str, seed: int, rounds: int, directory: str) -> list:
    """Write the corpus from a forked child, so this process stays cold."""
    manifest_path = os.path.join(directory, "manifest.json")
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            import workloads
            manifest = workloads.write_corpus(workload, seed, rounds, directory)
            with open(manifest_path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
            raise
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit("corpus generation failed")
    with open(manifest_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(count: int) -> int:
    """Highest of the usual percentiles with at least ten items beyond it."""
    for q in (99, 95, 90, 75, 50):
        if count * (100 - q) >= 1000:
            return q
    return 50


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Closed loop over one workload's corpus; collects outcomes."""

    def __init__(self, workload: str, manifest: list, seconds: float, trace: bool):
        self.workload = workload
        self.manifest = manifest
        self.seconds = seconds
        self.trace = trace
        self.passes = 0       # passes begun over the corpus
        self.items = []       # (entry, outcome, recheck outcome, problems)
        self.untraced = []    # traced runs: untraced wall of the same items
        self.refs = []        # untraced runs: reference time after each item
        self.setup = []       # untraced runs: (set-up time, index into refs)
        self.metrics = None   # end_to_end() or per_layer() once the run is over
        self.raw = None       # untraced runs: end_to_end() without scaling

    def one(self, entry: dict, n: int) -> None:
        base = os.path.join(os.path.dirname(entry["file"]), f"p{n}-{entry['id']}")
        argv = [entry["command"], "--json", entry["file"]]
        if self.trace:
            self.untraced.append(items.run_item(argv, base + ".plain.json").wall_s)
        ran = items.run_item(argv, base + ".json", trace_id=entry["id"] if self.trace else None)
        recheck = None
        if entry["expect"].get("validate") and not ran.timed_out:
            recheck = items.run_item(["validate-cert", "--json", ran.report_path],
                                     base + ".validate.json",
                                     trace_id=entry["id"] if self.trace else None)
        problems = items.check(entry["expect"], ran, recheck)
        self.items.append((entry, ran, recheck, problems))
        if not self.trace:
            self.refs.append(calibrate.run_reference())

    def schedule(self):
        """(pass, item) pairs: one pass when traced, passes without end otherwise."""
        for n in [0] if self.trace else itertools.count():
            for entry in self.manifest:
                yield n, entry

    def go(self) -> None:
        """Run items until --seconds have passed, the first pass always in
        full; an untraced run also times set-up at even steps of the run."""
        start = time.perf_counter()
        if not self.trace:
            time_setup()  # writes the bytecode caches
        for n, entry in self.schedule():
            elapsed = time.perf_counter() - start
            if n and elapsed >= self.seconds or elapsed >= MAX_RUN_S:
                break
            if not self.trace and elapsed >= len(self.setup) * self.seconds / SETUP_REPEATS:
                self.setup.append((time_setup(), len(self.refs)))
            self.passes = n + 1
            self.one(entry, n)
        while not self.trace and len(self.setup) < SETUP_REPEATS:
            self.setup.append((time_setup(), len(self.refs)))

    # -- metrics ---------------------------------------------------------

    def item_times(self, scaled: bool = True) -> tuple:
        """Per corpus item id, the median over the passes of the item's time
        and of its recheck's, scaled to reference speed unless told not to."""
        walls, rechecks = {}, {}
        for k, (entry, ran, recheck, _) in enumerate(self.items):
            factor = calibrate.scale(self.refs, k) if scaled else 1.0
            walls.setdefault(entry["id"], []).append(ran.wall_s * factor)
            if recheck is not None:
                rechecks.setdefault(entry["id"], []).append(recheck.wall_s * factor)
        return ({key: statistics.median(v) for key, v in walls.items()},
                {key: statistics.median(v) for key, v in rechecks.items()})

    def end_to_end(self, scaled: bool = True) -> tuple:
        walls, rechecks = (list(d.values()) for d in self.item_times(scaled))
        setup = [t * (calibrate.scale(self.refs, at) if scaled else 1.0)
                 for t, at in self.setup]
        first = self.items[:len(self.manifest)]
        rss = [ran.rss_kb for _, ran, _, _ in self.items]
        rss += [r.rss_kb for _, _, r, _ in self.items if r is not None]
        q = tail_percentile(len(walls))
        failed = sum(1 for *_, problems in self.items if problems)
        return {
            "setup_s": statistics.median(setup),
            "items_per_s": len(walls) / sum(walls),
            "item_p50_s": statistics.median(walls),
            "item_tail_s": percentile(walls, q),
            "peak_rss_mb": percentile(rss, tail_percentile(len(rss))) / 1024,
            "report_kb": sum(os.path.getsize(r.report_path) for _, r, _, _ in first) / 1000,
            "recheck_s": sum(rechecks),
            "failed_frac": failed / len(self.items),
        }, q

    def per_layer(self) -> dict:
        totals: dict = {}
        for _, ran, recheck, _ in self.items:
            for out in (ran, recheck):
                if out is None or not out.summary:
                    continue
                for name, row in out.summary["layers"].items():
                    acc = totals.setdefault(name, {})
                    for key, value in row.items():
                        if key.startswith("max_"):
                            acc[key] = max(acc.get(key, 0), value)
                        else:
                            acc[key] = acc.get(key, 0) + value
        table = spans.layer_table(totals)
        traced = sum(ran.wall_s for _, ran, _, _ in self.items)
        untraced = sum(self.untraced)
        table["trace.wall_s"] = (traced, "s")
        table["trace.untraced_wall_s"] = (untraced, "s")
        table["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
        return table

    def failures(self) -> list:
        return [(entry["id"], problems) for entry, _, _, problems in self.items if problems]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    rounds = max(1, round(CORPUS_ROUNDS_PER_S[workload] * seconds))
    directory = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    try:
        run = Run(workload, generate(workload, seed, rounds, directory), seconds, trace)
        run.go()
        # report sizes are read here, before the corpus directory goes
        run.metrics = run.per_layer() if trace else run.end_to_end()
        run.raw = None if trace else run.end_to_end(scaled=False)[0]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return run


def print_report(run: Run) -> None:
    import workloads
    count = len(run.items)
    print(f"== {run.workload}: {workloads.WORKLOADS[run.workload][0]}")
    print(f"   {count} items run in {run.passes} passes over a {len(run.manifest)}-item corpus")
    best = run.item_times(scaled=not run.trace)[0]
    slowest = sorted(best, key=lambda k: -best[k])[:5]
    print("   slowest: " + ", ".join(f"{k} {best[k]:.3f}s" for k in slowest))
    for item_id, problems in run.failures():
        print(f"   FAILED {item_id}: {'; '.join(problems)}")
    if run.trace:
        ranked = sorted((k for k in run.metrics if k.endswith(".self_s")),
                        key=lambda k: -run.metrics[k][0])
        print("   top layers by self time:")
        for key in ranked[:8]:
            print(f"     {key:<48} {run.metrics[key][0]:.4f} s")
        for key in sorted(run.metrics):
            if key.endswith(".incl_frac") or key.startswith("trace."):
                print(f"   {key:<50} {run.metrics[key][0]:.4f} {run.metrics[key][1]}")
        return
    e2e, q = run.metrics
    n = len(best)
    refs = sorted(run.refs)
    print(f"   reference time median {statistics.median(refs):.4f} s, quartiles "
          f"{refs[len(refs) // 4]:.4f}-{refs[3 * len(refs) // 4]:.4f} s "
          f"({len(refs)} samples; {calibrate.REFERENCE_S} s is reference speed)")
    print(f"   an item's time is its median over the passes, scaled to reference speed; "
          f"item_tail_s is p{q} of {n} items ({n * (100 - q) // 100} beyond it)")
    print(f"   {'metric':<14} {'scaled':>14} {'raw':>14}")
    for name, unit, _ in END_TO_END:
        print(f"   {name:<14} {e2e[name]:>14.6f} {run.raw[name]:>14.6f} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="probes, certify, adjunction, or all (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "purcat", "cli.py")):
        print(f"error: no purcat sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import purcat.cli  # noqa: F401  the state every item is forked from
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    summary = {}
    for workload in names:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_report(run)
        if args.trace:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()}
        else:
            metrics = {name: {"value": run.metrics[0][name], "unit": unit}
                       for name, unit, gated in END_TO_END if gated}
        failed = len(run.failures())
        summary[workload] = {"correct": failed == 0, "attempted": len(run.items),
                             "failed": failed, "metrics": metrics}
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
