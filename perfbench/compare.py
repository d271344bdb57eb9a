"""Compare two perfbench result sets against BENCHMARK.json's bounds.

    python3 perfbench/compare.py A.json B.json

A result set is what ``run.py --out FILE`` accumulates: several runs
per workload, ideally ten with different ``--seed``.  A is the base
(the parent commit), B the candidate.  For every (end-to-end metric,
workload) pair this prints both medians, B ÷ A, each set's spread (the
distance between its quartiles as a share of its median) and a verdict:

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``regressed``  — it is worse by more than the bound;
* ``unresolved`` — a set's spread is wider than the bound (``setup_s``
  is exempt: its spread is reported but only its medians are judged),
  or the metric looks regressed but the machine itself ran slower
  during B: each run records how long a fixed big-int loop took just
  before and after it, and when the sets' medians of that differ by
  more than half the bound the two sets were not measured on the same
  machine speed.

Per-layer metrics from ``--trace 1`` runs are listed with their ratio
and no verdict; the counts that must repeat exactly are marked
``identical`` or ``DIFFERS`` when both sets used the same seeds.
Exits 1 on any regression or failed op in B, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys

from harness import load_benchmark

#: Per-layer counts that depend on the inputs alone: two runs of one
#: commit with one seed must agree on them to the last digit.
EXACT_PREFIXES = ("crypto.engine.pool_", "crypto.engine.blinding_factors",
                  "crypto.engine.compress_", "crypto.engine.packed_",
                  "crypto.engine.power_cache_entries",
                  "crypto.engine.dispatch_chunks", "net.bytes_",
                  "protocol.session.transcript_bytes_per_sample")


def load_runs(path: str) -> list[dict]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def values(runs: list[dict], workload: str, trace: int,
           name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs
            if run["workload"] == workload and run["trace"] == trace
            and name in run["metrics"]]


def spread(sample: list[float]) -> float | None:
    """Interquartile distance over the median; None below four runs."""
    if len(sample) < 4:
        return None
    first, _second, third = statistics.quantiles(sample, n=4)
    middle = statistics.median(sample)
    return (third - first) / abs(middle) if middle else None


def worsening(base: float, new: float, better: str) -> float:
    """Share of the base by which ``new`` is worse (negative: better)."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def machine_slowdown(a_runs: list[dict], b_runs: list[dict],
                     workload: str) -> float:
    """Share by which the fixed big-int loop ran slower during B's
    runs of ``workload`` than during A's (0 when not recorded)."""
    def canary(runs):
        return [run["env"]["machine_canary_ms"] for run in runs
                if run["workload"] == workload and run["trace"] == 0
                and "machine_canary_ms" in run.get("env", {})]
    a, b = canary(a_runs), canary(b_runs)
    if not a or not b:
        return 0.0
    return statistics.median(b) / statistics.median(a) - 1.0


def verdict(a: list[float], b: list[float], spec: dict,
            slowdown: float = 0.0) -> tuple[str, float]:
    worse = worsening(statistics.median(a), statistics.median(b),
                      spec["better"])
    if spec["name"] != "setup_s" and any(
            s is not None and s > spec["bound"]
            for s in (spread(a), spread(b))):
        return "unresolved", worse
    if worse <= spec["bound"]:
        return "ok", worse
    # Memory does not depend on how fast the machine runs.
    if spec["unit"] != "MB" and slowdown > spec["bound"] / 2.0:
        return "unresolved", worse
    return "regressed", worse


def _share(value: float | None) -> str:
    return "   n<4" if value is None else f"{value:6.1%}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    benchmark = load_benchmark()
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    bad = 0
    print(f"{'workload':16s} {'metric':18s} {'A median':>12s} "
          f"{'B median':>12s} {'B/A':>7s} {'spreadA':>7s} {'spreadB':>7s} "
          f"{'bound':>6s}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        slowdown = machine_slowdown(a_runs, b_runs, workload)
        if slowdown:
            print(f"{workload:16s} fixed big-int loop during B vs A: "
                  f"{1 + slowdown:.3f}x")
        for spec in benchmark["end_to_end"]:
            a = values(a_runs, workload, 0, spec["name"])
            b = values(b_runs, workload, 0, spec["name"])
            if not a or not b:
                continue
            word, _worse = verdict(a, b, spec, slowdown)
            bad += word == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:16s} {spec['name']:18s} {med_a:12.5g} "
                  f"{med_b:12.5g} {med_b / med_a:7.3f} "
                  f"{_share(spread(a))} {_share(spread(b))} "
                  f"{spec['bound']:6.0%}  {word} "
                  f"(n={len(a)}/{len(b)}, {spec['unit']}, "
                  f"{spec['better']} is better)")
        failed = sum(run["failed"] for run in b_runs
                     if run["workload"] == workload)
        attempted = sum(run["attempted"] for run in b_runs
                        if run["workload"] == workload)
        if attempted:
            print(f"{workload:16s} failed ops in B: {failed} of "
                  f"{attempted}" + ("  <- REGRESSED" if failed else ""))
            bad += bool(failed)

    def seeds(runs, workload):
        return sorted(run["seed"] for run in runs
                      if run["workload"] == workload and run["trace"] == 1)

    for workload in (w["name"] for w in benchmark["workloads"]):
        same_seeds = seeds(a_runs, workload) == seeds(b_runs, workload)
        for spec in benchmark["per_layer"]:
            a = values(a_runs, workload, 1, spec["name"])
            b = values(b_runs, workload, 1, spec["name"])
            if not a or not b or not (any(a) or any(b)):
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = f"{med_b / med_a:7.3f}" if med_a else "    n/a"
            note = ""
            if same_seeds and spec["name"].startswith(EXACT_PREFIXES):
                note = "identical" if sorted(a) == sorted(b) else "DIFFERS"
            print(f"{workload:16s} {spec['name']:46s} {med_a:12.5g} "
                  f"{med_b:12.5g} {ratio}  {spec['unit']} {note}")
    print("regressions:", bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
