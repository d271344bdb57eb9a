"""perfbench: the repo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload of ``BENCHMARK.json``, checks every output against
PlainBase (and the first eight against an in-process
``InferenceSession.run``, bit for bit), prints every metric by name
with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 164, "failed": 0, "metrics": {...}}

``--trace 0`` gives the end-to-end metrics, measured with tracing and
observability off.  ``--trace 1`` is a separate, shorter run that gives
the per-layer metrics and writes ``perfbench/out/trace-<workload>.json``.
Without ``--workload`` every workload runs in turn.  ``--out FILE``
appends the run to a result set that ``compare.py`` reads; ``--smoke``
is a quick self-check (128-bit keys, six ops).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from statistics import median

import harness
from harness import (
    OUT_DIR,
    Op,
    SpanLog,
    TooFewSamples,
    load_benchmark,
    percentile,
    score_ops,
)

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed inputs that must also equal ``InferenceSession.run`` exactly.
TWIN_CHECKED = 8
SMOKE_OPS = 6
SMOKE_SECONDS = 5.0


def check_twin(workload, inputs, ops: list[Op]) -> None:
    """Fail ops whose output differs in any bit from an in-process
    ``InferenceSession.run`` on the same input (first inputs only)."""
    import numpy as np

    by_input = {op.first_input + offset: (op, probabilities)
                for op in ops if op.error is None
                for offset, (_p, probabilities) in enumerate(op.outputs)}
    twins: dict = {}
    first = inputs.first_timed
    for index in range(first, first + TWIN_CHECKED):
        if index not in by_input:
            continue
        op, probabilities = by_input[index]
        if op.tag not in twins:
            twins[op.tag] = workload.twin(op.tag)
        want = twins[op.tag].run(inputs.take(index, 1)[0]).probabilities
        if not np.array_equal(probabilities, want):
            op.error = (f"output for input {index} is not bit-identical "
                        "to InferenceSession.run")


def end_to_end(workload, seed: int, seconds: float, smoke: bool) -> dict:
    inputs = workload.inputs(seed)
    inputs.take(0, workload.warmup_inputs)   # generation is not set-up
    setup_s = []
    repeats = 1 if smoke else SETUP_REPEATS
    for repeat in range(repeats):
        begin = time.perf_counter()
        state = workload.setup(inputs)
        setup_s.append(time.perf_counter() - begin)
        if repeat < repeats - 1:
            workload.teardown(state)
    try:
        pids = [os.getpid(), *workload.pids(state).values()]

        def cpu():
            return harness.self_cpu_seconds() + sum(
                harness.cpu_seconds(pid) for pid in pids[1:])

        cpu_before = cpu()
        ops, wall = workload.window(
            state, inputs, SMOKE_SECONDS if smoke else seconds,
            SMOKE_OPS if smoke else sys.maxsize)
        cpu_s = cpu() - cpu_before
        rss_mb = max(harness.peak_rss_mb(pid) for pid in pids)
    finally:
        workload.teardown(state)

    check_twin(workload, inputs, ops)
    failures = score_ops(ops, inputs.reference)
    good = [op for op in ops if op.error is None]
    if not good:
        raise RuntimeError(f"no op succeeded: {failures[:3]}")
    latencies = [op.latency_s * 1000.0 for op in good]
    thin = []

    def gated(q):
        try:
            return percentile(latencies, q)
        except TooFewSamples as exc:
            thin.append(str(exc))
            return percentile(latencies, q, min_beyond=0)

    samples = len(good) * workload.samples_per_op
    return {
        "attempted": len(ops),
        "failures": failures,
        "thin": thin,
        "samples": samples,
        "values": {
            "latency_ms_p50": gated(50),
            "latency_ms_p90": gated(90),
            "throughput_per_s": samples / wall,
            "setup_s": median(setup_s),
            "cpu_s_per_sample": cpu_s / samples,
            "peak_rss_mb": rss_mb,
        },
    }


def traced(workload, seed: int, names: list[str]) -> dict:
    inputs = workload.inputs(seed)
    spans = SpanLog()
    result = workload.trace(inputs, spans)
    ops = [Op(first_input=first, outputs=outputs)
           for first, outputs in result["outputs"]]
    failures = score_ops(ops, inputs.reference)
    unknown = sorted(set(result["metrics"]) - set(names))
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
    # A layer this workload never enters reports zero.
    values = dict.fromkeys(names, 0.0)
    values.update(result["metrics"])
    spans.dump(OUT_DIR / f"trace-{workload.name}.json",
               {"workload": workload.name, "seed": seed,
                "clock": "perf_counter seconds"})
    return {"attempted": len(ops), "failures": failures, "thin": [],
            "samples": len(ops) * workload.samples_per_op,
            "values": values}


def run_one(name: str, args, benchmark: dict) -> None:
    from repro.crypto.backend import HAVE_GMPY2, resolve_backend
    from workloads import POLL_S, WORKLOADS

    env = harness.environment(resolve_backend("auto").name, HAVE_GMPY2)
    workload = WORKLOADS[name](smoke=args.smoke)
    units = {m["name"]: m["unit"] for m in
             benchmark["per_layer" if args.trace else "end_to_end"]}
    print(f"== {name}  seed={args.seed} trace={args.trace} "
          f"key={workload.key_bits}-bit  closed loop"
          + (f"  poll quantum {POLL_S * 1000:g} ms"
             if name == "serve_window" else ""))
    if env["noisy"]:
        print(f"   NOISY: 1-min load {env['loadavg_1min']:.2f} exceeds "
              f"half of nproc={env['nproc']}")
    canary_ms = [harness.machine_canary_ms()]
    if args.trace:
        result = traced(workload, args.seed, list(units))
    else:
        result = end_to_end(workload, args.seed, args.seconds, args.smoke)
    canary_ms.append(harness.machine_canary_ms())
    env["machine_canary_ms"] = sum(canary_ms) / 2.0
    for text in result["thin"]:
        print(f"   NOISY: {text}")
        env["noisy"] = True
    for text in result["failures"][:5]:
        print(f"   FAILED: {text}")
    for metric_name, value in result["values"].items():
        print(f"   {metric_name:48s} {value:14.6g} {units[metric_name]}")
    failed = len(result["failures"])
    print(f"   ops attempted {result['attempted']}, failed {failed}, "
          f"samples {result['samples']}")
    doc = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in result["values"].items()},
    }
    if args.out:
        append_run(Path(args.out), dict(
            doc, workload=name, seed=args.seed, trace=args.trace,
            seconds=args.seconds, smoke=args.smoke, env=env,
            samples=result["samples"]))
    print(json.dumps(doc))


def append_run(path: Path, run: dict) -> None:
    runs = []
    if path.exists():
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    runs.append(run)
    with open(path, "w") as handle:
        json.dump({"schema": "perfbench/1", "runs": runs}, handle,
                  indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the generated inputs only")
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="128-bit keys, six ops per workload")
    parser.add_argument("--out", default=None,
                        help="append this run to a result-set file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(harness.SRC))
    try:
        import repro  # noqa: F401 - the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from "
              f"{harness.SRC}: {exc}", file=sys.stderr)
        return 2
    try:
        for name in ([args.workload] if args.workload else names):
            run_one(name, args, benchmark)
    finally:
        harness.reap_all()
    # The JSON line carries correctness; the exit code says a result
    # was produced.
    return 0


if __name__ == "__main__":
    sys.exit(main())
