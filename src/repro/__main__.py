"""Top-level CLI: ``python -m repro <command>``.

Commands:

* ``demo [--model KEY] [--samples N]`` — train a Table III model and
  run collaborative encrypted inference on held-out samples, printing
  predictions, agreement with plaintext, and transcript statistics.
* ``stream [--faults SPEC] [--retries N] [--deadline S] ...`` — run
  the threaded stream runtime over a request stream, optionally under
  an injected fault plan (docs/FAULT_TOLERANCE.md), printing the
  utilization and failure reports.
* ``metrics [--workload session|stream] [--format json|prometheus]
  [--traces]`` — run a small workload with observability enabled
  (docs/OBSERVABILITY.md) and dump the metrics registry, optionally
  followed by the reconstructed span trees.
* ``worker --listen HOST:PORT [--join HOST:PORT --role R]`` — run one
  remote stage worker serving framed TCP (docs/DISTRIBUTED.md);
  prints ``worker listening on HOST:PORT`` once bound (port 0 picks a
  free port).  ``--join`` additionally registers the worker with a
  running elastic coordinator's membership listener mid-stream
  (docs/ELASTIC.md), printing ``joined fleet as server ID (epoch
  E)``.
* ``serve --workers N [--verify] [--kill-one]`` — spawn N local worker
  processes, deploy a plan across them, and stream encrypted inference
  over localhost TCP; ``--verify`` checks the results are bit-identical
  to the in-process pipeline, ``--kill-one`` kills a worker mid-stream
  to exercise failover.
* ``serve-http [--listen HOST:PORT] [--mode local|fleet] ...`` — run
  the multi-tenant serving gateway (docs/SERVING.md): an async HTTP
  front door with admission control, per-job state tracking, and
  per-tenant Paillier keypairs over one shared worker fleet; prints
  ``gateway listening on HOST:PORT`` once bound.
* ``loadgen [--tenants N] [--requests R] [--url URL] ...`` — drive N
  concurrent tenants against a gateway (self-hosted unless ``--url``)
  and write ``BENCH_serve.json``: req/s, latency percentiles, exact
  shed/terminal accounting, and cross-tenant decrypt probes.
* ``soak [--duration S] [--seed N] [--scenarios LIST] [--out PATH]``
  — run the heavy-traffic soak harness (docs/SOAK.md): mixed
  single/packed/faulted/chaos/kill/serve/elastic workloads with leak
  sentinels,
  writing ``BENCH_soak.json``; exits non-zero on any leaked
  thread/fd, RSS growth over tolerance, output drift, or unexpected
  dead letter.
* ``summary`` — print the package's subsystem inventory.
* ``experiments ...`` — forwarded to ``repro.experiments`` (all the
  paper's tables and figures).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_demo(args: argparse.Namespace) -> int:
    from .config import RuntimeConfig
    from .experiments.common import prepare_model
    from .protocol import DataProvider, InferenceSession, ModelProvider

    prepared = prepare_model(args.model)
    print(f"model {args.model}: trained to "
          f"{prepared.train_accuracy:.1%} on the synthetic stand-in, "
          f"scaling factor 10^{prepared.decimals}")
    config = RuntimeConfig(key_size=args.key_size)
    session = InferenceSession(
        ModelProvider(prepared.model, decimals=prepared.decimals,
                      config=config),
        DataProvider(value_decimals=prepared.decimals, config=config),
    )
    dataset = prepared.dataset
    agree = 0
    for index in range(args.samples):
        sample = dataset.test_x[index]
        outcome = session.run(sample)
        plain = int(prepared.model.predict(sample[None])[0])
        agree += outcome.prediction == plain
        print(f"  sample {index}: encrypted={outcome.prediction} "
              f"plain={plain} true={dataset.test_y[index]} "
              f"({outcome.wall_time:.2f}s, "
              f"{outcome.transcript.total_elements} ciphertexts)")
    print(f"encrypted/plaintext agreement: {agree}/{args.samples}; "
          "wire carried ciphertexts only: "
          f"{outcome.transcript.all_ciphertext()}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .config import RuntimeConfig
    from .experiments.common import prepare_model
    from .planner.allocation import allocate_even
    from .planner.plan import ClusterSpec
    from .protocol import DataProvider, ModelProvider
    from .stream import FaultPlan, Pipeline, RetryPolicy

    from .errors import StreamError

    try:
        fault_plan = (FaultPlan.parse(args.faults)
                      if args.faults else None)
        retry_policy = RetryPolicy(max_retries=args.retries,
                                   base_delay=args.backoff_base)
    except StreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prepared = prepare_model(args.model)
    config = RuntimeConfig(key_size=args.key_size)
    model_provider = ModelProvider(
        prepared.model, decimals=prepared.decimals, config=config
    )
    data_provider = DataProvider(
        value_decimals=prepared.decimals, config=config
    )
    cluster = ClusterSpec.homogeneous(1, 1, args.threads)
    plan = allocate_even(model_provider.stages, cluster).plan
    pipeline = Pipeline(
        model_provider, data_provider, plan,
        channel_capacity=args.channel_capacity,
        retry_policy=retry_policy,
        request_deadline=args.deadline,
        fault_plan=fault_plan,
        restart_budget=args.restart_budget,
    )
    if fault_plan:
        print(f"injected faults: {fault_plan.describe()}")
    inputs = list(prepared.dataset.test_x[:args.samples])
    try:
        stats = pipeline.run_stream(inputs)
    except StreamError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    print(stats.utilization_report())
    if not stats.dead_letters:
        print(stats.failure_report())
    return 1 if stats.dead_letters else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .config import RuntimeConfig
    from .errors import StreamError
    from .experiments.common import prepare_model
    from .observability import Observability
    from .protocol import DataProvider, InferenceSession, ModelProvider

    prepared = prepare_model(args.model)
    config = RuntimeConfig(
        key_size=args.key_size
    ).with_observability()
    # One shared Observability: both parties, the session/pipeline,
    # and every engine report into the same registry and tracer.
    obs = Observability(enabled=True)
    model_provider = ModelProvider(
        prepared.model, decimals=prepared.decimals, config=config,
        obs=obs,
    )
    data_provider = DataProvider(
        value_decimals=prepared.decimals, config=config, obs=obs
    )
    inputs = list(prepared.dataset.test_x[:args.samples])
    if args.workload == "stream":
        from .planner.allocation import allocate_even
        from .planner.plan import ClusterSpec
        from .stream import FaultPlan, Pipeline, RetryPolicy

        try:
            fault_plan = (FaultPlan.parse(args.faults)
                          if args.faults else None)
        except StreamError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cluster = ClusterSpec.homogeneous(1, 1, args.threads)
        plan = allocate_even(model_provider.stages, cluster).plan
        pipeline = Pipeline(
            model_provider, data_provider, plan,
            retry_policy=RetryPolicy(max_retries=3, base_delay=0.01),
            fault_plan=fault_plan,
            obs=obs,
        )
        try:
            pipeline.run_stream(inputs)
        except StreamError as exc:
            print(f"workload failed; metrics below are partial: {exc}",
                  file=sys.stderr)
    else:
        session = InferenceSession(model_provider, data_provider,
                                   obs=obs)
        for sample in inputs:
            session.run(sample)
    if args.format == "prometheus":
        output = obs.registry.to_prometheus()
    else:
        output = json.dumps(obs.registry.snapshot(), indent=2,
                            sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(output)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(output)
    if args.traces:
        for trace_id in obs.tracer.trace_ids():
            print(obs.tracer.render(trace_id))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .errors import ClusterMembershipError, TransportError
    from .net import WorkerServer

    try:
        host, _, port_text = args.listen.rpartition(":")
        server = WorkerServer(
            host or "127.0.0.1", int(port_text),
            max_frame_bytes=args.max_frame_bytes,
        )
    except (ValueError, OSError) as exc:
        print(f"error: cannot listen on {args.listen!r}: {exc}",
              file=sys.stderr)
        return 2
    host, port = server.address
    # The exact line the serve command (and any orchestrator) parses
    # to learn an ephemeral port.
    print(f"worker listening on {host}:{port}", flush=True)
    if args.join:
        # Register with a running elastic coordinator's membership
        # listener (docs/ELASTIC.md).  The accept loop must already be
        # serving — the coordinator dials back — so start it in the
        # background and idle on the main thread.
        import time

        try:
            join_host, _, join_port = args.join.rpartition(":")
            server.start()
            reply = server.join_fleet(
                join_host or "127.0.0.1", int(join_port),
                args.role, cores=args.cores,
            )
        except (ValueError, ClusterMembershipError,
                TransportError) as exc:
            print(f"error: cannot join fleet at {args.join!r}: {exc}",
                  file=sys.stderr)
            server.stop()
            return 1
        print(f"joined fleet as server {reply['server_id']} "
              f"(epoch {reply['epoch']})", flush=True)
        try:
            while server.running:
                time.sleep(0.5)
        except KeyboardInterrupt:
            server.stop()
        return 0
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    except TransportError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    return 0


def _spawn_local_worker(env: dict) -> tuple:
    """Start ``python -m repro worker`` on an ephemeral port; returns
    ``(process, (host, port))`` once the worker reports its address."""
    import subprocess

    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env,
    )
    line = process.stdout.readline()
    prefix = "worker listening on "
    if not line.startswith(prefix):
        process.kill()
        raise RuntimeError(
            f"worker failed to start (said {line!r})"
        )
    host, _, port_text = line[len(prefix):].strip().rpartition(":")
    return process, (host, int(port_text))


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from .config import RuntimeConfig
    from .errors import StreamError, TransportError
    from .experiments.common import prepare_model
    from .net import Coordinator
    from .planner.allocation import allocate_even
    from .planner.plan import ClusterSpec
    from .protocol import DataProvider, ModelProvider
    from .stream import RetryPolicy

    if args.workers < 2:
        print("error: --workers must be >= 2 (at least one model "
              "worker and one data worker)", file=sys.stderr)
        return 2
    prepared = prepare_model(args.model)
    config = RuntimeConfig(key_size=args.key_size)
    model_provider = ModelProvider(
        prepared.model, decimals=prepared.decimals, config=config
    )
    data_provider = DataProvider(
        value_decimals=prepared.decimals, config=config
    )
    model_workers = max(1, args.workers // 2)
    data_workers = args.workers - model_workers
    cluster = ClusterSpec.homogeneous(model_workers, data_workers,
                                      args.threads)
    plan = allocate_even(model_provider.stages, cluster).plan
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
            env.get("PYTHONPATH")) if path
    )
    processes, addresses = [], []
    try:
        for _ in range(args.workers):
            process, address = _spawn_local_worker(env)
            processes.append(process)
            addresses.append(address)
        print(f"spawned {args.workers} workers "
              f"({model_workers} model / {data_workers} data) on "
              + ", ".join(f"{h}:{p}" for h, p in addresses))
        inputs = list(prepared.dataset.test_x[:args.samples])
        coordinator = Coordinator(
            model_provider, data_provider, plan, addresses,
            retry_policy=RetryPolicy(max_retries=3, base_delay=0.05),
        )
        with coordinator:
            if args.kill_one:
                import threading

                victim = processes[-1]

                def _assassin():
                    import time

                    time.sleep(args.kill_delay)
                    victim.kill()

                threading.Thread(target=_assassin, daemon=True,
                                 name="repro-serve-assassin").start()
                print(f"will kill worker pid {victim.pid} after "
                      f"{args.kill_delay}s")
            try:
                stats = coordinator.run_stream(inputs)
            except StreamError as exc:
                print(f"fatal: {exc}", file=sys.stderr)
                return 1
            coordinator.close(shutdown_workers=True)
        print(stats.utilization_report())
        if stats.dead_letters:
            print(stats.failure_report())
        print(f"{len(stats.results)}/{len(inputs)} requests completed "
              f"over TCP in {stats.wall_time:.2f}s")
        if args.verify:
            from .stream import Pipeline

            reference = Pipeline(
                ModelProvider(prepared.model,
                              decimals=prepared.decimals,
                              config=config),
                DataProvider(value_decimals=prepared.decimals,
                             config=config),
                plan,
            ).run_stream(inputs)
            expected = {r.request_id: r.probabilities
                        for r in reference.results}
            mismatches = [
                r.request_id for r in stats.results
                if not np.array_equal(r.probabilities,
                                      expected[r.request_id])
            ]
            if mismatches:
                print(f"verify: MISMATCH on requests {mismatches}",
                      file=sys.stderr)
                return 1
            print(f"verify: all {len(stats.results)} distributed "
                  "results bit-identical to the in-process pipeline")
        if stats.dead_letters and not args.kill_one:
            return 1
        return 0
    except (TransportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=5)
            except Exception:
                process.kill()


def _cmd_serve_http(args: argparse.Namespace) -> int:
    import time

    from .config import RuntimeConfig
    from .errors import ReproError
    from .serve import ServeGateway, build_serve_model

    try:
        host, _, port_text = args.listen.rpartition(":")
        host = host or "127.0.0.1"
        port = int(port_text)
        model, decimals, _shape = build_serve_model(args.model)
        config = RuntimeConfig(
            key_size=args.key_size, seed=args.seed,
        ).with_serve(
            queue_capacity=args.queue_capacity,
            workers=args.job_workers,
            tenant_quota=args.tenant_quota,
            default_deadline=args.deadline,
            tenant_rps=args.tenant_rps,
        )
        if args.compress:
            config = config.with_compress(enabled=True)
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fleet = []
    gateway = None
    # One registry for the whole process, shared by the gateway and
    # any in-process fleet workers, so /metrics carries worker-side
    # series (per-tenant task counts, session rebuilds) too.
    from .observability import NULL_TRACER, Observability

    obs = Observability(enabled=True, tracer=NULL_TRACER)
    try:
        addresses = None
        if args.mode == "fleet":
            from .net import WorkerServer

            for _ in range(args.fleet_workers):
                fleet.append(WorkerServer(obs=obs))
            addresses = [server.start() for server in fleet]
            print(f"fleet: {len(fleet)} shared TCP workers on "
                  + ", ".join(f"{h}:{p}" for h, p in addresses))
        gateway = ServeGateway(
            model, decimals, config, mode=args.mode,
            worker_addresses=addresses, host=host, port=port,
            obs=obs,
        )
        bound_host, bound_port = gateway.start()
        # The exact line loadgen (and any orchestrator) parses to
        # learn an ephemeral port.
        print(f"gateway listening on {bound_host}:{bound_port}",
              flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gateway is not None:
            gateway.close()
        for server in fleet:
            server.stop()


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .serve import LoadgenOptions, run_loadgen
    from .serve.loadgen import render_report

    try:
        options = LoadgenOptions(
            tenants=args.tenants,
            requests=args.requests,
            mode=args.mode,
            fleet_workers=args.fleet_workers,
            key_size=args.key_size,
            seed=args.seed,
            deadline=args.deadline,
            queue_capacity=args.queue_capacity,
            serve_workers=args.job_workers,
            tenant_quota=args.tenant_quota,
            url=args.url,
            out=args.out,
            model=args.model,
            submit_retries=args.submit_retries,
            retry_after_cap=args.retry_after_cap,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_loadgen(options, progress=print)
    except ReproError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    print(render_report(report))
    if options.out:
        print(f"wrote {options.out}")
    violations = report.get("cross_tenant_decrypts") or 0
    return 0 if report["accounting_ok"] and violations == 0 else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .soak import SCENARIO_NAMES, SoakOptions, run_soak

    try:
        scenarios = (tuple(
            part for part in args.scenarios.split(",") if part
        ) if args.scenarios else SCENARIO_NAMES)
        options = SoakOptions(
            duration=args.duration,
            seed=args.seed,
            out=args.out,
            scenarios=scenarios,
            rss_tolerance_mb=args.rss_tolerance_mb,
            key_size=args.key_size,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_soak(options, progress=print)
    print(report.render())
    if options.out:
        print(f"wrote {options.out}")
    return 0 if report.ok else 1


def _cmd_summary(_: argparse.Namespace) -> int:
    from . import __doc__ as package_doc

    print(package_doc)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "experiments":
        from .experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])

    parser = argparse.ArgumentParser(prog="python -m repro")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="run collaborative encrypted inference"
    )
    demo.add_argument("--model", default="breast",
                      help="Table III model key (default: breast)")
    demo.add_argument("--samples", type=int, default=5)
    demo.add_argument("--key-size", type=int, default=256,
                      dest="key_size")
    demo.set_defaults(func=_cmd_demo)

    stream = subparsers.add_parser(
        "stream",
        help="run the threaded stream runtime, optionally under an "
             "injected fault plan",
    )
    stream.add_argument("--model", default="breast",
                        help="Table III model key (default: breast)")
    stream.add_argument("--samples", type=int, default=4)
    stream.add_argument("--key-size", type=int, default=256,
                        dest="key_size")
    stream.add_argument("--threads", type=int, default=2,
                        help="threads per stage server")
    stream.add_argument("--channel-capacity", type=int, default=8,
                        dest="channel_capacity")
    stream.add_argument(
        "--faults", default=None,
        help="fault plan, e.g. "
             "'transient:stage=0:request=1:count=2;"
             "permanent:stage=2:request=3' "
             "(kinds: transient, permanent, slow, stall, crash)",
    )
    stream.add_argument("--retries", type=int, default=3,
                        help="max retries per request per stage")
    stream.add_argument("--backoff-base", type=float, default=0.01,
                        dest="backoff_base",
                        help="first-retry backoff in seconds")
    stream.add_argument("--deadline", type=float, default=None,
                        help="per-request deadline in seconds")
    stream.add_argument("--restart-budget", type=int, default=2,
                        dest="restart_budget",
                        help="crashed-worker restarts per stage")
    stream.set_defaults(func=_cmd_stream)

    metrics = subparsers.add_parser(
        "metrics",
        help="run a workload with observability enabled and dump "
             "the metrics registry (and optionally the span trees)",
    )
    metrics.add_argument("--model", default="breast",
                         help="Table III model key (default: breast)")
    metrics.add_argument("--samples", type=int, default=3)
    metrics.add_argument("--key-size", type=int, default=256,
                         dest="key_size")
    metrics.add_argument("--workload", choices=("session", "stream"),
                         default="session",
                         help="sequential protocol session or the "
                              "threaded stream runtime")
    metrics.add_argument("--threads", type=int, default=2,
                         help="threads per stage server (stream)")
    metrics.add_argument("--faults", default=None,
                         help="fault plan for the stream workload "
                              "(same syntax as 'stream --faults')")
    metrics.add_argument("--format", choices=("json", "prometheus"),
                         default="json")
    metrics.add_argument("--out", default=None,
                         help="write the dump here instead of stdout")
    metrics.add_argument("--traces", action="store_true",
                         help="also print every reconstructed span "
                              "tree")
    metrics.set_defaults(func=_cmd_metrics)

    worker = subparsers.add_parser(
        "worker",
        help="run one remote stage worker serving framed TCP "
             "(docs/DISTRIBUTED.md)",
    )
    worker.add_argument("--listen", default="127.0.0.1:0",
                        help="HOST:PORT to bind (port 0 picks a free "
                             "port; default 127.0.0.1:0)")
    worker.add_argument("--max-frame-bytes", type=int,
                        default=64 * 1024 * 1024,
                        dest="max_frame_bytes",
                        help="transport frame ceiling in bytes")
    worker.add_argument("--join", default=None,
                        help="HOST:PORT of a running elastic "
                             "coordinator's membership listener to "
                             "register with (docs/ELASTIC.md)")
    worker.add_argument("--role", choices=("model", "data"),
                        default="model",
                        help="cluster role to join as (default: "
                             "model)")
    worker.add_argument("--cores", type=int, default=2,
                        help="advertised core count for the planner "
                             "(default: 2)")
    worker.set_defaults(func=_cmd_worker)

    serve = subparsers.add_parser(
        "serve",
        help="spawn N local workers and stream encrypted inference "
             "over localhost TCP",
    )
    serve.add_argument("--workers", type=int, default=2,
                       help="total worker processes, split between "
                            "model and data roles (default: 2)")
    serve.add_argument("--model", default="breast",
                       help="Table III model key (default: breast)")
    serve.add_argument("--samples", type=int, default=4)
    serve.add_argument("--key-size", type=int, default=256,
                       dest="key_size")
    serve.add_argument("--threads", type=int, default=2,
                       help="cores per worker in the cluster spec")
    serve.add_argument("--verify", action="store_true",
                       help="re-run in-process and require "
                            "bit-identical results")
    serve.add_argument("--kill-one", action="store_true",
                       dest="kill_one",
                       help="kill one worker mid-stream to exercise "
                            "heartbeat failover")
    serve.add_argument("--kill-delay", type=float, default=1.0,
                       dest="kill_delay",
                       help="seconds before --kill-one strikes")
    serve.set_defaults(func=_cmd_serve)

    serve_http = subparsers.add_parser(
        "serve-http",
        help="run the multi-tenant serving gateway: async HTTP front "
             "door, admission control, per-tenant keypairs "
             "(docs/SERVING.md)",
    )
    serve_http.add_argument("--listen", default="127.0.0.1:0",
                            help="HOST:PORT to bind (port 0 picks a "
                                 "free port; default 127.0.0.1:0)")
    serve_http.add_argument("--mode", choices=("local", "fleet"),
                            default="local",
                            help="run stages in-process (local) or on "
                                 "a shared TCP worker fleet")
    serve_http.add_argument("--fleet-workers", type=int, default=2,
                            dest="fleet_workers",
                            help="shared TCP workers in fleet mode "
                                 "(default: 2)")
    serve_http.add_argument("--model", default="tiny",
                            help="'tiny' (untrained conv, fast) or a "
                                 "Table III model key")
    serve_http.add_argument("--key-size", type=int, default=128,
                            dest="key_size")
    serve_http.add_argument("--seed", type=int, default=11,
                            help="master seed; per-tenant keypairs "
                                 "derive from it and the tenant name")
    serve_http.add_argument("--queue-capacity", type=int, default=32,
                            dest="queue_capacity",
                            help="bounded request queue depth before "
                                 "shedding (default: 32)")
    serve_http.add_argument("--job-workers", type=int, default=4,
                            dest="job_workers",
                            help="job-worker threads draining the "
                                 "queue (default: 4)")
    serve_http.add_argument("--tenant-quota", type=int, default=8,
                            dest="tenant_quota",
                            help="per-tenant in-flight job ceiling "
                                 "(default: 8)")
    serve_http.add_argument("--deadline", type=float, default=30.0,
                            help="default end-to-end job deadline in "
                                 "seconds (0 disables; default: 30)")
    serve_http.add_argument("--tenant-rps", type=int, default=0,
                            dest="tenant_rps",
                            help="per-tenant requests-per-second "
                                 "ceiling; over-limit submits get "
                                 "429 + Retry-After (0 disables; "
                                 "default: 0)")
    serve_http.add_argument("--compress", action="store_true",
                            help="serve the pruned+clustered model "
                                 "(compress_* config defaults) "
                                 "instead of the dense one")
    serve_http.set_defaults(func=_cmd_serve_http)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive N concurrent tenants against a serving gateway "
             "and write BENCH_serve.json (docs/SERVING.md)",
    )
    loadgen.add_argument("--tenants", type=int, default=4,
                         help="concurrent tenants (default: 4)")
    loadgen.add_argument("--requests", type=int, default=6,
                         help="requests per tenant, submitted as a "
                              "burst (default: 6 — deliberately over "
                              "the default tenant quota)")
    loadgen.add_argument("--mode", choices=("local", "fleet"),
                         default="fleet",
                         help="self-hosted gateway flavour (default: "
                              "fleet — a shared 2-worker TCP fleet)")
    loadgen.add_argument("--fleet-workers", type=int, default=2,
                         dest="fleet_workers")
    loadgen.add_argument("--url", default=None,
                         help="drive an external gateway at this base "
                              "URL instead of self-hosting (skips the "
                              "key isolation probes)")
    loadgen.add_argument("--model", default="tiny")
    loadgen.add_argument("--key-size", type=int, default=128,
                         dest="key_size")
    loadgen.add_argument("--seed", type=int, default=11)
    loadgen.add_argument("--deadline", type=float, default=None,
                         help="per-request deadline in seconds")
    loadgen.add_argument("--queue-capacity", type=int, default=8,
                         dest="queue_capacity")
    loadgen.add_argument("--job-workers", type=int, default=2,
                         dest="job_workers")
    loadgen.add_argument("--tenant-quota", type=int, default=4,
                         dest="tenant_quota")
    loadgen.add_argument("--out", default="BENCH_serve.json",
                         help="report path (default: "
                              "BENCH_serve.json)")
    loadgen.add_argument("--submit-retries", type=int, default=2,
                         dest="submit_retries",
                         help="extra submit attempts after a 429/503 "
                              "carrying Retry-After (default: 2)")
    loadgen.add_argument("--retry-after-cap", type=float, default=2.0,
                         dest="retry_after_cap",
                         help="per-sleep bound in seconds on an "
                              "honored Retry-After (default: 2.0)")
    loadgen.set_defaults(func=_cmd_loadgen)

    soak = subparsers.add_parser(
        "soak",
        help="run the heavy-traffic soak harness with leak sentinels "
             "(docs/SOAK.md; writes BENCH_soak.json)",
    )
    soak.add_argument("--duration", type=float, default=20.0,
                      help="steady-state soak duration in seconds "
                           "(default: 20; warm-up and teardown are "
                           "extra)")
    soak.add_argument("--seed", type=int, default=7,
                      help="master seed for the schedule, fault plans "
                           "and chaos scripts (default: 7)")
    soak.add_argument("--scenarios", "--scenario", default=None,
                      help="comma-separated subset of "
                           "single,packed,faulted,chaos,kill,serve,"
                           "elastic (default: all)")
    soak.add_argument("--key-size", type=int, default=128,
                      dest="key_size",
                      help="Paillier key size for the non-packed "
                           "scenarios (default: 128; packed always "
                           "uses 256 for lane headroom)")
    soak.add_argument("--rss-tolerance-mb", type=float, default=64.0,
                      dest="rss_tolerance_mb",
                      help="steady-state RSS growth allowed before "
                           "the soak fails (default: 64)")
    soak.add_argument("--out", default="BENCH_soak.json",
                      help="report path (default: BENCH_soak.json)")
    soak.set_defaults(func=_cmd_soak)

    summary = subparsers.add_parser(
        "summary", help="print the subsystem inventory"
    )
    summary.set_defaults(func=_cmd_summary)

    subparsers.add_parser(
        "experiments",
        help="regenerate the paper's tables/figures "
             "(python -m repro experiments --help)",
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    np.seterr(all="ignore")
    sys.exit(main())
