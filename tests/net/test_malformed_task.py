"""A task whose header the worker cannot parse is answered, not fatal.

The worker reads ``request_id`` before it runs a task.  A value that
is not an integer must come back as a permanent error envelope on the
same connection, which then serves the next, valid task: closing the
connection instead would make the coordinator read a dead worker.
"""

import numpy as np

from repro.net import WorkerServer, build_worker_spec
from repro.net.transport import (
    KIND_ERROR,
    KIND_HELLO,
    KIND_RESULT,
    KIND_WELCOME,
    Envelope,
    dial,
)
from repro.net.wire import CLASS_PERMANENT, ROLE_MODEL, task_envelope
from repro.planner.plan import ClusterSpec
from repro.stream.executors import StreamItem


def test_bad_request_id_gets_an_error_and_the_connection_serves_on(
        make_providers, make_plan, worker_farm):
    plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
    model_provider, data_provider = make_providers()
    model_provider.register_public_key(data_provider.public_key)
    _, addresses = worker_farm(WorkerServer())
    host, port = addresses[0]
    spec = build_worker_spec(model_provider, data_provider, plan,
                             ROLE_MODEL)
    x = np.random.default_rng(5).uniform(0, 1, (1, 8, 8))
    task = task_envelope(
        StreamItem(request_id=0,
                   tensor=data_provider.encrypt_input(x)),
        stage_index=0,
    )
    connection = dial(host, port)
    try:
        assert connection.request(Envelope(KIND_HELLO, spec),
                                  timeout=5).kind == KIND_WELCOME
        connection.set_socket_timeout(None)
        bad = Envelope(task.kind, dict(task.header, request_id="x"),
                       task.payload)
        reply = connection.request(bad, timeout=30)
        assert reply.kind == KIND_ERROR
        assert reply.header["classification"] == CLASS_PERMANENT
        assert reply.header["request_id"] == -1
        assert "malformed task header" in reply.header["message"]
        reply = connection.request(task, timeout=30)
        assert reply.kind == KIND_RESULT
        assert reply.header["request_id"] == 0
    finally:
        connection.close()
