"""Import guards: a process loads scipy only when the planner's ILP
solves.

Workers and gateways never run the ILP, so the serving path must not
pay scipy's import (about half a worker's start-up).  Each check runs in
a fresh interpreter, since this test process has usually loaded scipy
already through other tests.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
READY_TIMEOUT_S = 60.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path)
    return env


def _run_python(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True,
        text=True, timeout=READY_TIMEOUT_S, check=True)
    return result.stdout


def _imported_before_ready(args: list[str], ready: str,
                           tmp_path: Path) -> list[str]:
    """Start ``python -X importtime -m repro ARGS``, wait for the stdout
    line starting with ``ready`` and return the modules it imported
    up to then.  The process is killed and reaped in every case."""
    log = tmp_path / "importtime.log"
    with open(log, "w") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro", *args],
            stdout=subprocess.PIPE, stderr=stderr, env=_env())
    try:
        deadline = time.monotonic() + READY_TIMEOUT_S
        fd = process.stdout.fileno()
        said = b""
        while ready.encode() not in said:
            remaining = deadline - time.monotonic()
            assert remaining > 0 and select.select(
                [fd], [], [], remaining)[0], f"not ready: {said!r}"
            chunk = os.read(fd, 4096)
            assert chunk, f"exited {process.wait(timeout=10)} after {said!r}"
            said += chunk
        # -X importtime writes each line to the unbuffered stderr as
        # the import finishes, so the log is complete up to the ready
        # line once it has been printed.
        lines = log.read_text().splitlines()
    finally:
        process.kill()
        process.wait()
    return [line.rsplit("|", 1)[-1].strip() for line in lines
            if line.startswith("import time:")]


def test_serving_packages_leave_scipy_unloaded():
    loaded = _run_python(
        "import sys\n"
        "import repro.net, repro.serve, repro.stream, repro.protocol\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("args, ready", [
    (["worker", "--listen", "127.0.0.1:0"], "worker listening on "),
    (["serve-http", "--listen", "127.0.0.1:0", "--mode", "fleet",
      "--fleet-workers", "2", "--model", "tiny"], "gateway listening on "),
], ids=["worker", "serve-http"])
def test_entry_point_starts_without_scipy(args, ready, tmp_path):
    modules = _imported_before_ready(args, ready, tmp_path)
    assert "repro.net" in modules
    assert [name for name in modules
            if name.split(".")[0] == "scipy"] == []


def test_ilp_still_solves_from_a_fresh_interpreter():
    """The first solve imports scipy itself and returns the plan that
    tests/planner/test_profiling.py::TestPinnedProfile pins."""
    output = _run_python(
        "import json, sys\n"
        "from repro.config import RuntimeConfig\n"
        "from repro.costs import CostModel\n"
        "from repro.planner.allocation import allocate_load_balanced\n"
        "from repro.planner.plan import ClusterSpec\n"
        "from repro.planner.profiling import profile_primitive_times\n"
        "from repro.protocol import ModelProvider\n"
        "from repro.serve.gateway import build_serve_model\n"
        "model, decimals, _ = build_serve_model('tiny')\n"
        "provider = ModelProvider(model, decimals=decimals,\n"
        "                         config=RuntimeConfig(key_size=128))\n"
        "times = profile_primitive_times(\n"
        "    provider.stages, CostModel.reference(), decimals,\n"
        "    compression=provider.compression_stats())\n"
        "plan = allocate_load_balanced(\n"
        "    provider.stages, times, ClusterSpec.homogeneous(1, 1, 2)).plan\n"
        "print(json.dumps({'scipy': 'scipy' in sys.modules,\n"
        "                  'plan': [[a.stage_index, a.server_id, a.threads]\n"
        "                           for a in plan.assignments]}))\n"
    )
    report = json.loads(output)
    assert report["scipy"] is True
    assert report["plan"] == [[index, index % 2, 1] for index in range(8)]
