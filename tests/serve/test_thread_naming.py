"""The ``repro-`` thread-naming convention, enforced two ways.

Statically: every ``threading.Thread(...)`` construction and every
``thread_name_prefix=`` in ``src/`` must carry a ``repro-`` name, so
operators (and the soak sentinels) can attribute any thread in a dump
to this package.  Dynamically: a live gateway serving real jobs must
not leave any non-``repro-`` thread running.
"""

import re
import threading
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _call_window(text: str, start: int, width: int = 400) -> str:
    return text[start:start + width]


class TestStaticConvention:
    def test_every_thread_construction_is_named_repro(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text()
            for match in re.finditer(r"threading\.Thread\(", text):
                window = _call_window(text, match.start())
                if "name=" not in window or "repro-" not in window:
                    line = text[:match.start()].count("\n") + 1
                    offenders.append(f"{path.name}:{line}")
        assert not offenders, (
            "threading.Thread without a repro- name at: "
            + ", ".join(offenders)
        )

    def test_every_pool_prefix_is_repro(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text()
            for match in re.finditer(r"thread_name_prefix\s*=", text):
                window = _call_window(text, match.start(), 120)
                if "repro-" not in window:
                    line = text[:match.start()].count("\n") + 1
                    offenders.append(f"{path.name}:{line}")
        assert not offenders, (
            "thread pool without a repro- prefix at: "
            + ", ".join(offenders)
        )


class TestLiveConvention:
    def test_gateway_spawns_only_repro_threads(self):
        from repro.config import RuntimeConfig
        from repro.serve.gateway import ServeGateway, build_serve_model
        from repro.serve.loadgen import _Client

        baseline = {id(t) for t in threading.enumerate()}
        model, decimals, input_shape = build_serve_model("tiny")
        config = RuntimeConfig(key_size=128, seed=41)
        rng = np.random.default_rng(41)
        with ServeGateway(model, decimals, config) as gateway:
            host, port = gateway.address
            client = _Client(f"http://{host}:{port}")
            status, body, _ = client.post("/v1/infer", {
                "tenant": "naming",
                "input": rng.uniform(0, 1, input_shape).tolist(),
            })
            assert status == 202
            deadline = time.monotonic() + 30.0
            while (not gateway.manager.tracker.all_terminal()
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert gateway.manager.tracker.all_terminal()
            # Every thread this stack spawned must carry the prefix.
            # HTTP connection threads rename themselves on the first
            # request and exit after it (Connection: close), so give
            # any in-teardown stragglers a moment to drain.
            grace = time.monotonic() + 2.0
            while time.monotonic() < grace:
                rogue = [
                    t for t in threading.enumerate()
                    if id(t) not in baseline
                    and not t.name.startswith("repro-")
                ]
                if not rogue:
                    break
                time.sleep(0.05)
            assert not rogue, [t.name for t in rogue]
