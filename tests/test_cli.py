"""Smoke tests for the command-line interfaces."""

import os
import sys
import threading

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as experiments_main


class TestTopLevelCli:
    def test_demo_runs(self, capsys):
        code = repro_main(["demo", "--model", "breast", "--samples",
                           "1", "--key-size", "128"])
        assert code == 0
        output = capsys.readouterr().out
        assert "agreement" in output
        assert "ciphertexts only: True" in output

    def test_stream_runs(self, capsys):
        """The default stream plan gives stages 0-1 two threads each;
        every request still completes."""
        code = repro_main(["stream", "--samples", "2", "--key-size",
                           "128"])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "no dead-lettered requests" in output

    def test_summary(self, capsys):
        assert repro_main(["summary"]) == 0
        assert "PP-Stream" in capsys.readouterr().out

    def test_experiments_forwarding(self, capsys):
        code = repro_main(["experiments", "exp5", "--fast"])
        assert code == 0
        assert "Table VI" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            repro_main(["launch-testbed"])


class TestNetCli:
    def test_worker_bad_listen(self, capsys):
        assert repro_main(["worker", "--listen",
                           "definitely:not:a:port"]) == 2
        assert "cannot listen" in capsys.readouterr().err

    def test_worker_serves_with_a_short_switch_interval(self, capsys,
                                                        monkeypatch):
        """`repro worker` serves with WORKER_SWITCH_INTERVAL_S; an
        in-process WorkerServer keeps the interpreter's interval."""
        from repro.__main__ import WORKER_SWITCH_INTERVAL_S
        from repro.net import WorkerServer

        default = sys.getswitchinterval()
        server = WorkerServer()
        server.start()
        server.stop()
        assert sys.getswitchinterval() == default
        seen = []

        def serve_forever(self):
            seen.append(sys.getswitchinterval())
            self.stop()

        monkeypatch.setattr(WorkerServer, "serve_forever", serve_forever)
        try:
            assert repro_main(["worker", "--listen", "127.0.0.1:0"]) == 0
        finally:
            sys.setswitchinterval(default)
        assert seen == [pytest.approx(WORKER_SWITCH_INTERVAL_S)]
        assert "worker listening on" in capsys.readouterr().out

    def test_worker_starts_the_idle_refill(self, capsys, monkeypatch):
        """`repro worker` refills its blinding pools while idle; an
        in-process WorkerServer does not, and the refiller ends with
        the server."""
        from repro.net import WorkerServer

        def refillers():
            return [thread for thread in threading.enumerate()
                    if thread.name.startswith("repro-worker-refill-")]

        server = WorkerServer()
        server.start()
        try:
            assert refillers() == []
        finally:
            server.stop()
        seen = []

        def serve_forever(self):
            seen.append([thread.name for thread in refillers()])
            self.stop()

        monkeypatch.setattr(WorkerServer, "serve_forever", serve_forever)
        default = sys.getswitchinterval()
        try:
            assert repro_main(["worker", "--listen", "127.0.0.1:0"]) == 0
        finally:
            sys.setswitchinterval(default)
        assert len(seen) == 1 and len(seen[0]) == 1
        assert refillers() == []
        assert "worker listening on" in capsys.readouterr().out

    def test_serve_requires_two_workers(self, capsys):
        assert repro_main(["serve", "--workers", "1"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_round_trip_bit_identical(self, capsys):
        """The acceptance check: encrypted inference over localhost
        TCP worker processes, verified bit-identical in-process."""
        code = repro_main(["serve", "--workers", "2", "--samples", "2",
                           "--key-size", "128", "--verify"])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "2/2 requests completed over TCP" in output
        assert "bit-identical" in output

    def test_serve_worker_fails_to_start(self, capsys, monkeypatch,
                                         tmp_path):
        """One spawned worker says something else and exits 3: serve
        exits 1 with a TransportError naming it, and reaps every worker
        it started, the one that came up included."""
        fake = tmp_path / "python"
        fake.write_text(
            "#!/bin/sh\n"
            f"echo $$ >> '{tmp_path}/pids'\n"
            f"if mkdir '{tmp_path}/first' 2>/dev/null; then\n"
            f"  exec '{sys.executable}' \"$@\"\n"
            "fi\n"
            "echo boom\n"
            "exit 3\n"
        )
        fake.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(fake))
        code = repro_main(["serve", "--workers", "2", "--samples", "1",
                           "--key-size", "128"])
        err = capsys.readouterr().err
        assert code == 1
        assert "failed to start: said 'boom', exit status 3" in err
        pids = (tmp_path / "pids").read_text().split()
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(int(pid), 0)


class TestExperimentsCli:
    def test_exp5_fast(self, capsys):
        assert experiments_main(["exp5", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "Distance correlation" in output

    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            experiments_main([])

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            experiments_main(["exp99"])
