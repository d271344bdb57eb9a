"""Unit tests for the framed TCP transport: envelope codec,
malformed-frame rejection (including a corruption fuzz sweep), and the
Connection round-trip discipline."""

import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.errors import TransportError
from repro.net.transport import (
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_HEARTBEAT_ACK,
    KIND_HELLO,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_TASK,
    KIND_WELCOME,
    MAGIC,
    VERSION,
    Connection,
    Envelope,
    dial,
    read_envelope,
    wait_for_port,
)
from repro.observability import Observability

_FRAME = struct.Struct(">4sBBII")
ALL_KINDS = (KIND_HELLO, KIND_WELCOME, KIND_TASK, KIND_RESULT,
             KIND_ERROR, KIND_HEARTBEAT, KIND_HEARTBEAT_ACK,
             KIND_SHUTDOWN)
LIMIT = 1 << 20


def _pipe():
    return socket.socketpair()


def _ship(blob: bytes):
    """Write raw bytes into a socket, close the writer, return reader."""
    writer, reader = _pipe()
    writer.sendall(blob)
    writer.close()
    return reader


class TestEnvelopeCodec:
    def test_round_trip_every_kind(self):
        for kind in ALL_KINDS:
            envelope = Envelope(kind, {"n": 3, "s": "x"}, b"payload")
            reader = _ship(envelope.encode(LIMIT))
            restored = read_envelope(reader, LIMIT)
            assert restored.kind == kind
            assert restored.header == {"n": 3, "s": "x"}
            assert restored.payload == b"payload"
            reader.close()

    def test_empty_header_and_payload(self):
        reader = _ship(Envelope(KIND_SHUTDOWN).encode(LIMIT))
        restored = read_envelope(reader, LIMIT)
        assert restored.header == {} and restored.payload == b""
        reader.close()

    def test_encode_rejects_unknown_kind(self):
        with pytest.raises(TransportError):
            Envelope("telepathy").encode(LIMIT)

    def test_encode_enforces_frame_limit(self):
        with pytest.raises(TransportError):
            Envelope(KIND_TASK, payload=b"x" * 64).encode(32)

    def test_two_frames_back_to_back(self):
        blob = (Envelope(KIND_TASK, {"i": 1}).encode(LIMIT)
                + Envelope(KIND_RESULT, {"i": 2}).encode(LIMIT))
        reader = _ship(blob)
        assert read_envelope(reader, LIMIT).header == {"i": 1}
        assert read_envelope(reader, LIMIT).header == {"i": 2}
        reader.close()


def _frame(magic=MAGIC, version=VERSION, kind_byte=3, header=b"{}",
           payload=b""):
    return (_FRAME.pack(magic, version, kind_byte, len(header),
                        len(payload)) + header + payload)


class TestMalformedFrames:
    def _reject(self, blob):
        reader = _ship(blob)
        with pytest.raises(TransportError):
            read_envelope(reader, LIMIT)
        reader.close()

    def test_bad_magic(self):
        self._reject(_frame(magic=b"HTTP"))

    def test_bad_version(self):
        self._reject(_frame(version=VERSION + 9))

    def test_unknown_kind_byte(self):
        self._reject(_frame(kind_byte=0))
        self._reject(_frame(kind_byte=200))

    def test_oversized_declared_length_rejected_before_alloc(self):
        # Declares a 512 MiB payload with no bytes behind it: the limit
        # check must fire on the declared size, not after allocation.
        blob = _FRAME.pack(MAGIC, VERSION, 3, 2, 512 * 1024 * 1024)
        self._reject(blob + b"{}")

    def test_truncated_header(self):
        self._reject(_frame(header=b'{"x": 1}')[:-4])

    def test_truncated_payload(self):
        self._reject(_frame(payload=b"abcdef")[:-3])

    def test_eof_mid_frame_header(self):
        self._reject(_frame()[:6])

    def test_header_not_json(self):
        self._reject(_frame(header=b"not json"))

    def test_header_not_a_dict(self):
        self._reject(_frame(header=b"[1, 2]"))

    def test_fuzz_corruption_never_garbage(self):
        """Randomly corrupted/truncated frames either still parse (the
        mutation hit the payload) or raise TransportError — never any
        other exception, never a hang (conftest timeout guard)."""
        rng = random.Random(20260806)
        base = Envelope(
            KIND_TASK, {"request_id": 5, "stage_index": 2},
            payload=bytes(rng.randrange(256) for _ in range(48)),
        ).encode(LIMIT)
        for _ in range(300):
            blob = bytearray(base)
            mode = rng.randrange(3)
            if mode == 0:  # flip a byte
                index = rng.randrange(len(blob))
                blob[index] ^= 1 << rng.randrange(8)
            elif mode == 1:  # truncate
                blob = blob[:rng.randrange(len(blob))]
            else:  # both
                index = rng.randrange(len(blob))
                blob[index] = rng.randrange(256)
                blob = blob[:rng.randrange(1, len(blob) + 1)]
            reader = _ship(bytes(blob))
            try:
                envelope = read_envelope(reader, LIMIT)
                assert envelope.kind in ALL_KINDS
                assert isinstance(envelope.header, dict)
            except TransportError:
                pass
            finally:
                reader.close()


class TestConnection:
    def _pair(self, obs=None):
        a, b = _pipe()
        return (Connection(a, LIMIT, obs=obs, peer="server"),
                Connection(b, LIMIT, peer="client"))

    def test_request_response(self):
        client, server = self._pair()
        def serve():
            envelope = server.recv(timeout=5)
            server.send(Envelope(
                KIND_HEARTBEAT_ACK,
                {"nonce": envelope.header["nonce"]},
            ))
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        reply = client.request(Envelope(KIND_HEARTBEAT, {"nonce": 7}),
                               timeout=5)
        assert reply.kind == KIND_HEARTBEAT_ACK
        assert reply.header["nonce"] == 7
        thread.join(5)
        client.close()
        server.close()

    def test_byte_counters(self):
        obs = Observability(enabled=True)
        a, b = _pipe()
        client = Connection(a, LIMIT, obs=obs, peer="server")
        server = Connection(b, LIMIT, obs=obs, peer="client")
        frames = [Envelope(KIND_HELLO, {"role": "model", "x": [1.5]}),
                  Envelope(KIND_RESULT, {}, b"payload"),
                  Envelope(KIND_WELCOME)]
        for envelope in frames:
            server.send(envelope)
            client.recv(timeout=5)
        sent = obs.registry.counter("net_bytes_sent", peer="client")
        received = obs.registry.counter("net_bytes_received",
                                        peer="server")
        assert sent.value == sum(len(envelope.encode(LIMIT))
                                 for envelope in frames)
        assert received.value == sent.value
        # A peer that spaces its header JSON counts at wire length.
        header = b'{"a": 1}'
        raw = _FRAME.pack(MAGIC, VERSION, 1, len(header), 3) \
            + header + b"xyz"
        b.sendall(raw)
        assert client.recv(timeout=5).header == {"a": 1}
        assert received.value == sent.value + len(raw)
        client.close()
        server.close()

    def test_recv_timeout_is_transport_error(self):
        client, server = self._pair()
        with pytest.raises(TransportError):
            client.recv(timeout=0.1)
        client.close()
        server.close()

    @pytest.mark.timeout(10)
    def test_request_timeout_bounds_its_send(self):
        """A peer that never reads fills the socket buffers, and the
        very first request must fail in about its timeout, not block
        in the send for ever."""
        a, b = _pipe()
        client = Connection(a, 64 * LIMIT, peer="server")
        big = Envelope(KIND_TASK, {}, bytes(32 * LIMIT))
        start = time.monotonic()
        with pytest.raises(TransportError):
            client.request(big, timeout=0.2)
        assert time.monotonic() - start < 3.0
        client.close()
        b.close()

    def test_close_wakes_blocked_recv(self):
        client, server = self._pair()
        failures = []
        def blocked():
            try:
                client.recv(timeout=30)
            except TransportError as exc:
                failures.append(exc)
        thread = threading.Thread(target=blocked, daemon=True)
        thread.start()
        client.close()
        thread.join(5)
        assert not thread.is_alive()
        assert failures
        server.close()

    def test_send_after_close_raises(self):
        client, server = self._pair()
        client.close()
        with pytest.raises(TransportError):
            client.send(Envelope(KIND_SHUTDOWN))
        server.close()

    def test_peer_disconnect_surfaces_as_transport_error(self):
        client, server = self._pair()
        server.close()
        with pytest.raises(TransportError):
            client.recv(timeout=5)
        client.close()


class TestDialing:
    def test_dial_and_wait_for_port(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        wait_for_port(host, port, deadline=5.0)
        connection = dial(host, port)
        assert not connection.closed
        connection.close()
        listener.close()

    def test_dial_refused(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        host, port = listener.getsockname()
        listener.close()  # bound then released: nothing listens here
        with pytest.raises(TransportError):
            dial(host, port, connect_timeout=0.5)

    def test_wait_for_port_gives_up(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        host, port = listener.getsockname()
        listener.close()
        with pytest.raises(TransportError):
            wait_for_port(host, port, deadline=0.3)

    def test_header_survives_json_round_trip(self):
        # Belt-and-braces: headers with unicode and nesting.
        header = {"msg": "café", "nested": {"a": [1, 2, 3]}}
        blob = Envelope(KIND_ERROR, header).encode(LIMIT)
        reader = _ship(blob)
        assert read_envelope(reader, LIMIT).header == \
            json.loads(json.dumps(header))
        reader.close()
